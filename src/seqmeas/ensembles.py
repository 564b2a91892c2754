"""Thermodynamic ensemble realizations of the two-measurement model.

Each family builds a concrete (initial state, unitary, first family,
second family) quadruple plus the matching reference distribution q on
the second outcomes, and wraps the resulting statistics into a report:

* ``LocalCanonicalConfig``  -- product of canonical subsystem states,
  measured subsystem energies at both times; the expectation identity
  becomes the multi-bath work relation
  < exp(-sum_mu beta_mu (w_mu - dF_mu)) > = 1.
* ``MicrocanonicalConfig``  -- Gaussian energy-window state; the identity
  links the window weights at both times through dF = -d ln(norm).
* ``GrandCanonicalConfig``  -- fermionic Fock space over M modes with a
  number operator in both families;
  < exp(-beta (dE - mu dN - dOmega)) > = 1.
* ``PeriodicThermoConfig``  -- system with nondegenerate quasi-energies
  (defined modulo the driving frequency, hence an effective temperature
  parameter theta of unconstrained sign) coupled to a canonical bath;
  < exp(-theta e - beta q) > = 1 for quasi-energy and bath-heat changes.

Every family follows one pass, run on stacks: :func:`generate_stack` takes
the :func:`stack_configs` config of a bucket of one kind and shape, checked
once for all its models, and runs each step on arrays with a leading model
axis (stacked ``eigh``, batched products, sums along it).  A stack must be
rectangular: a model whose spectra cut, or whose histograms count levels,
unlike model 0's raises a ``PreconditionError``.  :func:`generate` is the stack of one,
so a single model and the corpus run the same code.  Its log weight maps
the whole array of eigenvalue tuples to log weights in one array
expression; one ``ensemble_state`` call per time shifts them by their
maximum, normalizes once and reports the log normalization, so
partition-function-like constants are logs and never overflow.  The ratio
table y = d q / (D p) is built once per report, for the exponent cross-check
and the identity < y >; its Jensen value < -ln y > is the mean exponent < X >.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Callable, ClassVar

import numpy as np

from .model import (
    JointModel,
    ValidationError,
    WorkDistribution,
    entropy_gap,
    group_levels,
    j_ratio,
    require_each,
    require_finite,
    require_key,
    require_positive,
    validated,
)
from .quantum import (
    SpectralFamily,
    build_joint_model,
    ensemble_state,
    joint_diagonalize,
    one_matrix,
    operator_from_json_dict,
    operator_to_json_dict,
    product_family,
    require_hermitian,
)

# Residual tolerance when cross-checking physical exponents against table ratios.
EXPONENT_CONSISTENCY_TOL = 1e-10


# ---------------------------------------------------------------------------
# fermionic Fock space over M modes (dimension 2^M, Jordan-Wigner encoding)

def _mode_count(h) -> int:
    """M of an M x M one-particle matrix, within the supported 1..12 modes (2^M Fock states)."""
    m = np.shape(h)[-1] if np.ndim(h) else 0
    if not 1 <= m <= 12:
        raise ValidationError(f"n_modes = {m} outside the supported range 1..12")
    return m


@functools.lru_cache(maxsize=12)
def _fock_terms(m: int) -> tuple:
    """The Jordan-Wigner terms of  sum_ab h_ab c_a* c_b  on 2^m Fock states, as read-only
    (row, column, a, b, sign) index arrays in the order of the sum, and the particle number
    of every Fock index.  They depend on m alone, so each mode count builds them once."""
    occ = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    before = np.cumsum(occ, axis=1) - occ  # occupied modes ahead of each mode
    k, a, b = np.nonzero(occ[:, None, :] & ((1 - occ[:, :, None]) | np.eye(m, dtype=int)))
    terms = (k + (1 << (m - 1 - a)) - (1 << (m - 1 - b)), k, a, b,
             1 - 2 * ((before[k, a] + before[k, b] + (b < a)) & 1), occ.sum(axis=1))
    for arr in terms:
        arr.setflags(write=False)
    return terms


def lift_one_particle(h: np.ndarray) -> np.ndarray:
    """Second-quantized Hamiltonian  H = sum_ab h_ab c_a* c_b  on the 2^M Fock space.

    Mode a is occupied in index k when bit M - 1 - a is set (Jordan-Wigner order); c_a* c_b
    moves a particle from mode b to empty mode a, signed by the parity of the particles passed.
    Built in O(M^2 dim), summed in the order of the sum, H equals the dense product exactly.
    A stack of one-particle matrices (B, M, M) lifts to a stack (B, 2^M, 2^M).
    """
    m = _mode_count(h)
    h = require_hermitian(h, "one-particle h")
    rows, columns, a, b, signs, _ = _fock_terms(m)
    out = np.zeros(h.shape[:-2] + (2 ** m, 2 ** m), dtype=complex)
    np.add.at(out, (..., rows, columns), h[..., a, b] * signs)
    return out


# ---------------------------------------------------------------------------
# configs

def _reals_to_json(xs) -> list:
    return [float(x) for x in np.asarray(xs, dtype=float)]


# field metadata: the (encode, decode) JSON codec of a config field; operator fields name their matrices
_REAL = {"codec": (float, float)}
_REALS = {"codec": (_reals_to_json, lambda xs: tuple(float(x) for x in xs))}
_VECTOR = {"codec": (_reals_to_json, lambda xs: np.asarray(xs, dtype=float))}
_OPERATOR = {"codec": (operator_to_json_dict, operator_from_json_dict), "operators": lambda name, h: [(name, h)]}
_OPERATORS = {"codec": (lambda hs: [operator_to_json_dict(h) for h in hs],
                        lambda ds: tuple(operator_from_json_dict(d) for d in ds)),
              "operators": lambda name, hs: [(f"{name}[{mu}]", h) for mu, h in enumerate(hs)]}


class _ConfigCodec:
    """Field-driven JSON codec and checks of the ensemble configs: ``kind``, then every
    field in declaration order through the codec in its metadata.  A field
    that does not decode raises a ``ValidationError`` that starts with its name;
    so does an operator that is not one finite Hermitian matrix or whose shape changes
    from ``h_t0`` to ``h_t1``, checked when the config is constructed."""

    kind: ClassVar[str]

    def __post_init__(self):
        for name, h in self._operators():
            one_matrix(np.asarray(h), name)
        self.check()

    def _operators(self) -> list:
        return [op for f in fields(self)
                for op in f.metadata.get("operators", lambda *_: ())(f.name, getattr(self, f.name))]

    def check(self):
        """Every check of the config, once for all models of a :func:`stack_configs` stack:
        here each operator finite Hermitian, and each ``h_t1`` shaped as its ``h_t0``."""
        shapes = {}
        for name, h in self._operators():
            shapes[name] = require_hermitian(h, name).shape[-2:]
            before = name.replace("h_t1", "h_t0")
            if shapes[name] != shapes.get(before, shapes[name]):
                raise ValidationError(f"{name} has shape {shapes[name]} but {before} has {shapes[before]}")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in fields(self):
            encode, _ = f.metadata["codec"]
            out[f.name] = encode(getattr(self, f.name))
        return out

    @classmethod
    def from_json_dict(cls, data: dict):
        values = {}
        for f in fields(cls):
            raw = require_key(data, f.name, f"{cls.kind} config")
            _, decode = f.metadata["codec"]
            try:
                values[f.name] = decode(raw)
            except (ValueError, TypeError) as exc:  # ValidationError included
                raise ValidationError(f"{f.name}: {exc}") from exc
        return cls(**values)


@dataclass(frozen=True)
class LocalCanonicalConfig(_ConfigCodec):
    """Product of canonical subsystem states at inverse temperatures betas.

    ``h_t0[mu]`` and ``h_t1[mu]`` are the subsystem Hamiltonians before and
    after the protocol, of equal dimension; the measured families are the
    :func:`product_family` of their spectra, with no dense tensor lift.
    """

    kind: ClassVar[str] = "local_canonical"
    h_t0: tuple = field(metadata=_OPERATORS)
    h_t1: tuple = field(metadata=_OPERATORS)
    betas: tuple = field(metadata=_REALS)

    def check(self):
        if not (len(self.h_t0) == len(self.h_t1) >= 1
                and np.shape(self.betas) == np.shape(self.h_t0[0])[:-2] + (len(self.h_t0),)):
            raise ValidationError("h_t0, h_t1 and betas must have equal positive length")
        super().check()
        for mu in range(len(self.h_t0)):
            require_positive(f"betas[{mu}]", np.asarray(self.betas)[..., mu])

    @property
    def dim(self) -> int:
        return int(np.prod([np.shape(h)[-1] for h in self.h_t0]))


@dataclass(frozen=True)
class MicrocanonicalConfig(_ConfigCodec):
    """Gaussian energy-window state centered at ``energy`` with scale ``width``."""

    kind: ClassVar[str] = "microcanonical"
    h_t0: np.ndarray = field(metadata=_OPERATOR)
    h_t1: np.ndarray = field(metadata=_OPERATOR)
    energy: float = field(metadata=_REAL)
    width: float = field(metadata=_REAL)

    def check(self):
        super().check()
        require_positive("width", self.width)
        require_finite("energy", self.energy)

    @property
    def dim(self) -> int:
        return np.shape(self.h_t0)[-1]


@dataclass(frozen=True)
class GrandCanonicalConfig(_ConfigCodec):
    """Fermionic grand canonical ensemble from a one-particle Hamiltonian.

    ``h_t0`` and ``h_t1`` are M x M one-particle matrices, 1 <= M <= 12
    (checked on construction); the Fock-space Hamiltonians are their
    second-quantized lifts and both measurement families include the
    total particle number.
    """

    kind: ClassVar[str] = "grand_canonical"
    h_t0: np.ndarray = field(metadata=_OPERATOR)
    h_t1: np.ndarray = field(metadata=_OPERATOR)
    beta: float = field(metadata=_REAL)
    mu: float = field(metadata=_REAL)

    def check(self):
        super().check()
        _mode_count(self.h_t0)
        require_positive("beta", self.beta)
        require_finite("mu", self.mu)

    @property
    def dim(self) -> int:
        return 2 ** np.shape(self.h_t0)[-1]


@dataclass(frozen=True)
class PeriodicThermoConfig(_ConfigCodec):
    """Driven system with nondegenerate quasi-energies coupled to a bath.

    Quasi-energies are supplied directly (they are only defined modulo the
    driving frequency, so their canonical weight carries an effective
    inverse temperature ``theta`` whose sign is unconstrained).  The bath
    is an ordinary canonical system at inverse temperature ``beta``.
    Both measurement families coincide: the spectra are time-independent.
    """

    kind: ClassVar[str] = "periodic_thermo"
    quasi_energies: np.ndarray = field(metadata=_VECTOR)
    bath_hamiltonian: np.ndarray = field(metadata=_OPERATOR)
    theta: float = field(metadata=_REAL)
    beta: float = field(metadata=_REAL)

    def check(self):
        super().check()
        eps = np.asarray(self.quasi_energies, dtype=float)
        if eps.ndim != np.ndim(self.bath_hamiltonian) - 1 or eps.shape[-1] < 2:
            raise ValidationError("quasi_energies must be a vector with at least two entries")
        # a non-finite entry becomes nan, whose gaps compare False without a warning
        gaps = np.diff(np.sort(np.where(np.isfinite(eps), eps, np.nan), axis=-1), axis=-1)
        require_each(np.all(gaps > 1e-9, axis=-1), ValidationError, lambda b: (
            f"quasi_energies = {eps[b].tolist()} must be finite and pairwise distinct (rank-one projections)"))
        require_positive("beta", self.beta)
        require_finite("theta", self.theta)

    @property
    def dim(self) -> int:
        return np.shape(self.quasi_energies)[-1] * np.shape(self.bath_hamiltonian)[-1]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class EnsembleReport:
    """Statistics of one generated ensemble model.

    ``jarzynski_lhs`` is the identity < d q / (D p) >; ``jensen_lhs`` its
    averaged exponent < X > = < -ln(d q / (D p)) > over the cells with P > 0
    (nonnegative by Jensen), also reported as ``quantities["mean_exponent"]``;
    ``entropy_gap`` the cell-weighted entropy production (nonnegative for
    modified doubly stochastic conditionals), a logically independent
    statement.  ``exponent_histogram`` groups the physical exponent
    X(i, j) (the dimensionless argument of the fluctuation identity, e.g.
    the scaled work minus free-energy change); ``histogram_identity``
    recomputes < exp(-X) > from the grouped levels and must agree with
    ``jarzynski_lhs``.  ``quantities`` carries the family-specific
    labeled numbers (mean works, free-energy-like differences, ...).
    A stacked report (from :func:`generate_stack`) holds B models: every
    field has a leading model axis, the model and histograms are stacks;
    :meth:`take` gives one model's report.
    """

    family_kind: str
    model: JointModel
    q: np.ndarray
    jarzynski_lhs: float
    jensen_lhs: float
    entropy_gap: float
    exponent_histogram: WorkDistribution
    work_histogram: WorkDistribution
    histogram_identity: float
    quantities: dict
    # measurement data (not serialized): needed by downstream POVM /
    # conditional checks without rebuilding the model
    first_family: SpectralFamily
    second_family: SpectralFamily
    u: np.ndarray

    def take(self, b: int) -> "EnsembleReport":
        """Model ``b`` of a stacked report, as a report of its own (the table labeled by tuples)."""
        first, second = self.first_family.take(b), self.second_family.take(b)
        numbers = ("jarzynski_lhs", "jensen_lhs", "entropy_gap", "histogram_identity")
        return replace(
            self,
            **{name: float(getattr(self, name)[b]) for name in numbers},
            model=validated(JointModel, p_table=self.model.p_table[b], d=self.model.d, D=self.model.D,
                            labels_i=first.labels(), labels_j=second.labels()),
            q=self.q[b],
            exponent_histogram=self.exponent_histogram.take(b),
            work_histogram=self.work_histogram.take(b),
            quantities={k: float(v[b]) for k, v in self.quantities.items()},
            first_family=first,
            second_family=second,
            u=self.u[b],
        )

    def to_json_dict(self) -> dict:
        """The scalars, quantities, model and q; the histograms are left to the CLI's CSV artifacts."""
        return {
            "family_kind": self.family_kind,
            "jarzynski_lhs": float(self.jarzynski_lhs),
            "jensen_lhs": float(self.jensen_lhs),
            "entropy_gap": float(self.entropy_gap),
            "histogram_identity": float(self.histogram_identity),
            "quantities": {k: float(v) for k, v in self.quantities.items()},
            "model": self.model.to_json_dict(),
            "q": [float(x) for x in self.q],
        }


def _assemble_report(
    kind: str,
    first: SpectralFamily,
    second: SpectralFamily,
    u: np.ndarray,
    log_weight: Callable[[np.ndarray], np.ndarray],
    work_value: Callable[[np.ndarray], np.ndarray],
    labeled: Callable[[np.ndarray, np.ndarray, list[np.ndarray]], dict],
) -> EnsembleReport:
    """Shared glue: one pass from log weights to the stacked report of a bucket.

    Every array carries a leading model axis B.  ``log_weight`` maps the
    (B, k, n_components) eigenvalue tuples of either family to the (B, k)
    raw log weights of the ensemble; each family's weights are evaluated
    once and normalized once by ``ensemble_state``.
    The exponent of the fluctuation identity is
    X(i, j) = w0(E_i) - w1(F_j) + log_norm(t1) - log_norm(t0), the last two
    terms the free-energy-like change of the log normalizations.  The
    ratio table y = d q / (D p) is built once: exp(-X) is cross-checked
    against it, and ``jarzynski_lhs`` is the average of y.  ``jensen_lhs`` and
    ``quantities["mean_exponent"]`` are one array: < X > = < -ln y > over P > 0.
    ``work_value`` maps the tuple changes F_j - E_i, shape
    (B, nI, nJ, n_components), to the (B, nI, nJ) values of the plain work
    histogram.  ``labeled`` maps the two log normalizations and the mean
    change of every tuple component, each (B,), to the family's labeled
    quantities; a ``jensen_combination`` among them must match the generic
    Jensen value.
    """
    lw0, lw1 = log_weight(first.eigen_tuples), log_weight(second.eigen_tuples)
    state, qstate = ensemble_state(first, lw0), ensemble_state(second, lw1)
    q = qstate.probabilities
    model = build_joint_model(state.probabilities, u, first, second)

    x = (lw0[..., :, None] - lw1[..., None, :]) + (qstate.log_norm - state.log_norm)[..., None, None]
    # cross-check: exp(-X) must equal the table ratio d q / (D p);
    # the ratio spans many orders of magnitude, so compare relatively
    y = j_ratio(model, q)
    dev = (np.abs(np.exp(-x) - y) / np.maximum(y, 1.0)).max(axis=(-2, -1))
    require_each(dev <= EXPONENT_CONSISTENCY_TOL, ValidationError,
                 lambda b: f"physical exponent inconsistent with table ratio (deviation {dev[b]:.3e})")
    # every first outcome has positive probability, so y is finite and the
    # zero cells of the table contribute nothing
    table, cells = model.p_table, (-2, -1)
    jarzynski = np.sum(table * y, axis=cells)
    # < -ln y > as < X >, finite where y underflows; X is finite, so the cells with P = 0 add nothing
    jensen = np.sum(table * x, axis=cells)
    changes = second.eigen_tuples[..., None, :, :] - first.eigen_tuples[..., :, None, :]
    flat_p = table.reshape(len(table), -1)
    exp_hist = group_levels(x.reshape(flat_p.shape), flat_p)
    work_hist = group_levels(work_value(changes).reshape(flat_p.shape), flat_p)
    hist_identity = np.sum(exp_hist.probs * np.exp(-exp_hist.values), axis=-1)
    mean_changes = [np.sum(table * changes[..., k], axis=cells) for k in range(changes.shape[-1])]
    quantities = {"mean_exponent": jensen,
                  **labeled(state.log_norm, qstate.log_norm, mean_changes)}
    if "jensen_combination" in quantities:
        combo = quantities["jensen_combination"]
        require_each(np.abs(combo - jensen) <= 1e-9, ValidationError, lambda b:
                     f"labeled {kind} Jensen combination {combo[b]} disagrees with generic value {jensen[b]}")
    return EnsembleReport(
        family_kind=kind,
        model=model,
        q=q,
        jarzynski_lhs=jarzynski,
        jensen_lhs=jensen,
        entropy_gap=entropy_gap(model),
        exponent_histogram=exp_hist,
        work_histogram=work_hist,
        histogram_identity=hist_identity,
        quantities=quantities,
        first_family=first,
        second_family=second,
        u=u,
    )


# Each family is one builder of its stacked config ``c`` (numbers (B,), operators (B, n, n),
# from stack_configs): it runs every joint_diagonalize the family needs and returns
# (first, second, log_weight, work_value, labeled) for _assemble_report.

def _local_canonical(c):
    """Work relation for a product of canonical subsystems.

    The :func:`product_family` of the subsystem spectra at both times, the
    product canonical state, and the reference q from the later spectra.
    Reports per-subsystem mean work <w_mu>, free-energy changes
    dF_mu = F_mu(t1) - F_mu(t0), and the Jensen combination
    sum_mu beta_mu (<w_mu> - dF_mu) >= 0.  :func:`_assemble_report` holds that to the
    generic Jensen value, and so the subsystem ln Z, from the same factor spectra, to the
    change of the joint log norms.
    """
    times = [joint_diagonalize(h) for h in c.h_t0], [joint_diagonalize(h) for h in c.h_t1]
    log_z0, log_z1 = ([ensemble_state(f, -c.betas[:, mu, None] * f.eigen_tuples[..., 0]).log_norm
                       for mu, f in enumerate(fs)] for fs in times)

    def labeled(log_norm0, log_norm1, mean_works):
        # mean work and free-energy change per subsystem
        quantities = {}
        jensen_sum = 0.0
        for mu, mean_w in enumerate(mean_works):
            beta = c.betas[:, mu]
            d_f = (-log_z1[mu] / beta) - (-log_z0[mu] / beta)
            quantities[f"mean_work_{mu}"] = mean_w
            quantities[f"delta_free_energy_{mu}"] = d_f
            quantities[f"beta_{mu}"] = beta
            jensen_sum += beta * (mean_w - d_f)
        quantities["jensen_combination"] = jensen_sum
        return quantities

    return (*map(product_family, times), lambda tuples: -(tuples @ c.betas[:, :, None])[..., 0],
            lambda changes: changes.sum(axis=-1), labeled)


def _microcanonical(c):
    """Fluctuation identity for Gaussian energy-window (microcanonical-like) states.

    The window weight is exp(-((energy - E)/width)^2); its log total
    -f(t) = ln sum_i exp(...) d(i) plays the free-energy role and the
    identity reads  < exp(-X) > = 1  with
    X = ((energy - E_j(t1))/width)^2 - ((energy - E_i(t0))/width)^2 - df.
    """
    def labeled(log_norm0, log_norm1, mean_changes):
        return {
            "energy": c.energy,
            "width": c.width,
            "log_window_norm_t0": log_norm0,
            "log_window_norm_t1": log_norm1,
            # f(t) = -ln norm(t); df enters the exponent with a minus sign
            "delta_f": log_norm0 - log_norm1,
        }

    return (joint_diagonalize(c.h_t0), joint_diagonalize(c.h_t1),
            lambda tuples: -(((c.energy[:, None] - tuples[..., 0]) / c.width[:, None]) ** 2),
            lambda changes: changes[..., 0], labeled)


def _grand_canonical(c):
    """Fermionic grand canonical identity  < exp(-beta (dE - mu dN - dOmega)) > = 1.

    Both families measure (H(t), N) on the 2^M Fock space; the grand
    potential Omega(t) = -ln Tr exp(beta (mu N - H(t))) / beta is reported
    at both times along with <dE>, <dN> and the Jensen combination.

    H(t) conserves N, whose eigenvalue at a Fock index is the popcount of its bits, so each
    family is :func:`joint_diagonalize` of the lifted H(t) with those popcounts as sectors: one
    ``eigh`` per number sector, outcomes N-major with tuples (mean eigenvalue of the cut, N).
    Cost: sum_N C(M, N)^3 for the blocks and a few dim^3 products to check H.
    """
    lifts = [lift_one_particle(h) for h in (c.h_t0, c.h_t1)]  # the lift checks the mode count
    families = [joint_diagonalize(lift, _fock_terms(c.h_t0.shape[-1])[-1]) for lift in lifts]

    def labeled(log_norm0, log_norm1, mean_changes):
        omega0, omega1 = -log_norm0 / c.beta, -log_norm1 / c.beta
        mean_de, mean_dn = mean_changes
        return {
            "beta": c.beta,
            "mu": c.mu,
            "omega_t0": omega0,
            "omega_t1": omega1,
            "delta_omega": omega1 - omega0,
            "mean_delta_energy": mean_de,
            "mean_delta_number": mean_dn,
            "jensen_combination": c.beta * (mean_de - c.mu * mean_dn - (omega1 - omega0)),
        }

    return (*families, lambda tuples: c.beta[:, None] * (c.mu[:, None] * tuples[..., 1] - tuples[..., 0]),
            lambda changes: changes[..., 0], labeled)


def _periodic_thermo(c):
    """Quasi-energy/bath-heat identity  < exp(-theta e - beta q) > = 1.

    The system part has rank-one quasi-energy projections (validated by
    the config); the bath is canonical at beta.  Both families measure
    the same pair (quasi-energy, bath energy), so the normalization
    offset vanishes and the exponent is exactly theta*e + beta*q.  The
    family is the :func:`product_family` of the system and bath spectra.
    """
    family = product_family([joint_diagonalize(c.quasi_energies[..., None] * np.eye(c.quasi_energies.shape[-1])),
                             joint_diagonalize(c.bath_hamiltonian)])

    def labeled(log_norm0, log_norm1, mean_changes):
        mean_e, mean_q = mean_changes
        return {
            "theta": c.theta,
            "beta": c.beta,
            "mean_quasi_energy_change": mean_e,
            "mean_bath_heat": mean_q,
            "jensen_combination": c.theta * mean_e + c.beta * mean_q,
        }

    return (family, family,
            lambda tuples: -c.theta[:, None] * tuples[..., 0] - c.beta[:, None] * tuples[..., 1],
            lambda changes: changes[..., 0], labeled)


# one registry: config class -> builder; each class names its JSON kind
GENERATORS = {
    LocalCanonicalConfig: _local_canonical,
    MicrocanonicalConfig: _microcanonical,
    GrandCanonicalConfig: _grand_canonical,
    PeriodicThermoConfig: _periodic_thermo,
}


def config_from_json_dict(data: dict):
    if not isinstance(data, dict):
        raise ValidationError(f"config must be a JSON object, got {type(data).__name__}")
    kinds = {cls.kind: cls for cls in GENERATORS}
    kind = data.get("kind")
    if kind not in kinds:
        raise ValidationError(f"unknown ensemble kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind].from_json_dict(data)


def stack_key(kind, values: dict) -> tuple:
    """Models of config class ``kind`` whose field ``values`` have equal keys stack: every field of one shape."""
    return (kind, *(tuple(map(np.shape, v)) if isinstance(v, (tuple, list)) else np.shape(v)
                    for v in values.values()))


def stack_configs(kind, rows):
    """The config of class ``kind`` whose every field stacks the ``rows`` (each one model's
    field values, a dict, all of one :func:`stack_key`) along a leading model axis; a tuple of
    operators stacks factor by factor.  It is built unchecked: :meth:`check` checks every model."""
    return validated(kind, **{f.name: tuple(map(np.array, zip(*(row[f.name] for row in rows), strict=True)))
                              if f.metadata == _OPERATORS else np.array([row[f.name] for row in rows])
                              for f in fields(kind)})


def generate_stack(config, us: np.ndarray) -> EnsembleReport:
    """Stacked report of a checked :func:`stack_configs` config with unitaries ``us`` (B, dim, dim):
    every step runs once, on arrays with a leading model axis; :meth:`EnsembleReport.take`
    gives one model's report.  The stack must be rectangular: a model whose spectra cut, or
    whose histograms count levels, unlike model 0's raises a ``PreconditionError``."""
    first, second, *pieces = GENERATORS[type(config)](config)
    return _assemble_report(config.kind, first, second, us, *pieces)


def generate(config, u: np.ndarray) -> EnsembleReport:
    """One model's report: :func:`generate_stack` of a stack of one."""
    if type(config) not in GENERATORS:
        raise ValidationError(f"unsupported config type {type(config).__name__}")
    u = one_matrix(np.asarray(u, dtype=complex), "U")
    return generate_stack(stack_configs(type(config), [vars(config)]), u[None]).take(0)
