"""Thermodynamic ensemble realizations of the two-measurement model.

Each generator builds a concrete (initial state, unitary, first family,
second family) quadruple plus the matching reference distribution q on
the second outcomes, and wraps the resulting statistics into a report:

* ``local_canonical_model``  -- product of canonical subsystem states,
  measured subsystem energies at both times; the expectation identity
  becomes the multi-bath work relation
  < exp(-sum_mu beta_mu (w_mu - dF_mu)) > = 1.
* ``microcanonical_model``   -- Gaussian energy-window state; the identity
  links the window weights at both times through dF = -d ln(norm).
* ``grand_canonical_model``  -- fermionic Fock space over M modes with a
  number operator in both families;
  < exp(-beta (dE - mu dN - dOmega)) > = 1.
* ``periodic_thermo_model``  -- system with nondegenerate quasi-energies
  (defined modulo the driving frequency, hence an effective temperature
  parameter theta of unconstrained sign) coupled to a canonical bath;
  < exp(-theta e - beta q) > = 1 for quasi-energy and bath-heat changes.

Every family follows one pass.  Its log weight maps the whole array of
eigenvalue tuples to log weights in one array expression; one
``ensemble_state`` call per time shifts them by their maximum, normalizes
once and reports the log normalization, so partition-function-like
constants are logs and never overflow.  The ratio table y = d q / (D p)
is built once per report: the exponent cross-check, the identity < y >
and its Jensen value < -ln y > all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

from .model import (
    JointModel,
    ValidationError,
    WorkDistribution,
    entropy_gap,
    group_levels,
    j_ratio,
    require_positive,
)
from .quantum import (
    GROUP_TOL,
    SpectralFamily,
    build_joint_model,
    ensemble_state,
    joint_diagonalize,
    operator_from_json_dict,
    operator_to_json_dict,
    product_family,
    require_hermitian,
)

# Residual tolerance when cross-checking physical exponents against table ratios.
EXPONENT_CONSISTENCY_TOL = 1e-10


# ---------------------------------------------------------------------------
# fermionic Fock space over M modes (dimension 2^M, Jordan-Wigner encoding)

def lift_one_particle(h: np.ndarray) -> np.ndarray:
    """Second-quantized Hamiltonian  H = sum_ab h_ab c_a* c_b  on the 2^M Fock space.

    Mode a is occupied in index k when bit M - 1 - a is set (Jordan-Wigner order); c_a* c_b
    moves a particle from mode b to empty mode a, signed by the parity of the particles passed.
    Built in O(M^2 dim), summed in the order of the sum, H equals the dense product exactly.
    """
    m = np.shape(h)[0] if np.ndim(h) else 0
    if not 1 <= m <= 12:
        raise ValidationError(f"n_modes = {m} outside the supported range 1..12")
    h = require_hermitian(h, "one-particle h")
    occ = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    before = np.cumsum(occ, axis=1) - occ  # occupied modes ahead of each mode
    k, a, b = np.nonzero(occ[:, None, :] & ((1 - occ[:, :, None]) | np.eye(m, dtype=int)))
    out = np.zeros((2 ** m, 2 ** m), dtype=complex)
    np.add.at(out, (k + (1 << (m - 1 - a)) - (1 << (m - 1 - b)), k),
              h[a, b] * (1 - 2 * ((before[k, a] + before[k, b] + (b < a)) & 1)))
    return out


def number_operator(n_modes: int) -> np.ndarray:
    """Total particle number  N = sum_a c_a* c_a, the lift of the identity (popcount diagonal)."""
    return lift_one_particle(np.eye(n_modes))


def _sector_family(h: np.ndarray) -> SpectralFamily:
    """(H, N) family of the lifted ``h``, one ``eigh`` per number sector."""
    big_h, n_op = lift_one_particle(h), number_operator(len(h))
    order = np.argsort(n_op.diagonal().real, kind="stable")
    n = n_op.diagonal().real[order]
    sectors = np.searchsorted(n, np.arange(len(h) + 2))
    scale = max(1.0, float(np.abs(big_h).max()))
    w, basis = np.empty(len(n)), np.zeros_like(big_h)
    for lo, hi in zip(sectors[:-1], sectors[1:]):
        rows = order[lo:hi]
        w[lo:hi], basis[rows, lo:hi] = np.linalg.eigh(big_h[np.ix_(rows, rows)])
    starts = np.flatnonzero((np.diff(w, prepend=-np.inf) > GROUP_TOL * scale) | (np.diff(n, prepend=-1) > 0))
    sizes = np.diff(starts, append=len(n))
    fam = SpectralFamily(basis=basis, degeneracies=sizes,
                         eigen_tuples=np.column_stack([np.add.reduceat(w, starts) / sizes, n[starts]]))
    for k, (op, s) in enumerate(((big_h, scale), (n_op, max(1.0, len(h))))):
        dev = float(np.abs(fam.operator(k) - op).max())
        if dev > 100 * GROUP_TOL * s:
            raise ValidationError(f"{'HN'[k]} is not reconstructed by its sectors (deviation {dev:.3e})")
    return fam


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
    """Field-driven JSON codec of the ensemble configs: ``kind``, then every
    field in declaration order through the codec in its metadata.  A field
    that does not decode raises a ``ValidationError`` that starts with its name;
    so does an operator that is not finite Hermitian or whose shape changes
    from ``h_t0`` to ``h_t1``, checked when the config is constructed."""

    kind: ClassVar[str]

    def __post_init__(self):
        shapes = {}
        for f in fields(self):
            for name, h in f.metadata.get("operators", lambda *_: ())(f.name, getattr(self, f.name)):
                shapes[name] = require_hermitian(h, name).shape
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
            if f.name not in data:
                raise ValidationError(f"{cls.kind} config is missing field {f.name!r}")
            _, decode = f.metadata["codec"]
            try:
                values[f.name] = decode(data[f.name])
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

    def __post_init__(self):
        if not (len(self.h_t0) == len(self.h_t1) == len(self.betas) >= 1):
            raise ValidationError("h_t0, h_t1 and betas must have equal positive length")
        super().__post_init__()
        for mu, b in enumerate(self.betas):
            require_positive(f"betas[{mu}]", b)

    @property
    def dim(self) -> int:
        return int(np.prod([np.asarray(h).shape[0] for h in self.h_t0]))


@dataclass(frozen=True)
class MicrocanonicalConfig(_ConfigCodec):
    """Gaussian energy-window state centered at ``energy`` with scale ``width``."""

    kind: ClassVar[str] = "microcanonical"
    h_t0: np.ndarray = field(metadata=_OPERATOR)
    h_t1: np.ndarray = field(metadata=_OPERATOR)
    energy: float = field(metadata=_REAL)
    width: float = field(metadata=_REAL)

    def __post_init__(self):
        super().__post_init__()
        require_positive("width", self.width)
        if not np.isfinite(self.energy):
            raise ValidationError("energy must be finite")

    @property
    def dim(self) -> int:
        return np.asarray(self.h_t0).shape[0]


@dataclass(frozen=True)
class GrandCanonicalConfig(_ConfigCodec):
    """Fermionic grand canonical ensemble from a one-particle Hamiltonian.

    ``h_t0`` and ``h_t1`` are M x M one-particle matrices; the Fock-space
    Hamiltonians are their second-quantized lifts and both measurement
    families include the total particle number.
    """

    kind: ClassVar[str] = "grand_canonical"
    h_t0: np.ndarray = field(metadata=_OPERATOR)
    h_t1: np.ndarray = field(metadata=_OPERATOR)
    beta: float = field(metadata=_REAL)
    mu: float = field(metadata=_REAL)

    def __post_init__(self):
        super().__post_init__()
        require_positive("beta", self.beta)
        if not np.isfinite(self.mu):
            raise ValidationError("mu must be finite")

    @property
    def dim(self) -> int:
        return 2 ** np.asarray(self.h_t0).shape[0]


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

    def __post_init__(self):
        super().__post_init__()
        eps = np.asarray(self.quasi_energies, dtype=float)
        if eps.ndim != 1 or eps.size < 2:
            raise ValidationError("quasi_energies must be a vector with at least two entries")
        if not (np.all(np.isfinite(eps)) and np.all(np.diff(np.sort(eps)) > 1e-9)):
            raise ValidationError(f"quasi_energies = {eps.tolist()} must be finite and pairwise distinct "
                                  "(rank-one projections)")
        require_positive("beta", self.beta)
        if not np.isfinite(self.theta):
            raise ValidationError("theta must be finite")

    @property
    def dim(self) -> int:
        return len(self.quasi_energies) * np.asarray(self.bath_hamiltonian).shape[0]


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class EnsembleReport:
    """Statistics of one generated ensemble model.

    ``jarzynski_lhs`` is the identity < d q / (D p) >; ``jensen_lhs`` its
    averaged exponent < -ln(d q / (D p)) > (nonnegative by Jensen);
    ``entropy_gap`` the cell-weighted entropy production (nonnegative for
    modified doubly stochastic conditionals), a logically independent
    statement.  ``exponent_histogram`` groups the physical exponent
    X(i, j) (the dimensionless argument of the fluctuation identity, e.g.
    the scaled work minus free-energy change); ``histogram_identity``
    recomputes < exp(-X) > from the grouped levels and must agree with
    ``jarzynski_lhs``.  ``quantities`` carries the family-specific
    labeled numbers (mean works, free-energy-like differences, ...).
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

    def to_json_dict(self) -> dict:
        return {
            "family_kind": self.family_kind,
            "jarzynski_lhs": float(self.jarzynski_lhs),
            "jensen_lhs": float(self.jensen_lhs),
            "entropy_gap": float(self.entropy_gap),
            "histogram_identity": float(self.histogram_identity),
            "work_histogram": [
                {"w": float(w), "prob": float(p)}
                for w, p in zip(self.work_histogram.values, self.work_histogram.probs)
            ],
            "exponent_histogram": [
                {"x": float(x), "prob": float(p)}
                for x, p in zip(self.exponent_histogram.values, self.exponent_histogram.probs)
            ],
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
    labeled: Callable[[float, float, list[float]], dict],
) -> EnsembleReport:
    """Shared glue: one pass from log weights to the report.

    ``log_weight`` maps the (k, n_operators) eigenvalue tuples of either
    family to the (k,) raw log weights of the ensemble; each family's
    weights are evaluated once and normalized once by ``ensemble_state``.
    The exponent of the fluctuation identity is
    X(i, j) = w0(E_i) - w1(F_j) + log_norm(t1) - log_norm(t0), the last two
    terms the free-energy-like change of the log normalizations.  The
    ratio table y = d q / (D p) is built once: exp(-X) is cross-checked
    against it, and ``jarzynski_lhs`` and ``jensen_lhs`` are the averages
    of y and of -ln y.
    ``work_value`` maps the tuple changes F_j - E_i, shape
    (nI, nJ, n_components), to the (nI, nJ) values of the plain work
    histogram.  ``labeled`` maps the two log normalizations and the mean
    change of every tuple component to the family's labeled quantities; a
    ``jensen_combination`` among them must match the generic Jensen value.
    """
    lw0, lw1 = log_weight(first.eigen_tuples), log_weight(second.eigen_tuples)
    state, qstate = ensemble_state(first, lw0), ensemble_state(second, lw1)
    q = qstate.probabilities
    model = build_joint_model(state.probabilities, u, first, second)

    x = (lw0[:, None] - lw1[None, :]) + (qstate.log_norm - state.log_norm)
    # cross-check: exp(-X) must equal the table ratio d q / (D p);
    # the ratio spans many orders of magnitude, so compare relatively
    y = j_ratio(model, q)
    dev = float((np.abs(np.exp(-x) - y) / np.maximum(y, 1.0)).max())
    if dev > EXPONENT_CONSISTENCY_TOL:
        raise ValidationError(f"physical exponent inconsistent with table ratio (deviation {dev:.3e})")
    # every first outcome has positive probability, so y is finite and the
    # zero cells of the table contribute nothing
    mask = model.p_table > 0.0
    jarzynski = float(np.sum(model.p_table * y))
    jensen = math.inf if np.any(mask & (y <= 0)) else \
        float(-np.sum(model.p_table * np.log(np.where(mask & (y > 0), y, 1.0))))

    flat_p = model.p_table.ravel()
    changes = second.eigen_tuples[None, :, :] - first.eigen_tuples[:, None, :]
    exp_hist = group_levels(x.ravel(), flat_p)
    work_hist = group_levels(work_value(changes).ravel(), flat_p)
    hist_identity = float(np.sum(exp_hist.probs * np.exp(-exp_hist.values)))
    mean_changes = [float(np.sum(model.p_table * changes[:, :, k])) for k in range(changes.shape[2])]
    quantities = {"mean_exponent": float(np.sum(model.p_table * x)),
                  **labeled(state.log_norm, qstate.log_norm, mean_changes)}
    if "jensen_combination" in quantities and abs(quantities["jensen_combination"] - jensen) > 1e-9:
        raise ValidationError(
            f"labeled {kind} Jensen combination {quantities['jensen_combination']} "
            f"disagrees with generic value {jensen}"
        )
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


def local_canonical_model(cfg: LocalCanonicalConfig, u: np.ndarray) -> EnsembleReport:
    """Work relation for a product of canonical subsystems.

    Builds the :func:`product_family` of the subsystem spectra at both times,
    the product canonical state, and the reference q from the later spectra.
    Reports per-subsystem mean work <w_mu>, free-energy changes
    dF_mu = F_mu(t1) - F_mu(t0), and the Jensen combination
    sum_mu beta_mu (<w_mu> - dF_mu) >= 0.  The subsystem partition functions,
    from the same factor spectra, are cross-checked against the joint norms.
    """
    betas = np.asarray(cfg.betas, dtype=float)
    factors = [[joint_diagonalize([h]) for h in hs] for hs in (cfg.h_t0, cfg.h_t1)]
    log_z0, log_z1 = ([ensemble_state(f, -b * f.eigen_tuples[:, 0]).log_norm for f, b in zip(fs, betas)]
                      for fs in factors)
    first, second = map(product_family, factors)

    def labeled(log_norm0, log_norm1, mean_works):
        # -sum_mu beta_mu dF_mu = ln Z(t1) - ln Z(t0)
        offset = float(sum(log_z1) - sum(log_z0))
        if abs(offset - (log_norm1 - log_norm0)) > 1e-9:
            raise ValidationError(
                f"normalization bookkeeping mismatch: offset {offset} vs {log_norm1 - log_norm0}"
            )
        # mean work and free-energy change per subsystem
        quantities = {}
        jensen_sum = 0.0
        for mu, mean_w in enumerate(mean_works):
            d_f = float((-log_z1[mu] / betas[mu]) - (-log_z0[mu] / betas[mu]))
            quantities[f"mean_work_{mu}"] = mean_w
            quantities[f"delta_free_energy_{mu}"] = d_f
            quantities[f"beta_{mu}"] = float(betas[mu])
            jensen_sum += betas[mu] * (mean_w - d_f)
        quantities["jensen_combination"] = jensen_sum
        return quantities

    return _assemble_report(cfg.kind, first, second, u, labeled=labeled,
                            log_weight=lambda tuples: -(tuples @ betas),
                            work_value=lambda changes: changes.sum(axis=2))


def microcanonical_model(cfg: MicrocanonicalConfig, u: np.ndarray) -> EnsembleReport:
    """Fluctuation identity for Gaussian energy-window (microcanonical-like) states.

    The window weight is exp(-((energy - E)/width)^2); its log total
    -f(t) = ln sum_i exp(...) d(i) plays the free-energy role and the
    identity reads  < exp(-X) > = 1  with
    X = ((energy - E_j(t1))/width)^2 - ((energy - E_i(t0))/width)^2 - df.
    """
    def labeled(log_norm0, log_norm1, mean_changes):
        return {
            "energy": float(cfg.energy),
            "width": float(cfg.width),
            "log_window_norm_t0": log_norm0,
            "log_window_norm_t1": log_norm1,
            # f(t) = -ln norm(t); df enters the exponent with a minus sign
            "delta_f": log_norm0 - log_norm1,
        }

    return _assemble_report(cfg.kind, joint_diagonalize([cfg.h_t0]), joint_diagonalize([cfg.h_t1]),
                            u, labeled=labeled,
                            log_weight=lambda tuples: -(((cfg.energy - tuples[:, 0]) / cfg.width) ** 2),
                            work_value=lambda changes: changes[:, :, 0])


def grand_canonical_model(cfg: GrandCanonicalConfig, u: np.ndarray) -> EnsembleReport:
    """Fermionic grand canonical identity  < exp(-beta (dE - mu dN - dOmega)) > = 1.

    Both families measure (H(t), N) on the 2^M Fock space; the grand
    potential Omega(t) = -ln Tr exp(beta (mu N - H(t))) / beta is reported
    at both times along with <dE>, <dN> and the Jensen combination.

    H(t) conserves N, so a family is a direct sum over number sectors: one ``eigh`` per
    sector block, cut where the sorted eigenvalues jump by more than ``GROUP_TOL`` max(1, max|H|).
    Outcomes are N-major, energies ascending, with tuples (mean eigenvalue of the cut, N).  Cost:
    sum_N C(M, N)^3 for the blocks and a few dim^3 products to check H and N.
    """
    def labeled(log_norm0, log_norm1, mean_changes):
        omega0, omega1 = -log_norm0 / cfg.beta, -log_norm1 / cfg.beta
        mean_de, mean_dn = mean_changes
        return {
            "beta": float(cfg.beta),
            "mu": float(cfg.mu),
            "omega_t0": omega0,
            "omega_t1": omega1,
            "delta_omega": omega1 - omega0,
            "mean_delta_energy": mean_de,
            "mean_delta_number": mean_dn,
            "jensen_combination": float(cfg.beta * (mean_de - cfg.mu * mean_dn - (omega1 - omega0))),
        }

    return _assemble_report(cfg.kind, _sector_family(cfg.h_t0), _sector_family(cfg.h_t1), u, labeled=labeled,
                            log_weight=lambda tuples: cfg.beta * (cfg.mu * tuples[:, 1] - tuples[:, 0]),
                            work_value=lambda changes: changes[:, :, 0])


def periodic_thermo_model(cfg: PeriodicThermoConfig, u: np.ndarray) -> EnsembleReport:
    """Quasi-energy/bath-heat identity  < exp(-theta e - beta q) > = 1.

    The system part has rank-one quasi-energy projections (validated by
    the config); the bath is canonical at beta.  Both families measure
    the same pair (quasi-energy, bath energy), so the normalization
    offset vanishes and the exponent is exactly theta*e + beta*q.  The
    family is the :func:`product_family` of the system and bath spectra.
    """
    family = product_family([joint_diagonalize([np.diag(np.asarray(cfg.quasi_energies, dtype=float))]),
                             joint_diagonalize([cfg.bath_hamiltonian])])

    def labeled(log_norm0, log_norm1, mean_changes):
        mean_e, mean_q = mean_changes
        return {
            "theta": float(cfg.theta),
            "beta": float(cfg.beta),
            "mean_quasi_energy_change": mean_e,
            "mean_bath_heat": mean_q,
            "jensen_combination": float(cfg.theta * mean_e + cfg.beta * mean_q),
        }

    return _assemble_report(cfg.kind, family, family, u, labeled=labeled,
                            log_weight=lambda tuples: -cfg.theta * tuples[:, 0] - cfg.beta * tuples[:, 1],
                            work_value=lambda changes: changes[:, :, 0])


# one registry: config class -> generator; each config class names its JSON kind
GENERATORS = {
    LocalCanonicalConfig: local_canonical_model,
    MicrocanonicalConfig: microcanonical_model,
    GrandCanonicalConfig: grand_canonical_model,
    PeriodicThermoConfig: periodic_thermo_model,
}


def config_from_json_dict(data: dict):
    kinds = {cls.kind: cls for cls in GENERATORS}
    kind = data.get("kind")
    if kind not in kinds:
        raise ValidationError(f"unknown ensemble kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind].from_json_dict(data)


def generate(config, u: np.ndarray) -> EnsembleReport:
    """Dispatch a config object to its generator."""
    generator = GENERATORS.get(type(config))
    if generator is None:
        raise ValidationError(f"unsupported config type {type(config).__name__}")
    return generator(config, u)
