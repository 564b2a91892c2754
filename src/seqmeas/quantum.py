"""Quantum realization of the two-measurement statistical model.

A "measurement" here is the projective measurement of a finite family of
commuting Hermitian operators.  The joint eigenprojections of the family
define the outcomes, their traces the cell sizes, and for a pair of such
families linked by a unitary evolution the physical conditional

    pi(j|i) = Tr(Q_j U P_i U*) / d(i)

is automatically modified doubly stochastic, which is what powers the
fluctuation identities in :mod:`seqmeas.model`.

The module covers: joint diagonalization of commuting families, density
operators that are functions of a family (stationary ensembles), Lueders
measurement statistics, protocol evolution, POVM bookkeeping for the
two-time statistics, an exactly solvable one-qubit purity curve, and
time-reversal symmetry diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import JointModel, PreconditionError, ValidationError

# Operator-level tolerances (scaled by operator norms where sensible).
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-11
COMMUTATOR_TOL = 1e-10
PROJECTION_TOL = 1e-10
GROUP_TOL = 1e-9
ASSUMPTION2_TOL = 1e-10
# Fixed seed for the generic linear combination used in joint diagonalization.
_COMBO_SEED = 71804279


def _as_square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} has non-finite entries")
    return m


def require_hermitian(a, name: str = "operator", tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = _as_square(a, name)
    scale = max(1.0, float(np.abs(m).max()))
    dev = float(np.abs(m - m.conj().T).max())
    if dev > tol * scale:
        raise ValidationError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return m


def require_unitary(u, name: str = "U", tol: float = UNITARITY_TOL) -> np.ndarray:
    m = _as_square(u, name)
    dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
    if dev > tol:
        raise ValidationError(f"{name} is not unitary (deviation {dev:.3e})")
    return m


def require_density(rho, name: str = "rho", tol: float = 1e-11) -> np.ndarray:
    m = require_hermitian(rho, name, tol)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol * m.shape[0]:
        raise ValidationError(f"{name} has trace {tr}, expected 1")
    w = np.linalg.eigvalsh(m)
    if w.min() < -tol * 10:
        raise ValidationError(f"{name} has negative eigenvalue {w.min():.3e}")
    return m


@dataclass(frozen=True)
class SpectralFamily:
    """Joint eigenstructure of finitely many commuting Hermitian operators.

    ``basis`` is a unitary whose columns are grouped by outcome: outcome k
    owns ``degeneracies[k]`` consecutive columns, which span the k-th
    joint eigenspace, and its eigenvalue tuple is ``eigen_tuples[k]`` (one
    entry per operator).  The decomposition is maximal: distinct outcomes
    have distinct tuples.
    """

    basis: np.ndarray         # (dim, dim) complex, columns grouped by outcome
    eigen_tuples: np.ndarray  # (n_outcomes, n_operators) float
    degeneracies: np.ndarray  # (n_outcomes,) int
    group_tol: float = GROUP_TOL

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        tuples = np.asarray(self.eigen_tuples, dtype=float)
        degs = np.asarray(self.degeneracies).astype(np.int64)
        if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
            raise ValidationError(f"basis must be (dim, dim), got {basis.shape}")
        if tuples.ndim != 2 or degs.shape != (tuples.shape[0],):
            raise ValidationError("eigen_tuples and degeneracies must align")
        dim = basis.shape[0]
        if np.any(degs < 1) or int(degs.sum()) != dim:
            raise ValidationError(f"degeneracy counts must be positive and sum to dim = {dim}")
        dev = float(np.abs(basis.conj().T @ basis - np.eye(dim)).max())
        if dev > PROJECTION_TOL:
            raise ValidationError(f"basis is not orthonormal: |V*V - identity| = {dev:.3e}")
        close = (np.abs(tuples[:, None, :] - tuples[None, :, :]) <= self.group_tol).all(axis=2)
        pairs = np.argwhere(np.triu(close, 1))
        if pairs.size:
            a, b = pairs[0]
            raise ValidationError(f"outcomes {a}, {b} share the eigenvalue tuple (not maximal)")
        for arr in (basis, tuples, degs):
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigen_tuples", tuples)
        object.__setattr__(self, "degeneracies", degs)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.degeneracies.shape[0]

    @property
    def n_operators(self) -> int:
        return self.eigen_tuples.shape[1]

    @property
    def starts(self) -> np.ndarray:
        """First basis column of every outcome (the ``np.add.reduceat`` indices)."""
        return np.cumsum(self.degeneracies) - self.degeneracies

    @property
    def projections(self) -> np.ndarray:
        """The (n_outcomes, dim, dim) eigenprojections, built on demand from ``basis``."""
        return np.array([v @ v.conj().T for v in np.split(self.basis, self.starts[1:], axis=1)])

    def labels(self) -> tuple:
        return tuple(tuple(float(x) for x in row) for row in self.eigen_tuples)

    def operator(self, k: int) -> np.ndarray:
        """Reconstruct the k-th operator of the family from its spectral data."""
        return (self.basis * np.repeat(self.eigen_tuples[:, k], self.degeneracies)) @ self.basis.conj().T

    def to_csv(self) -> str:
        """CSV with columns index,E_1..E_L,d (17 significant digits)."""
        L = self.n_operators
        header = "index," + ",".join(f"E_{k+1}" for k in range(L)) + ",d"
        lines = [header]
        for a in range(self.n_outcomes):
            vals = ",".join(format(float(x), ".17g") for x in self.eigen_tuples[a])
            lines.append(f"{a},{vals},{int(self.degeneracies[a])}")
        return "\n".join(lines) + "\n"


def joint_diagonalize(
    ops: Sequence[np.ndarray],
    group_tol: float = GROUP_TOL,
    commutator_tol: float = COMMUTATOR_TOL,
) -> SpectralFamily:
    """Maximal joint eigendecomposition of commuting Hermitian operators.

    Strategy: diagonalize a fixed-seed random linear combination of the
    family (generically this already separates the joint eigenspaces),
    then refine the candidate blocks operator by operator so that exact
    or accidental degeneracies are grouped correctly.  Eigenvalue tuples
    are grouped with absolute tolerance ``group_tol`` scaled per operator.

    Raises
    ------
    PreconditionError
        If some pair of operators fails to commute within tolerance.
    """
    mats = [require_hermitian(a, f"ops[{k}]") for k, a in enumerate(ops)]
    if not mats:
        raise ValidationError("need at least one operator")
    dim = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValidationError(f"ops[{k}] has dimension {m.shape[0]}, expected {dim}")
    scales = [max(1.0, float(np.abs(m).max())) for m in mats]
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            dev = float(np.abs(comm).max())
            if dev > commutator_tol * scales[a] * scales[b]:
                raise PreconditionError(f"ops[{a}] and ops[{b}] do not commute (|[A,B]| = {dev:.3e})")

    rng = np.random.default_rng(_COMBO_SEED)
    coeffs = rng.standard_normal(len(mats))
    combo = sum(c / s * m for c, s, m in zip(coeffs, scales, mats))
    _, basis = np.linalg.eigh(combo)

    # refine: within each block of consecutive columns, diagonalize each
    # operator and cut the block where its sorted eigenvalues jump
    bounds = [0, dim]
    for m, s in zip(mats, scales):
        refined = [0]
        for a, b in zip(bounds[:-1], bounds[1:]):
            sub = basis[:, a:b]
            w, v = np.linalg.eigh(sub.conj().T @ m @ sub)
            basis[:, a:b] = sub @ v
            refined.extend(a + 1 + np.flatnonzero(np.diff(w) > group_tol * s))
            refined.append(b)
        bounds = refined
    sizes = np.diff(bounds)
    # per-block sums of each operator's diagonal in the refined basis; the
    # unpathed einsum sums every column in one fixed order, so a tuple's last
    # bits do not depend on how BLAS blocks a product of this dimension
    sums = np.stack([np.add.reduceat(np.einsum("ia,ij,ja->a", basis.conj(), m, basis).real, bounds[:-1])
                     for m in mats], axis=1)
    tuples = sums / sizes[:, None]

    # merge any blocks whose refined tuples coincide (keeps maximality exact)
    order = np.lexsort(tuples.T[::-1])
    tol = group_tol * np.array(scales)
    heads: list[int] = []  # positions in ``order`` where an outcome starts
    for pos, gi in enumerate(order):
        if not heads or np.any(np.abs(tuples[order[heads[-1]]] - tuples[gi]) > tol):
            heads.append(pos)
    degs = np.add.reduceat(sizes[order], heads)
    column_rank = np.repeat(np.argsort(order), sizes)  # merged position of each column's block

    fam = SpectralFamily(basis=basis[:, np.argsort(column_rank, kind="stable")],
                         eigen_tuples=np.add.reduceat(sums[order], heads) / degs[:, None],
                         degeneracies=degs, group_tol=group_tol)
    for k, (m, s) in enumerate(zip(mats, scales)):
        dev = float(np.abs(fam.operator(k) - m).max())
        if dev > 100 * group_tol * s:
            raise ValidationError(f"ops[{k}] is not reconstructed by its spectral data (deviation {dev:.3e})")
    return fam


@dataclass(frozen=True)
class EnsembleState:
    """Density operator that is a positive function of a spectral family.

    ``rho = sum_i g(E_i) P_i`` with the weight function normalized
    internally; ``norm_constant`` records the normalization
    ``sum_i g_raw(E_i) d(i)`` (a partition-function-like quantity).
    ``cell_weights`` are the normalized per-microstate weights g(E_i),
    and ``probabilities`` the outcome probabilities g(E_i) d(i).
    """

    rho: np.ndarray
    cell_weights: np.ndarray
    probabilities: np.ndarray
    norm_constant: float
    family: SpectralFamily


def ensemble_state(family: SpectralFamily, weight_fn: Callable[..., float]) -> EnsembleState:
    """Build the stationary state  rho ~ sum_i weight_fn(*E_i) P_i  (normalized).

    Raises
    ------
    PreconditionError
        If a weight is negative/non-finite or the total weight underflows
        to zero (shift the spectra before exponentiating in that case).
    """
    raw = np.array([float(weight_fn(*tup)) for tup in family.eigen_tuples])
    if not np.all(np.isfinite(raw)):
        k = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise PreconditionError(f"weight at outcome {k} is not finite; rescale the weight function")
    if np.any(raw < 0):
        k = int(np.argmin(raw))
        raise PreconditionError(f"weight at outcome {k} is negative ({raw[k]:.3e})")
    norm = float(np.sum(raw * family.degeneracies))
    if norm <= 0.0:
        raise PreconditionError("total weight underflowed to zero; shift the spectra before exponentiating")
    g = raw / norm
    rho = (family.basis * np.repeat(g, family.degeneracies)) @ family.basis.conj().T
    return EnsembleState(
        rho=rho,
        cell_weights=g,
        probabilities=g * family.degeneracies,
        norm_constant=norm,
        family=family,
    )


def luders_probabilities(rho: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """Outcome probabilities  p(i) = Tr(rho P_i): segment sums of diag(V* rho V)."""
    rho = require_density(rho)
    v = family.basis
    p = np.add.reduceat(np.einsum("ia,ia->a", v.conj(), rho @ v).real, family.starts)
    if p.min() < -1e-11:
        raise ValidationError(f"negative probability {p.min():.3e} (rho not PSD?)")
    return np.clip(p, 0.0, None)


def _outcome_blocks(rho: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """V* rho V in the family basis with every entry outside the outcome blocks zeroed."""
    label = np.repeat(np.arange(family.n_outcomes), family.degeneracies)
    v = family.basis
    return np.where(label[:, None] == label[None, :], v.conj().T @ rho @ v, 0.0)


def luders_post_state(rho: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """Non-selective post-measurement state  sum_i P_i rho P_i: O(dim^3), O(dim^2) extra."""
    rho = require_density(rho)
    return family.basis @ _outcome_blocks(rho, family) @ family.basis.conj().T


def check_assumption2(rho: np.ndarray, family: SpectralFamily,
                      tol: float = ASSUMPTION2_TOL) -> tuple[bool, float]:
    """Check that every selective post-state is maximally mixed on its cell.

    The condition is  P_i rho P_i = (p(i)/d(i)) P_i  for every outcome;
    it holds exactly when rho is a function of the measured family.
    Returns (verdict, worst deviation), where the deviation of outcome i is
    the Frobenius norm of  P_i rho P_i - (p(i)/d(i)) P_i,  computed on its
    block of the family basis; it bounds every entry's absolute deviation.
    """
    rho = require_density(rho)
    p = luders_probabilities(rho, family)
    dev = _outcome_blocks(rho, family) - np.diag(np.repeat(p / family.degeneracies, family.degeneracies))
    worst = float(np.sqrt(np.add.reduceat(np.sum(np.abs(dev) ** 2, axis=1), family.starts).max()))
    return worst <= tol, worst


def hermitian_function(h: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via eigendecomposition."""
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * fn(w)[None, :]) @ v.conj().T


def evolve(protocol: Sequence[tuple[np.ndarray, float]], dim: int | None = None) -> np.ndarray:
    """Unitary generated by a piecewise-constant Hamiltonian protocol.

    ``protocol`` is a sequence of (H, duration) segments applied in order;
    the result is  U = exp(-i H_n t_n) ... exp(-i H_1 t_1)  (hbar = 1).
    An empty protocol yields the identity (``dim`` required then).
    """
    segments = list(protocol)
    if not segments:
        if dim is None:
            raise ValidationError("empty protocol needs an explicit dimension")
        return np.eye(dim, dtype=complex)
    u = None
    for k, (h, tau) in enumerate(segments):
        h = require_hermitian(h, f"protocol[{k}].H")
        if not np.isfinite(tau):
            raise ValidationError(f"protocol[{k}] has non-finite duration")
        step = hermitian_function(h, lambda w: np.exp(-1j * w * float(tau)))
        u = step if u is None else step @ u
    return u


def reversed_protocol(protocol: Sequence[tuple[np.ndarray, float]]) -> list[tuple[np.ndarray, float]]:
    """Time-reversed protocol: same segments traversed in opposite order."""
    return [(h, tau) for h, tau in reversed(list(protocol))]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix).

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than QR-convention-dependent.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]


def _two_time_traces(u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> np.ndarray:
    """t[i, j] = Tr(Q_j U P_i U*): the (i, j) block sums of |V* U* W|^2, with V and W
    the two family bases; two GEMMs, O(dim^3) time and O(dim^2) extra memory."""
    amp = np.abs(first.basis.conj().T @ (u.conj().T @ second.basis)) ** 2
    return np.add.reduceat(np.add.reduceat(amp, first.starts, axis=0), second.starts, axis=1)


def physical_conditional(u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> np.ndarray:
    """Conditional  pi(j|i) = Tr(Q_j U P_i U*) / d(i)  of the two-time experiment.

    Row-stochastic for any unitary; modified doubly stochastic with the
    cell sizes d = Tr P, D = Tr Q (the trace identity sum_i U P_i U* = 1).
    Costs O(dim^3) and O(dim^2) extra memory.
    """
    u = require_unitary(u)
    if first.dim != u.shape[0] or second.dim != u.shape[0]:
        raise ValidationError("families and unitary must share one dimension")
    return _two_time_traces(u, first, second) / first.degeneracies[:, None]


def povm_elements(u: np.ndarray, first: SpectralFamily, second: SpectralFamily,
                  completeness_tol: float | None = 1e-11) -> np.ndarray:
    """Two-time POVM  F(i, j) = P_i U* Q_j U P_i  on the initial space.

    Each element is positive semidefinite and the family sums to the
    identity (enforced within ``completeness_tol`` unless None); together
    they reproduce the joint probabilities via p(i, j) = Tr(rho F(i, j))
    whenever the initial state satisfies the cell-uniformity assumption
    checked by :func:`check_assumption2`.  With  Z_i = W* U V_i V_i*  (V, W
    the family bases, V_i the columns of outcome i), F(i, j) is the Gram
    matrix of the rows of Z_i in outcome block j.  Costs O(k1 dim^3); beyond
    the (k1, k2, dim, dim) result, a few dim x dim matrices are live at a time.
    """
    u = require_unitary(u)
    f = np.empty((first.n_outcomes, second.n_outcomes, u.shape[0], u.shape[0]), dtype=complex)
    w_dag_u = second.basis.conj().T @ u
    blocks = [slice(a, a + d) for a, d in zip(second.starts.tolist(), second.degeneracies.tolist())]
    for i, v in enumerate(np.split(first.basis, first.starts[1:], axis=1)):
        z = (w_dag_u @ v) @ v.conj().T
        z_dag = z.conj().T
        for j, rows in enumerate(blocks):
            np.matmul(z_dag[:, rows], z[rows], out=f[i, j])
    if completeness_tol is not None:
        dev = povm_completeness_deviation(f)
        if dev > completeness_tol:
            raise ValidationError(f"POVM does not resolve the identity (deviation {dev:.3e})")
    return f


def povm_completeness_deviation(elements: np.ndarray) -> float:
    """Max-entry deviation of  sum_{i,j} F(i,j)  from the identity."""
    total = np.asarray(elements).sum(axis=(0, 1))
    return float(np.abs(total - np.eye(total.shape[0])).max())


def hypothetical_distribution(second: SpectralFamily, weight_fn: Callable[..., float]) -> tuple[np.ndarray, float]:
    """Reference distribution  q(j) = D(j) g(F_j) / norm  on the second outcomes.

    ``norm = sum_j D(j) g_raw(F_j)`` is returned alongside; it is the
    second-time partition-function-like constant that links the abstract
    expectation identity to free-energy-style statements.
    """
    state = ensemble_state(second, weight_fn)
    return state.probabilities, state.norm_constant


def build_joint_model(
    rho: np.ndarray,
    u: np.ndarray,
    first: SpectralFamily,
    second: SpectralFamily,
    weight_fn: Callable[..., float] | None = None,
    as2_tol: float = ASSUMPTION2_TOL,
    probabilities: np.ndarray | None = None,
) -> tuple[JointModel, np.ndarray | None]:
    """Joint two-time outcome table of (rho, U, first family, second family).

    The initial state must satisfy the cell-uniformity assumption with
    respect to the first family (checked; PreconditionError otherwise)
    and must give every first outcome positive probability.  When a
    weight function is supplied the matching hypothetical distribution q
    on the second outcomes is returned as well (else None).

    ``probabilities`` short-circuits the Lüders trace: callers that built
    rho from known weights should pass them, because the trace only
    recovers small probabilities to absolute (not relative) precision.
    """
    rho = require_density(rho)
    ok, dev = check_assumption2(rho, first, as2_tol)
    if not ok:
        raise PreconditionError(
            f"initial state violates cell uniformity on the first family (deviation {dev:.3e} > {as2_tol:g})"
        )
    if probabilities is None:
        p = luders_probabilities(rho, first)
    else:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (first.n_outcomes,):
            raise ValidationError(
                f"probabilities shape {p.shape} does not match {first.n_outcomes} outcomes"
            )
        trace_dev = float(np.abs(p - luders_probabilities(rho, first)).max())
        if trace_dev > 1e-10:
            raise ValidationError(
                f"supplied probabilities disagree with the state (deviation {trace_dev:.3e})"
            )
    if p.min() <= 0.0:
        k = int(np.argmin(p))
        raise PreconditionError(f"first outcome {k} has probability {p[k]:.3e}; all must be positive")
    pi = physical_conditional(u, first, second)
    table = p[:, None] * pi
    table = table / table.sum()
    model = JointModel(
        p_table=table,
        d=first.degeneracies,
        D=second.degeneracies,
        labels_i=first.labels(),
        labels_j=second.labels(),
    )
    if weight_fn is None:
        return model, None
    q, _ = hypothetical_distribution(second, weight_fn)
    return model, q


@dataclass(frozen=True)
class TimeReversalReport:
    """Diagnostics of the detailed-balance-like symmetry pi(j|i) d(i) = pi(i|j) D(j)."""

    max_asymmetry: float
    symmetric: bool
    families_real: bool
    u_symmetric: bool
    preconditions_hold: bool


def time_reversal_symmetry_check(
    u: np.ndarray,
    first: SpectralFamily,
    second: SpectralFamily,
    tol: float = 1e-11,
) -> TimeReversalReport:
    """Compare the weighted conditional with its role-reversed counterpart.

    The check compares  Tr(Q_j U P_i U*)  against  Tr(P_i U Q_j U*).
    Equality holds whenever all projections are real and U is symmetric
    (transposition-invariant), which is the complex-conjugation
    time-reversal scenario of palindromic real protocols; outside those
    preconditions the asymmetry is still reported as a diagnostic and may
    legitimately be large.  The backward table is the forward kernel with
    U* in place of U; both cost O(dim^3).
    """
    u = require_unitary(u)
    fwd = _two_time_traces(u, first, second)
    bwd = _two_time_traces(u.conj().T, first, second)
    asym = float(np.abs(fwd - bwd).max())
    families_real = bool(
        np.abs(first.projections.imag).max() <= tol and np.abs(second.projections.imag).max() <= tol
    )
    u_symmetric = bool(np.abs(u - u.T).max() <= tol)
    return TimeReversalReport(asym, asym <= tol, families_real, u_symmetric,
                              families_real and u_symmetric)


@dataclass(frozen=True)
class BlochCurvePoint:
    """One-qubit state of fixed diagonal and varying coherence, with its entropy data.

    For  rho = [[p, z], [conj(z), 1 - p]]  with  z = lam * exp(i alpha),
    the eigenvalues are (1 +- r)/2 with  r = sqrt(4 lam^2 + (1 - 2p)^2),
    the squared distance from the maximally mixed state is
    2 lam^2 - 2 p (1 - p) + 1/2, and the entropy decreases strictly in
    the coherence:  dS/d lam = -4 lam artanh(r) / r.
    """

    p: float
    lam: float
    alpha: float
    rho: np.ndarray
    eigenvalues: tuple[float, float]
    distance_sq: float
    entropy: float
    entropy_slope: float


def bloch_curve(p: float, lam: float, alpha: float = 0.0) -> BlochCurvePoint:
    """Evaluate the fixed-diagonal one-qubit curve at coherence ``lam``."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p = {p} must lie strictly between 0 and 1")
    lam_max = float(np.sqrt(p * (1.0 - p)))
    if lam < 0.0 or lam > lam_max + 1e-15:
        raise ValidationError(f"lam = {lam} outside [0, sqrt(p(1-p))] = [0, {lam_max}]")
    lam = min(lam, lam_max)
    z = lam * np.exp(1j * alpha)
    rho = np.array([[p, z], [np.conj(z), 1.0 - p]], dtype=complex)
    r = float(np.sqrt(4.0 * lam**2 + (1.0 - 2.0 * p) ** 2))
    p1, p2 = (1.0 + r) / 2.0, (1.0 - r) / 2.0
    dist_sq = 2.0 * lam**2 - 2.0 * p * (1.0 - p) + 0.5
    ent = 0.0
    for w in (p1, p2):
        if w > 0.0:
            ent -= w * np.log(w)
    if r >= 1.0:
        slope = -np.inf if lam > 0 else 0.0
    elif r == 0.0:
        slope = 0.0  # limit of -4 lam artanh(r)/r at p = 1/2, lam = 0
    else:
        slope = -4.0 * lam * np.arctanh(r) / r
    return BlochCurvePoint(
        p=float(p), lam=float(lam), alpha=float(alpha), rho=rho,
        eigenvalues=(p1, p2), distance_sq=float(dist_sq),
        entropy=float(ent), entropy_slope=float(slope),
    )


def operator_to_json_dict(a: np.ndarray) -> dict:
    """Serialize a complex matrix as {"dim", "re", "im"}."""
    m = _as_square(a, "operator")
    return {
        "dim": int(m.shape[0]),
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def operator_from_json_dict(data: dict) -> np.ndarray:
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros((dim, dim))), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"operator JSON claims dim {dim} but has shapes {re.shape}, {im.shape}")
    return re + 1j * im
