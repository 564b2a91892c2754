"""Quantum realization of the two-measurement statistical model.

A "measurement" here is the projective measurement of a finite family of
commuting Hermitian operators.  The joint eigenprojections of the family
define the outcomes, their traces the cell sizes, and for a pair of such
families linked by a unitary evolution the physical conditional

    pi(j|i) = Tr(Q_j U P_i U*) / d(i)

is automatically modified doubly stochastic, which is what powers the
fluctuation identities in :mod:`seqmeas.model`.

The module covers: joint diagonalization of commuting families and their
tensor products, stationary ensembles kept as their outcome probabilities p(i),
Lueders probabilities and the cell-uniformity check of a dense rho, protocol
evolution, POVM bookkeeping for the two-time statistics, an exactly
solvable one-qubit purity curve, and time-reversal symmetry diagnostics.
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
# Slack of the time-reversal diagnostics (asymmetry, real projections, U = U^T).
TIME_REVERSAL_TOL = 1e-11
# Slack of the two-time POVM's resolution of the identity.
POVM_COMPLETENESS_TOL = 1e-11


def _as_square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValidationError(f"{name} is an empty 0x0 matrix")
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
    have tuples more than ``GROUP_TOL`` apart.  The class keeps the order it
    is given; :func:`joint_diagonalize` lists outcomes with the first
    operator's clusters ascending, then the second's inside each, and so on.
    """

    basis: np.ndarray         # (dim, dim) complex, columns grouped by outcome
    eigen_tuples: np.ndarray  # (n_outcomes, n_operators) float
    degeneracies: np.ndarray  # (n_outcomes,) int

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
        close = (np.abs(tuples[:, None, :] - tuples[None, :, :]) <= GROUP_TOL).all(axis=2)
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
        return tuple(map(tuple, self.eigen_tuples.tolist()))

    def operator(self, k: int) -> np.ndarray:
        """Reconstruct the k-th operator of the family from its spectral data."""
        return (self.basis * np.repeat(self.eigen_tuples[:, k], self.degeneracies)) @ self.basis.conj().T


def joint_diagonalize(ops: Sequence[np.ndarray]) -> SpectralFamily:
    """Maximal joint eigendecomposition of commuting Hermitian operators.

    Strategy: one sequential refinement.  Start from the identity basis as a
    single block; for each operator in turn, diagonalize it inside every
    current block and cut the block where its sorted eigenvalues jump by
    more than ``GROUP_TOL`` times the operator's scale (its largest entry,
    at least one).  The final blocks are the joint eigenspaces.

    A tuple's ``ops[k]`` entry is the mean of the block eigenvalues over the cut
    of step k, so its last bits come from the ``eigh`` that also sets the basis.

    Order: outcomes come out in tolerance-lexicographic order of their
    eigenvalue tuples, ``ops[0]`` clusters ascending, ``ops[1]`` ascending
    inside each of them, and so on; rounding noise in the tuples does not
    reorder the outcomes of one cluster.  Maximality is guarded by
    :class:`SpectralFamily`, which rejects two outcomes whose tuples lie
    within ``GROUP_TOL`` of each other.

    Raises
    ------
    PreconditionError
        If some pair of operators fails to commute within ``COMMUTATOR_TOL``.
    ValidationError
        If an operator is not Hermitian, the dimensions differ, or the
        refined blocks are not maximal or do not reconstruct the operators.
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
            if dev > COMMUTATOR_TOL * scales[a] * scales[b]:
                raise PreconditionError(f"ops[{a}] and ops[{b}] do not commute (|[A,B]| = {dev:.3e})")

    basis = np.eye(dim, dtype=complex)
    bounds = [0, dim]
    means = np.empty((dim, len(mats)))  # every operator's cut mean at every basis column
    for k, (m, s) in enumerate(zip(mats, scales)):
        refined = [0]
        for a, b in zip(bounds[:-1], bounds[1:]):
            sub = basis[:, a:b]
            means[a:b, k], v = np.linalg.eigh(sub.conj().T @ m @ sub)
            basis[:, a:b] = sub @ v
            refined.extend(a + 1 + np.flatnonzero(np.diff(means[a:b, k]) > GROUP_TOL * s))
            refined.append(b)
        bounds = refined
        sizes = np.diff(bounds)
        means[:, k] = np.repeat(np.add.reduceat(means[:, k], bounds[:-1]) / sizes, sizes)
    fam = SpectralFamily(basis=basis, eigen_tuples=means[bounds[:-1]], degeneracies=sizes)
    for k, (m, s) in enumerate(zip(mats, scales)):
        dev = float(np.abs(fam.operator(k) - m).max())
        if dev > 100 * GROUP_TOL * s:
            raise ValidationError(f"ops[{k}] is not reconstructed by its spectral data (deviation {dev:.3e})")
    return fam


def product_family(factors: Sequence[SpectralFamily]) -> SpectralFamily:
    """Family of the factors' operators lifted onto their tensor product, with no dense lift.

    Kronecker basis of the factor bases, columns regrouped by product outcome with one stable
    argsort, factor 0 major (:func:`joint_diagonalize`'s order on the lifted operators); tuples
    are concatenated, degeneracies multiplied."""
    basis, labels, tuples, degs = np.ones((1, 1)), np.zeros(1, int), np.zeros((1, 0)), np.ones(1, int)
    for f in factors:
        basis, degs = np.kron(basis, f.basis), np.outer(degs, f.degeneracies).ravel()
        labels = (labels[:, None] * f.n_outcomes + np.repeat(np.arange(f.n_outcomes), f.degeneracies)).ravel()
        tuples = np.hstack([np.repeat(tuples, f.n_outcomes, axis=0), np.tile(f.eigen_tuples, (len(tuples), 1))])
    return SpectralFamily(basis[:, np.argsort(labels, kind="stable")], tuples, degs)


@dataclass(frozen=True)
class EnsembleState:
    """Outcome statistics of a state that is a function of a spectral family.

    rho = sum_i exp(w_i - log_norm) P_i  for log weights w_i is fixed by its outcome
    ``probabilities`` exp(w_i - log_norm) d(i), so it is never built; ``log_norm =
    ln sum_i exp(w_i) d(i)`` is the log of the partition-function-like normalization.
    """

    probabilities: np.ndarray
    log_norm: float


def ensemble_state(family: SpectralFamily, log_weights) -> EnsembleState:
    """Outcome probabilities of the stationary state  rho ~ sum_i exp(log_weights[i]) P_i.

    The weights are shifted by their maximum before exponentiating, so no
    weight overflows and the normalization is at least one; a log weight
    of -inf is a zero weight.  O(n_outcomes): no dim x dim matrix is formed.

    Raises
    ------
    ValidationError
        If ``log_weights`` does not hold one entry per outcome.
    PreconditionError
        If a log weight is NaN or +inf, or every weight is zero.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.shape != (family.n_outcomes,):
        raise ValidationError(f"log_weights shape {lw.shape} does not match {family.n_outcomes} outcomes")
    bad = np.isnan(lw) | (lw == np.inf)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise PreconditionError(f"log weight at outcome {k} is {lw[k]}; rescale the weight function")
    shift = float(lw.max())
    if shift == -math.inf:
        raise PreconditionError("every weight is zero (all log weights are -inf)")
    raw = np.exp(lw - shift)
    norm = float(np.sum(raw * family.degeneracies))
    return EnsembleState(probabilities=raw / norm * family.degeneracies, log_norm=shift + math.log(norm))


def luders_probabilities(rho: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """Outcome probabilities  p(i) = Tr(rho P_i): segment sums of diag(V* rho V)."""
    return _cell_uniformity(require_density(rho), family)[1]


def check_assumption2(rho: np.ndarray, family: SpectralFamily) -> tuple[bool, float]:
    """Check that every selective post-state is maximally mixed on its cell.

    The condition is  P_i rho P_i = (p(i)/d(i)) P_i  for every outcome;
    it holds exactly when rho is a function of the measured family.
    Returns (verdict, worst deviation), where the deviation of outcome i is
    the Frobenius norm of  P_i rho P_i - (p(i)/d(i)) P_i,  computed on its
    block of the family basis; it bounds every entry's absolute deviation.
    The verdict compares it with ``ASSUMPTION2_TOL``.
    """
    worst, _ = _cell_uniformity(require_density(rho), family)
    return worst <= ASSUMPTION2_TOL, worst


def _cell_uniformity(rho: np.ndarray, family: SpectralFamily) -> tuple[float, np.ndarray]:
    """Worst deviation of :func:`check_assumption2` and the Lüders probabilities of a
    validated rho, both read off  V* rho V  (its outcome blocks stand for P_i rho P_i).
    Only callers that hold a dense rho reach it; the ensemble path starts from p(i)."""
    v = family.basis
    m = v.conj().T @ rho @ v
    p = np.add.reduceat(np.diagonal(m).real, family.starts)
    if p.min() < -1e-11:
        raise ValidationError(f"negative probability {p.min():.3e} (rho not PSD?)")
    p = np.clip(p, 0.0, None)
    dev = _outcome_blocks(m, family) - np.diag(np.repeat(p / family.degeneracies, family.degeneracies))
    return float(np.sqrt(np.add.reduceat(np.sum(np.abs(dev) ** 2, axis=1), family.starts).max())), p


def _outcome_blocks(m: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """m with every entry outside the family's (outcome, outcome) blocks set to 0."""
    label = np.repeat(np.arange(family.n_outcomes), family.degeneracies)
    return np.where(label[:, None] == label[None, :], m, 0.0)


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


def _povm_gram_factors(u: np.ndarray, first: SpectralFamily, second: SpectralFamily):
    """Yield (i, j, Z*, Z) with  F(i, j) = Z* @ Z  for every pair of outcomes.

    With  Z_i = W* U V_i V_i*  (V, W the family bases, V_i the columns of
    outcome i), F(i, j) is the Gram matrix of the rows of Z_i in outcome
    block j; the yielded factors are views of Z_i and its adjoint.
    """
    w_dag_u = second.basis.conj().T @ u
    blocks = [slice(a, a + d) for a, d in zip(second.starts.tolist(), second.degeneracies.tolist())]
    for i, v in enumerate(np.split(first.basis, first.starts[1:], axis=1)):
        z = (w_dag_u @ v) @ v.conj().T
        z_dag = z.conj().T
        for j, rows in enumerate(blocks):
            yield i, j, z_dag[:, rows], z[rows]


def povm_elements(u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> np.ndarray:
    """Two-time POVM  F(i, j) = P_i U* Q_j U P_i  on the initial space.

    Each element is positive semidefinite and the family sums to the
    identity (enforced within ``POVM_COMPLETENESS_TOL``); together they
    reproduce the joint probabilities via p(i, j) = Tr(rho F(i, j))
    whenever the initial state satisfies the cell-uniformity assumption
    checked by :func:`check_assumption2`.  Costs O(k1 dim^3); beyond the
    (k1, k2, dim, dim) result, a few dim x dim matrices are live at a time.
    """
    u = require_unitary(u)
    f = np.empty((first.n_outcomes, second.n_outcomes, u.shape[0], u.shape[0]), dtype=complex)
    for i, j, z_dag, z in _povm_gram_factors(u, first, second):
        np.matmul(z_dag, z, out=f[i, j])
    dev = povm_completeness_deviation(f)
    if dev > POVM_COMPLETENESS_TOL:
        raise ValidationError(f"POVM does not resolve the identity (deviation {dev:.3e})")
    return f


def povm_completeness_deviation(elements: np.ndarray) -> float:
    """Max-entry deviation of  sum_{i,j} F(i,j)  from the identity."""
    total = np.asarray(elements).sum(axis=(0, 1))
    return float(np.abs(total - np.eye(total.shape[0])).max())


def streamed_completeness_deviation(u: np.ndarray, first: SpectralFamily,
                                    second: SpectralFamily) -> float:
    """:func:`povm_completeness_deviation` of :func:`povm_elements` without the
    (k1, k2, dim, dim) stack.  The sum over j of P_i U* Q_j U P_i is P_i U* W W* U P_i,
    so the total is  V mask(A* A) V*  with A = W* U V (V, W the family bases) and the
    mask keeping the first family's outcome blocks: five dim x dim products, no loop."""
    u = require_unitary(u)
    v = first.basis
    a = second.basis.conj().T @ (u @ v)
    total = v @ _outcome_blocks(a.conj().T @ a, first) @ v.conj().T
    return float(np.abs(total - np.eye(u.shape[0])).max())


def build_joint_model(p, u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> JointModel:
    """Joint two-time outcome table  P(i, j) = p(i) pi(j|i)  of a state that is a function
    of the first family, with first-outcome probabilities ``p``.

    Such a state satisfies the cell-uniformity assumption (:func:`check_assumption2`)
    by construction and is fixed by ``p``, so no density matrix is needed; a caller
    that holds a dense rho checks it with :func:`check_assumption2` and reads
    ``p`` off :func:`luders_probabilities`.  Every p(i) must be positive.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (first.n_outcomes,):
        raise ValidationError(f"probabilities shape {p.shape} does not match {first.n_outcomes} outcomes")
    if p.min() <= 0.0:
        k = int(np.argmin(p))
        raise PreconditionError(f"first outcome {k} has probability {p[k]:.3e}; all must be positive")
    table = p[:, None] * physical_conditional(u, first, second)
    return JointModel(
        p_table=table / table.sum(),
        d=first.degeneracies,
        D=second.degeneracies,
        labels_i=first.labels(),
        labels_j=second.labels(),
    )


@dataclass(frozen=True)
class TimeReversalReport:
    """Diagnostics of the detailed-balance-like symmetry pi(j|i) d(i) = pi(i|j) D(j)."""

    max_asymmetry: float
    symmetric: bool
    families_real: bool
    u_symmetric: bool
    preconditions_hold: bool


def time_reversal_symmetry_check(u: np.ndarray, first: SpectralFamily,
                                 second: SpectralFamily) -> TimeReversalReport:
    """Compare the weighted conditional with its role-reversed counterpart.

    The check compares  Tr(Q_j U P_i U*)  against  Tr(P_i U Q_j U*).
    Equality holds whenever all projections are real and U is symmetric
    (transposition-invariant), which is the complex-conjugation
    time-reversal scenario of palindromic real protocols; outside those
    preconditions the asymmetry is still reported as a diagnostic and may
    legitimately be large.  The backward table is the forward kernel with
    U* in place of U; both cost O(dim^3).  Projections are tested for
    realness one outcome block V_k V_k* at a time, in O(dim^2) extra memory.
    All comparisons use ``TIME_REVERSAL_TOL``.
    """
    u = require_unitary(u)
    fwd = _two_time_traces(u, first, second)
    bwd = _two_time_traces(u.conj().T, first, second)
    asym = float(np.abs(fwd - bwd).max())
    families_real = all(np.abs((v @ v.conj().T).imag).max() <= TIME_REVERSAL_TOL
                        for fam in (first, second)
                        for v in np.split(fam.basis, fam.starts[1:], axis=1))
    u_symmetric = bool(np.abs(u - u.T).max() <= TIME_REVERSAL_TOL)
    return TimeReversalReport(asym, asym <= TIME_REVERSAL_TOL, families_real, u_symmetric,
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
    """Inverse of :func:`operator_to_json_dict`; ``im`` may be left out."""
    missing = [key for key in ("dim", "re") if key not in data]
    if missing:
        raise ValidationError(f"operator JSON lacks {' and '.join(map(repr, missing))}")
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros((dim, dim))), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"operator JSON claims dim {dim} but has shapes {re.shape}, {im.shape}")
    return re + 1j * im
