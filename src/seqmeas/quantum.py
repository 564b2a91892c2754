"""Quantum realization of the two-measurement statistical model.

A "measurement" here is the projective measurement of a Hermitian operator,
or of a few commuting ones (a Hamiltonian with a conserved number, or the
factors of a tensor product).  The joint eigenprojections of the family
define the outcomes, their traces the cell sizes, and for a pair of such
families linked by a unitary evolution the physical conditional

    pi(j|i) = Tr(Q_j U P_i U*) / d(i)

is automatically modified doubly stochastic, which is what powers the
fluctuation identities in :mod:`seqmeas.model`.

The module covers: spectral families of one Hamiltonian, optionally split
by the sectors of a conserved diagonal number, and their tensor products,
for one model or a stack of same-shape models (a leading model axis),
stationary ensembles kept as their outcome probabilities p(i), the
cell-uniformity check of a dense rho, and POVM bookkeeping for the
two-time statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (JointModel, PreconditionError, ValidationError, require_alike, require_count, require_each,
                    validated)

# Operator-level tolerances (scaled by operator norms where sensible).
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-11
PROJECTION_TOL = 1e-10
GROUP_TOL = 1e-9
ASSUMPTION2_TOL = 1e-10
# Slack of the two-time POVM's resolution of the identity.
POVM_COMPLETENESS_TOL = 1e-11
# Slack of a density matrix's Hermiticity and trace (and, times 10, of its eigenvalues).
DENSITY_TOL = 1e-11


def _as_square(a, name: str) -> np.ndarray:
    """A finite complex square matrix, or a stack of them (leading model axes)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValidationError(f"{name} is an empty 0x0 matrix")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite entries")
    return m


def one_matrix(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` if it is one matrix, not a stack of them (for the single-model functions)."""
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def require_hermitian(a, name: str = "operator", tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = _as_square(a, name)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    dev = np.abs(m - _adjoint(m)).max(axis=(-2, -1))
    require_each(dev <= tol * scale, ValidationError,
                 lambda b: f"{name} is not Hermitian (deviation {dev[b]:.3e})")
    return m


def require_unitary(u) -> np.ndarray:
    m = _as_square(u, "U")
    dev = np.abs(_adjoint(m) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    require_each(dev <= UNITARITY_TOL, ValidationError, lambda b: f"U is not unitary (deviation {dev[b]:.3e})")
    return m


def require_density(rho) -> np.ndarray:
    m = one_matrix(require_hermitian(rho, "rho", DENSITY_TOL), "rho")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > DENSITY_TOL * m.shape[0]:
        raise ValidationError(f"rho has trace {tr}, expected 1")
    w = np.linalg.eigvalsh(m)
    if w.min() < -DENSITY_TOL * 10:
        raise ValidationError(f"rho has negative eigenvalue {w.min():.3e}")
    return m


@dataclass(frozen=True)
class SpectralFamily:
    """Joint eigenstructure of a few commuting Hermitian operators.

    ``basis`` is a unitary whose columns are grouped by outcome: outcome k
    owns ``degeneracies[k]`` consecutive columns, which span the k-th
    joint eigenspace, and its eigenvalue tuple is ``eigen_tuples[k]`` (one
    entry per operator).  The decomposition is maximal: distinct outcomes
    have tuples more than ``GROUP_TOL`` apart.  The class keeps the order it
    is given: :func:`joint_diagonalize` lists (h[, N]) outcomes sector-major
    with h ascending inside each sector, and :func:`product_family` lists
    the factors' outcomes with factor 0 major.  A stack of families of B
    models with the same degeneracies carries a leading model axis on
    ``basis`` and ``eigen_tuples``; :meth:`take` picks models out of it.
    """

    basis: np.ndarray         # ([B,] dim, dim) complex, columns grouped by outcome
    eigen_tuples: np.ndarray  # ([B,] n_outcomes, number of operators) float
    degeneracies: np.ndarray  # (n_outcomes,) int

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        tuples = np.asarray(self.eigen_tuples, dtype=float)
        degs = np.asarray(self.degeneracies).astype(np.int64)
        if basis.ndim < 2 or basis.shape[-2] != basis.shape[-1]:
            raise ValidationError(f"basis must be (dim, dim), got {basis.shape}")
        if tuples.ndim != basis.ndim or tuples.shape[:-2] != basis.shape[:-2] \
                or degs.shape != tuples.shape[-2:-1]:
            raise ValidationError("eigen_tuples and degeneracies must align")
        dim = basis.shape[-1]
        if np.any(degs < 1) or int(degs.sum()) != dim:
            raise ValidationError(f"degeneracy counts must be positive and sum to dim = {dim}")
        dev = np.abs(_adjoint(basis) @ basis - np.eye(dim)).max(axis=(-2, -1))
        require_each(dev <= PROJECTION_TOL, ValidationError,
                     lambda b: f"basis is not orthonormal: |V*V - identity| = {dev[b]:.3e}")
        close = (np.abs(tuples[..., :, None, :] - tuples[..., None, :, :]) <= GROUP_TOL).all(axis=-1)
        require_each(~np.triu(close, 1), ValidationError,
                     lambda b: f"outcomes {b[-2]}, {b[-1]} share the eigenvalue tuple (not maximal)")
        for arr in (basis, tuples, degs):
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigen_tuples", tuples)
        object.__setattr__(self, "degeneracies", degs)

    def take(self, b: int) -> "SpectralFamily":
        """Model ``b`` of a stack."""
        return validated(SpectralFamily, basis=self.basis[b], eigen_tuples=self.eigen_tuples[b],
                         degeneracies=self.degeneracies)

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return self.degeneracies.shape[0]

    @property
    def starts(self) -> np.ndarray:
        """First basis column of every outcome (the ``np.add.reduceat`` indices)."""
        return np.cumsum(self.degeneracies) - self.degeneracies

    def labels(self) -> tuple:
        return tuple(map(tuple, self.eigen_tuples.tolist()))

    def operator(self, k: int) -> np.ndarray:
        """Reconstruct the k-th operator of the family from its spectral data."""
        values = np.repeat(self.eigen_tuples[..., k], self.degeneracies, axis=-1)
        return (self.basis * values[..., None, :]) @ _adjoint(self.basis)


def joint_diagonalize(h, sectors=None) -> SpectralFamily:
    """Spectral family of a Hermitian ``h``, optionally refined by number sectors.

    ``sectors`` holds, at every basis index, the eigenvalue of a conserved diagonal
    operator N (a particle number, say); ``h`` must not couple indices of different
    sectors.  One ``eigh`` runs per sector block (one in all without ``sectors``), and
    the sorted eigenvalues are cut where they jump by more than ``GROUP_TOL`` times
    max(1, max|h|) or where the sector changes.  An outcome's tuple is (mean eigenvalue
    of its cut[, N]); outcomes come out sector-major, eigenvalues ascending inside each.
    No check of N is needed: an outcome's columns lie on one sector's rows, and
    :class:`SpectralFamily` checks that the basis is orthonormal.

    A stack ``h`` of shape (B, dim, dim) runs every ``eigh`` once for all B models and
    gives one stacked family; a stack must cut alike, so every model's spectrum must cut
    where model 0's does.

    Raises
    ------
    PreconditionError
        If a model of a stack cuts its spectrum differently from model 0 (named).
    ValidationError
        If ``h`` is not Hermitian, ``sectors`` does not hold one value per basis
        index, or the spectral data do not reconstruct ``h`` (an ``h`` that
        couples sectors does not).
    """
    h = require_hermitian(h, "h")
    dim = h.shape[-1]
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))[..., None]
    if sectors is None:
        w, basis = np.linalg.eigh(h)
        cut = np.diff(w) > GROUP_TOL * scale
    else:
        n = np.asarray(sectors, dtype=float)
        if n.shape != (dim,):
            raise ValidationError(f"sectors has shape {n.shape}, expected ({dim},)")
        order = np.argsort(n, kind="stable")
        n = n[order]
        bounds = [0, *(np.flatnonzero(np.diff(n)) + 1).tolist(), dim]
        w, basis = np.empty(h.shape[:-1]), np.zeros_like(h)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            rows = order[lo:hi]
            w[..., lo:hi], basis[..., rows, lo:hi] = np.linalg.eigh(h[..., rows[:, None], rows])
        cut = (np.diff(w) > GROUP_TOL * scale) | (np.diff(n) != 0)
    starts = np.flatnonzero(np.r_[True, require_alike(np.atleast_2d(cut), "spectral cuts")])
    sizes = np.diff(starts, append=dim)
    means = np.add.reduceat(w, starts, axis=-1) / sizes
    tuples = means[..., None] if sectors is None else \
        np.stack([means, np.broadcast_to(n[starts], means.shape)], axis=-1)
    fam = SpectralFamily(basis=basis, eigen_tuples=tuples, degeneracies=sizes)
    dev = np.abs(fam.operator(0) - h).max(axis=(-2, -1))
    require_each(dev <= 100 * GROUP_TOL * scale[..., 0], ValidationError,
                 lambda b: f"h is not reconstructed by its spectral data (deviation {dev[b]:.3e}); "
                 "h must not couple sectors")
    return fam


def product_family(factors: Sequence[SpectralFamily]) -> SpectralFamily:
    """Family of the factors' operators lifted onto their tensor product, with no dense lift.

    Kronecker basis of the factor bases, columns regrouped by product outcome with one stable
    argsort, factor 0 major and every factor's outcomes in its own order; tuples are
    concatenated, degeneracies multiplied.  Stacked factors (one model axis) give a stack."""
    lead = factors[0].basis.shape[:-2]
    basis, tuples = np.ones(lead + (1, 1)), np.zeros(lead + (1, 0))
    labels, degs = np.zeros(1, int), np.ones(1, int)
    for f in factors:
        n = basis.shape[-1] * f.dim
        basis = (basis[..., :, None, :, None] * f.basis[..., None, :, None, :]).reshape(lead + (n, n))
        degs = np.outer(degs, f.degeneracies).ravel()
        labels = (labels[:, None] * f.n_outcomes + np.repeat(np.arange(f.n_outcomes), f.degeneracies)).ravel()
        tuples = np.concatenate([np.repeat(tuples, f.n_outcomes, axis=-2),
                                 np.tile(f.eigen_tuples, (tuples.shape[-2], 1))], axis=-1)
    return SpectralFamily(basis[..., np.argsort(labels, kind="stable")], tuples, degs)


@dataclass(frozen=True)
class EnsembleState:
    """Outcome statistics of a state that is a function of a spectral family.

    rho = sum_i exp(w_i - log_norm) P_i  for log weights w_i is fixed by its outcome
    ``probabilities`` exp(w_i - log_norm) d(i), so it is never built; ``log_norm =
    ln sum_i exp(w_i) d(i)`` is the log of the partition-function-like normalization
    (one per model, for a stacked family).
    """

    probabilities: np.ndarray
    log_norm: float | np.ndarray


def _log(x: np.ndarray) -> np.ndarray:
    """math.log element by element: a stack's log normalizations keep the bits of one model's."""
    return np.fromiter(map(math.log, x.ravel()), float, x.size).reshape(x.shape)


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
    if lw.shape != family.eigen_tuples.shape[:-1]:
        raise ValidationError(f"log_weights shape {lw.shape} does not match {family.n_outcomes} outcomes")
    good = ~(np.isnan(lw) | (lw == np.inf))
    require_each(good, PreconditionError,
                 lambda b: f"log weight at outcome {b[-1]} is {lw[b]}; rescale the weight function")
    shift = lw.max(axis=-1)
    require_each(shift > -math.inf, PreconditionError,
                 lambda b: "every weight is zero (all log weights are -inf)")
    raw = np.exp(lw - shift[..., None])
    norm = np.sum(raw * family.degeneracies, axis=-1)
    return EnsembleState(probabilities=raw / norm[..., None] * family.degeneracies, log_norm=shift + _log(norm))


def check_assumption2(rho: np.ndarray, family: SpectralFamily) -> tuple[bool, float]:
    """Check that every selective post-state is maximally mixed on its cell.

    The condition is  P_i rho P_i = (p(i)/d(i)) P_i  for every outcome;
    it holds exactly when rho is a function of the measured family.
    Returns (verdict, worst deviation), where the deviation of outcome i is
    the Frobenius norm of  P_i rho P_i - (p(i)/d(i)) P_i,  computed on its
    outcome block of  V* rho V  (V the family basis); it bounds every entry's
    absolute deviation.  The verdict compares it with ``ASSUMPTION2_TOL``.
    """
    v = family.basis
    m = v.conj().T @ require_density(rho) @ v
    p = np.add.reduceat(np.diagonal(m).real, family.starts)
    if p.min() < -1e-11:
        raise ValidationError(f"negative probability {p.min():.3e} (rho not PSD?)")
    p = np.clip(p, 0.0, None)
    dev = _outcome_blocks(m, family) - np.diag(np.repeat(p / family.degeneracies, family.degeneracies))
    worst = float(np.sqrt(np.add.reduceat(np.sum(np.abs(dev) ** 2, axis=1), family.starts).max()))
    return worst <= ASSUMPTION2_TOL, worst


def _outcome_blocks(m: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """m with every entry outside the family's (outcome, outcome) blocks set to 0."""
    label = np.repeat(np.arange(family.n_outcomes), family.degeneracies)
    return np.where(label[:, None] == label[None, :], m, 0.0)


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dim x dim complex Ginibre matrix: the real parts drawn first, then the imaginary ones."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def haar_orthonormalize(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices ``z`` (dim, dim) or (B, dim, dim), by one batched QR with
    the R-diagonal phase fix (exactly Haar, not QR-convention-dependent); bit for bit per matrix."""
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary: :func:`haar_orthonormalize` of one Ginibre draw."""
    return haar_orthonormalize(ginibre(dim, rng))


def physical_conditional(u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> np.ndarray:
    """Conditional  pi(j|i) = Tr(Q_j U P_i U*) / d(i)  of the two-time experiment.

    Row-stochastic for any unitary; modified doubly stochastic with the
    cell sizes d = Tr P, D = Tr Q (the trace identity sum_i U P_i U* = 1).
    The traces are the (i, j) block sums of |V* U* W|^2, with V and W the two
    family bases: two GEMMs, O(dim^3) time and O(dim^2) extra memory.
    """
    u = require_unitary(u)
    if first.dim != u.shape[-1] or second.dim != u.shape[-1]:
        raise ValidationError("families and unitary must share one dimension")
    amp = np.abs(_adjoint(first.basis) @ (_adjoint(u) @ second.basis)) ** 2
    traces = np.add.reduceat(np.add.reduceat(amp, first.starts, axis=-2), second.starts, axis=-1)
    return traces / first.degeneracies[:, None]


def povm_elements(u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> np.ndarray:
    """Two-time POVM  F(i, j) = P_i U* Q_j U P_i  on the initial space.

    Each element is positive semidefinite and the family sums to the
    identity (enforced within ``POVM_COMPLETENESS_TOL``); together they
    reproduce the joint probabilities via p(i, j) = Tr(rho F(i, j))
    whenever the initial state satisfies the cell-uniformity assumption
    checked by :func:`check_assumption2`.  With  Z_i = W* U V_i V_i*  (V, W
    the family bases, V_i the columns of outcome i), F(i, j) is the Gram
    matrix of the rows of Z_i in outcome block j.  Costs O(k1 dim^3); beyond
    the (k1, k2, dim, dim) result, a few dim x dim matrices are live at a time.
    """
    u = one_matrix(require_unitary(u), "U")
    f = np.empty((first.n_outcomes, second.n_outcomes, u.shape[0], u.shape[0]), dtype=complex)
    w_dag_u = second.basis.conj().T @ u
    blocks = [slice(a, a + d) for a, d in zip(second.starts.tolist(), second.degeneracies.tolist())]
    for i, v in enumerate(np.split(first.basis, first.starts[1:], axis=1)):
        z = (w_dag_u @ v) @ v.conj().T
        z_dag = z.conj().T
        for j, rows in enumerate(blocks):
            np.matmul(z_dag[:, rows], z[rows], out=f[i, j])
    dev = float(np.abs(f.sum(axis=(0, 1)) - np.eye(u.shape[0])).max())
    if dev > POVM_COMPLETENESS_TOL:
        raise ValidationError(f"POVM does not resolve the identity (deviation {dev:.3e})")
    return f


def streamed_completeness_deviation(u: np.ndarray, first: SpectralFamily,
                                    second: SpectralFamily) -> float:
    """Max-entry deviation of  sum_{i,j} F(i, j)  of :func:`povm_elements` from the
    identity, without the (k1, k2, dim, dim) stack.  The sum over j of P_i U* Q_j U P_i
    is P_i U* W W* U P_i, so the total is  V mask(A* A) V*  with A = W* U V (V, W the
    family bases) and the mask keeping the first family's outcome blocks: five dim x dim
    products, no loop (one deviation per model for stacks)."""
    u = require_unitary(u)
    v = first.basis
    a = _adjoint(second.basis) @ (u @ v)
    total = v @ _outcome_blocks(_adjoint(a) @ a, first) @ _adjoint(v)
    return np.abs(total - np.eye(u.shape[-1])).max(axis=(-2, -1))


def build_joint_model(p, u: np.ndarray, first: SpectralFamily, second: SpectralFamily) -> JointModel:
    """Joint two-time outcome table  P(i, j) = p(i) pi(j|i)  of a state that is a function
    of the first family, with first-outcome probabilities ``p``.

    Such a state satisfies the cell-uniformity assumption (:func:`check_assumption2`)
    by construction and is fixed by ``p``, so no density matrix is needed; a caller
    that holds a dense rho checks it with :func:`check_assumption2` and takes
    p(i) = Tr(rho P_i).  Every p(i) must be positive.  Stacked families, unitaries and
    ``p`` give a stack of tables.  Labels default (:meth:`EnsembleReport.take` sets them).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != first.eigen_tuples.shape[:-1]:
        raise ValidationError(f"probabilities shape {p.shape} does not match {first.n_outcomes} outcomes")
    require_each(p.min(axis=-1) > 0.0, PreconditionError, lambda b: f"first outcome {np.argmin(p[b])} "
                 f"has probability {p[b].min():.3e}; all must be positive")
    table = p[..., None] * physical_conditional(u, first, second)
    return JointModel(table / table.sum(axis=(-2, -1), keepdims=True), first.degeneracies, second.degeneracies)


def operator_to_json_dict(a: np.ndarray) -> dict:
    """Serialize a complex matrix as {"dim", "re", "im"}."""
    m = one_matrix(_as_square(a, "operator"), "operator")
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
    dim = data["dim"]
    require_count("dim", dim, positive=True)
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float) if "im" in data else None
    shapes = re.shape, (dim, dim) if im is None else im.shape
    if shapes != ((dim, dim),) * 2:
        raise ValidationError(f"operator JSON claims dim {dim} but has shapes {shapes[0]}, {shapes[1]}")
    return re + 1j * (np.zeros_like(re) if im is None else im)  # a missing im is 0, built at re's checked shape
