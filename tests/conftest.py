"""Shared builders for the test suite.

Two oracles of the spectral families live here: ``joint_refinement``, the
multi-operator joint eigendecomposition, and ``projections``, the dense
eigenprojections of a family.  Two more are built on them:
``luders_probabilities``, the outcome probabilities Tr(rho P_i) of a dense
state, and ``completeness_deviation``, how far a two-time POVM stack is
from resolving the identity.  ``j_equation_lhs`` is the direct oracle of the
J-equation's left side < y >, the table average of ``model.j_ratio``.

The other recurring need is a joint table whose conditional satisfies the
cell-weighted column condition  sum_i pi(j|i) d(i) = D(j)  exactly (up to
rounding).  We build those from a fine doubly stochastic matrix obtained
by Sinkhorn balancing and coarse-grain it over random cell partitions:
row sums survive the block averaging and column sums turn into the
weighted condition by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from seqmeas.model import JointModel, PreconditionError, ValidationError, check_probability_vector, j_ratio
from seqmeas.quantum import GROUP_TOL, SpectralFamily, require_hermitian

# Slack of the oracle's pairwise commutator check, scaled by both operators' largest entries.
COMMUTATOR_TOL = 1e-10


def joint_refinement(ops) -> SpectralFamily:
    """Oracle of :func:`seqmeas.quantum.joint_diagonalize` and :func:`seqmeas.quantum.product_family`:
    the maximal joint eigendecomposition of commuting Hermitian operators in any basis.

    One sequential refinement: start from the identity basis as a single block; for each
    operator in turn, diagonalize it inside every current block and cut the block where its
    sorted eigenvalues jump by more than ``GROUP_TOL`` times the operator's scale (its largest
    entry, at least one).  A tuple's ``ops[k]`` entry is the mean of the block eigenvalues over
    the cut of step k.  Outcomes come out ``ops[0]`` clusters ascending, ``ops[1]`` ascending
    inside each of them, and so on.  Raises ``PreconditionError`` if two operators fail to
    commute within ``COMMUTATOR_TOL``, and ``ValidationError`` if the dimensions differ or the
    blocks do not reconstruct every operator.
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
            dev = float(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a]).max())
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


def projections(family: SpectralFamily) -> np.ndarray:
    """The dense (n_outcomes, dim, dim) eigenprojections of a family, built from its basis."""
    return np.array([v @ v.conj().T for v in np.split(family.basis, family.starts[1:], axis=1)])


def luders_probabilities(rho: np.ndarray, family: SpectralFamily) -> np.ndarray:
    """Outcome probabilities  p(i) = Tr(rho P_i)  from the dense projections."""
    return np.einsum("kab,ba->k", projections(family), rho).real


def completeness_deviation(elements: np.ndarray) -> float:
    """Max-entry deviation of  sum_{i,j} F(i, j)  from the identity."""
    total = elements.sum(axis=(0, 1))
    return float(np.abs(total - np.eye(total.shape[0])).max())


def j_equation_lhs(model: JointModel, q) -> float:
    """Expectation  < d(i) q(j) / (D(j) p(i)) >  under the joint table.

    This equals one for every admissible hypothetical distribution q if
    and only if the conditional is modified doubly stochastic.  Zero-
    probability cells of the table contribute nothing (0 * anything = 0).
    """
    weights = j_ratio(model, check_probability_vector(q))
    ratio = np.zeros_like(model.p_table)
    mask = model.p_table > 0.0
    ratio[mask] = model.p_table[mask] * weights[mask]
    return float(ratio.sum())


def sinkhorn(a: np.ndarray, iters: int = 400) -> np.ndarray:
    """Doubly stochastic matrix from a strictly positive square seed."""
    b = np.array(a, dtype=float)
    if np.any(b <= 0):
        raise ValueError("sinkhorn needs strictly positive entries")
    for _ in range(iters):
        b /= b.sum(axis=1, keepdims=True)
        b /= b.sum(axis=0, keepdims=True)
    # one last row pass so rows sum to one exactly in floating point
    b /= b.sum(axis=1, keepdims=True)
    return b


def random_partition(rng: np.random.Generator, n_cells: int, max_cell: int = 3) -> list[list[int]]:
    sizes = rng.integers(1, max_cell + 1, size=n_cells)
    cells, pos = [], 0
    for s in sizes:
        cells.append(list(range(pos, pos + int(s))))
        pos += int(s)
    return cells


def random_mod_ds_conditional(
    rng: np.random.Generator, n_i: int, n_j: int, max_cell: int = 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditional pi(j|i) with cell sizes (d, D) satisfying the weighted condition.

    Built by block-summing a fine doubly stochastic matrix:
    pi(j|i) = (1/d_i) sum_{a in cell_i, b in cell_j} B[a, b].
    """
    cells_i = random_partition(rng, n_i, max_cell)
    cells_j = random_partition(rng, n_j, max_cell)
    d = np.array([len(c) for c in cells_i])
    D = np.array([len(c) for c in cells_j])
    n_fine_i, n_fine_j = int(d.sum()), int(D.sum())
    n = max(n_fine_i, n_fine_j)
    fine = sinkhorn(rng.uniform(0.25, 1.75, size=(n, n)))
    # pad partitions with singleton cells when the fine matrix is larger
    while sum(len(c) for c in cells_i) < n:
        cells_i.append([sum(len(c) for c in cells_i)])
    while sum(len(c) for c in cells_j) < n:
        cells_j.append([sum(len(c) for c in cells_j)])
    d = np.array([len(c) for c in cells_i])
    D = np.array([len(c) for c in cells_j])
    pi = np.zeros((len(cells_i), len(cells_j)))
    for i, ci in enumerate(cells_i):
        for j, cj in enumerate(cells_j):
            pi[i, j] = fine[np.ix_(ci, cj)].sum() / len(ci)
    return pi, d, D


def random_mod_ds_model(rng: np.random.Generator, n_i: int, n_j: int,
                        max_cell: int = 3) -> JointModel:
    """Joint model with strictly positive marginal and weighted-DS conditional."""
    pi, d, D = random_mod_ds_conditional(rng, n_i, n_j, max_cell)
    p = rng.uniform(0.1, 1.0, size=pi.shape[0])
    p /= p.sum()
    table = p[:, None] * pi
    table /= table.sum()
    return JointModel(p_table=table, d=d, D=D)


def random_positive_prob(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.uniform(0.05, 1.0, size=n)
    return q / q.sum()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
