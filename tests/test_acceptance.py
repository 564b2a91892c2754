"""Acceptance suite: twelve end-to-end criteria with pinned tolerances.

One test per criterion, each printing a single machine-greppable line

    [criterion NN] PASS|FAIL <title>: <measured numbers>

before asserting, so failures carry their evidence in the captured
output.  Criteria 4, 5, 6 and 12 share one seeded 1000-models-per-family
corpus (module-scoped fixture) so the sweep runs once.

Criterion 1 pins the external reference value 1.3654 for the cell
entropy of the sigma=1 Gaussian.  The closed-form sum gives 1.38516... at
the default window (N_x, N_p) = (8, 512) and still drifts up by ~1e-3 as
the momentum window widens (1.3859871 at (14, 8192)), so no window at or
beyond the default can land within 5e-4 of the reference; cutting the
momentum index at |n| <= 14 reproduces 1.36541, which identifies the
reference as a pre-convergence evaluation.  The test states both numbers and fails
honestly instead of loosening the gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import projections, sinkhorn
from scipy.linalg import expm

from seqmeas.classical import (
    CanonicalHarmonicState,
    VolumePreservingMap,
    classical_j_expectation,
    gauss_hermite_quench,
    harmonic_ramp_map,
    jacobian_determinant_check,
)
from seqmeas.ensembles import LocalCanonicalConfig, generate
from seqmeas.model import JointModel, crooks_check, entropy_gap
from seqmeas.quantum import haar_unitary, joint_diagonalize, physical_conditional
from seqmeas.verify import run_corpus
from seqmeas.wavepacket import entropy_curve, first_marginal, transition_probability

CORPUS_SEED = 20260814
N_PER_FAMILY = 1000


def _criterion(num: int, ok: bool, title: str, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {title}: {detail}")


def _rows(report, name: str):
    return [s for s in report.summaries if s.check == name]


@pytest.fixture(scope="module")
def corpus():
    return run_corpus(seed=CORPUS_SEED, n_per_family=N_PER_FAMILY)


# --------------------------------------------------------------------------
# 1. reference value of the localization entropy


def test_criterion_01_first_marginal_entropy_reference():
    t0 = time.perf_counter()
    table = first_marginal(1.0, 8, 512)
    s_p = table.entropy()
    elapsed = time.perf_counter() - t0
    reference = 1.3654
    tol = 5e-4
    value_ok = abs(s_p - reference) <= tol
    runtime_ok = elapsed <= 60.0
    # the reference is reproduced by a pre-convergence momentum window
    s_truncated = first_marginal(1.0, 8, 14).entropy()
    _criterion(
        1, value_ok and runtime_ok, "first-marginal entropy at sigma=1, window (8, 512)",
        f"S(p) = {s_p:.16f} vs reference {reference} +/- {tol:g} "
        f"(|diff| = {abs(s_p - reference):.3e}), runtime {elapsed:.2f} s; "
        f"note: momentum window |n| <= 14 gives S = {s_truncated:.5f}")
    assert runtime_ok, f"runtime {elapsed:.1f} s exceeds 60 s"
    assert value_ok, (
        f"converged entropy {s_p:.16f} is {abs(s_p - reference):.3e} from the "
        f"reference 1.3654 (tolerance {tol:g}); the reference matches the "
        f"|n| <= 14 truncated sum {s_truncated:.5f}, not the converged value")


# --------------------------------------------------------------------------
# 2. entropy gap and monotone growth over a log-spaced time grid


def test_criterion_02_entropy_curve_monotone_gap():
    t_values = np.logspace(-4, -1, 13)
    points = entropy_curve(1.0, t_values)
    gaps = np.array([pt.s_phat - pt.s_p for pt in points])
    steps = np.diff([pt.s_phat for pt in points])
    gap_ok = bool(np.all(gaps > 0))
    mono_ok = bool(np.all(steps >= 0))
    _criterion(
        2, gap_ok and mono_ok, "second-marginal entropy curve on 13 log-spaced t",
        f"min gap {gaps.min():.3e}, min step {steps.min():.3e}, "
        f"S range [{points[0].s_phat:.4f}, {points[-1].s_phat:.4f}]")
    assert gap_ok, f"entropy gap not positive everywhere: min {gaps.min():.3e}"
    assert mono_ok, f"curve not nondecreasing: min step {steps.min():.3e}"


# --------------------------------------------------------------------------
# 3. closed-form asymmetric transition pair


def test_criterion_03_transition_pair_values():
    p_f = transition_probability(1, 1, 0, 0, 1.0)
    p_b = transition_probability(0, 0, 1, 1, 1.0)
    ref_f, ref_b, tol = 0.00483946, 0.00258997, 1e-8
    ok = abs(p_f - ref_f) <= tol and abs(p_b - ref_b) <= tol
    _criterion(
        3, ok, "transition pair p(1,1|0,0), p(0,0|1,1) at t=1",
        f"{p_f:.12f} vs {ref_f} and {p_b:.12f} vs {ref_b}, abs tol {tol:g}")
    assert abs(p_f - ref_f) <= tol
    assert abs(p_b - ref_b) <= tol


# --------------------------------------------------------------------------
# 4. fluctuation identity across the random-model corpus


def test_criterion_04_fluctuation_identity_sweep(corpus):
    rows = _rows(corpus, "jarzynski")
    worst = max(s.worst_deviation for s in rows)
    fails = sum(s.n_failures for s in rows)
    counts_ok = all(s.n_models == N_PER_FAMILY for s in rows) and len(rows) == 4
    time_ok = corpus.elapsed_seconds <= 300.0
    ok = fails == 0 and worst <= 1e-10 and counts_ok and time_ok
    _criterion(
        4, ok, f"identity <d q / (D p)> = 1 on {N_PER_FAMILY} models x 4 families",
        f"worst |lhs - 1| = {worst:.3e} (tol 1e-10), failures {fails}, "
        f"corpus runtime {corpus.elapsed_seconds:.1f} s (limit 300 s)")
    assert counts_ok
    assert fails == 0 and worst <= 1e-10
    assert time_ok, f"corpus took {corpus.elapsed_seconds:.1f} s"


# --------------------------------------------------------------------------
# 5. modified doubly stochastic equivalence, both directions


def test_criterion_05_mod_ds_equivalence_and_fault_detection(corpus):
    ds_rows = _rows(corpus, "mod_ds")
    fault_rows = _rows(corpus, "fault_detection")
    worst_ds = max(s.worst_deviation for s in ds_rows)
    min_fault = min(s.worst_deviation for s in fault_rows)
    fails = sum(s.n_failures for s in ds_rows + fault_rows)
    ok = fails == 0 and worst_ds <= 1e-11 and min_fault >= 1e-4
    _criterion(
        5, ok, "column-sum condition <= 1e-11 and 1e-3 fault flagged >= 1e-4",
        f"worst condition deviation {worst_ds:.3e}, "
        f"smallest fault response {min_fault:.3e}, failures {fails}")
    assert worst_ds <= 1e-11
    assert min_fault >= 1e-4
    assert fails == 0


# --------------------------------------------------------------------------
# 6. second-law inequalities across the corpus


def test_criterion_06_second_law_inequalities(corpus):
    gap_rows = _rows(corpus, "entropy_gap")
    jen_rows = _rows(corpus, "jensen")
    worst_gap = max(s.worst_deviation for s in gap_rows)      # max(0, -gap)
    worst_jensen = max(s.worst_deviation for s in jen_rows)
    fails = sum(s.n_failures for s in gap_rows + jen_rows)
    ok = fails == 0 and worst_gap <= 1e-12 and worst_jensen <= 1e-12
    _criterion(
        6, ok, "entropy gap and Jensen combinations >= -1e-12 corpus-wide",
        f"worst negative excursions: gap {worst_gap:.3e}, "
        f"jensen {worst_jensen:.3e}, failures {fails}")
    assert worst_gap <= 1e-12
    assert worst_jensen <= 1e-12
    assert fails == 0


# --------------------------------------------------------------------------
# 7. entropy equality exactly on permutation-type conditionals


def _unit_cell_model(p: np.ndarray, pi: np.ndarray) -> JointModel:
    n, m = pi.shape
    return JointModel(p_table=p[:, None] * pi, d=np.ones(n), D=np.ones(m))


def test_criterion_07_permutation_equality_both_directions():
    rng = np.random.default_rng(CORPUS_SEED)
    worst_permutation_gap = 0.0
    for dim in range(2, 7):
        for _ in range(5):
            pi = np.eye(dim)[rng.permutation(dim)]
            p = rng.uniform(0.2, 1.0, size=dim)
            p /= p.sum()
            gap = entropy_gap(_unit_cell_model(p, pi))
            worst_permutation_gap = max(worst_permutation_gap, abs(gap))
    min_positive_gap = math.inf
    for k in range(100):
        dim = 2 + k % 5
        pi = sinkhorn(rng.uniform(0.3, 1.0, size=(dim, dim)))
        p = np.linspace(1.0, 2.0, dim) * rng.uniform(0.9, 1.1, size=dim)
        p /= p.sum()
        min_positive_gap = min(min_positive_gap, entropy_gap(_unit_cell_model(p, pi)))
    ok = worst_permutation_gap <= 1e-9 and min_positive_gap > 1e-6
    _criterion(
        7, ok, "gap = 0 iff permutation-type (dims 2-6)",
        f"|gap| <= {worst_permutation_gap:.3e} on 25 permutations (tol 1e-9); "
        f"gap >= {min_positive_gap:.3e} on 100 strictly positive mixers (floor 1e-6)")
    assert worst_permutation_gap <= 1e-9
    assert min_positive_gap > 1e-6


# --------------------------------------------------------------------------
# 8. per-level reciprocity on an exhaustive shape sweep + canonical form


def _exact_shape_mod_ds_model(rng: np.random.Generator, n_i: int, n_j: int):
    """Random cell-weighted model with exactly (n_i, n_j) outcomes.

    Cell sizes are drawn first; a fine doubly stochastic matrix over the
    microstates is block-summed into the conditional, which makes the
    column-sum condition hold by construction.
    """
    d = rng.integers(1, 4, size=n_i)
    if int(d.sum()) < n_j:
        d[0] += n_j - int(d.sum())
    total = int(d.sum())
    big_d = np.ones(n_j, dtype=np.int64)
    if total > n_j:
        big_d += rng.multinomial(total - n_j, np.full(n_j, 1.0 / n_j))
    fine = sinkhorn(rng.uniform(0.5, 1.5, size=(total, total)))
    row_edges = np.concatenate(([0], np.cumsum(d)))[:-1]
    col_edges = np.concatenate(([0], np.cumsum(big_d)))[:-1]
    pi = np.add.reduceat(np.add.reduceat(fine, row_edges, axis=0), col_edges, axis=1)
    pi /= d[:, None]
    p = rng.uniform(0.2, 1.0, size=n_i)
    p /= p.sum()
    q = rng.uniform(0.2, 1.0, size=n_j)
    q /= q.sum()
    return JointModel(p_table=p[:, None] * pi, d=d, D=big_d), q


def test_criterion_08_per_level_reciprocity_exhaustive_shapes():
    rng = np.random.default_rng(CORPUS_SEED + 8)
    worst_ratio = 0.0
    worst_j = 0.0
    n_models = 0
    for n_i in range(1, 9):
        for n_j in range(1, 9):
            for _ in range(3):
                model, q = _exact_shape_mod_ds_model(rng, n_i, n_j)
                report = crooks_check(model, q)
                worst_ratio = max(worst_ratio, float(np.max(report.distribution.ratio_errors)))
                worst_j = max(worst_j, abs(report.j_equation_value - 1.0))
                n_models += 1
    # canonical specialization: levels must equal exp(-beta (w - dF))
    beta = 0.9
    g0 = rng.normal(size=(4, 4))
    g1 = rng.normal(size=(4, 4))
    h0, h1 = g0 + g0.T, g1 + g1.T
    u = haar_unitary(4, rng)
    rep = generate(LocalCanonicalConfig(h_t0=(h0,), h_t1=(h1,), betas=(beta,)), u)
    crooks = crooks_check(rep.model, rep.q)
    e0 = np.linalg.eigvalsh(h0)
    e1 = np.linalg.eigvalsh(h1)
    delta_f = -(1.0 / beta) * math.log(np.exp(-beta * e1).sum() / np.exp(-beta * e0).sum())
    expected = np.sort(np.exp(-beta * ((e1[None, :] - e0[:, None]) - delta_f)).ravel())
    canonical_levels_ok = (crooks.distribution.values.size == expected.size
                           and np.allclose(crooks.distribution.values, expected, rtol=1e-10))
    canonical_ratio = float(np.max(crooks.distribution.ratio_errors))
    ok = (worst_ratio <= 1e-12 and worst_j <= 1e-12
          and canonical_levels_ok and canonical_ratio <= 1e-12)
    _criterion(
        8, ok, "per-level reciprocity, all shapes up to 8x8 + canonical levels",
        f"worst level ratio error {worst_ratio:.3e} over {n_models} models "
        f"(tol 1e-12), worst |identity - 1| {worst_j:.3e}; canonical levels "
        f"match exp(-beta(w - dF)): {canonical_levels_ok}, "
        f"ratio error {canonical_ratio:.3e}")
    assert worst_ratio <= 1e-12
    assert worst_j <= 1e-12
    assert canonical_levels_ok
    assert canonical_ratio <= 1e-12


# --------------------------------------------------------------------------
# 9. detailed-balance symmetry of real protocols; asymmetric counterexample


def _real_degenerate_family(rng: np.random.Generator, dim: int):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    spectrum = np.sort(rng.integers(0, max(2, dim - 1), size=dim).astype(float))
    op = (q * spectrum) @ q.T
    return joint_diagonalize(op)


def test_criterion_09_real_protocol_symmetry_and_violation():
    rng = np.random.default_rng(CORPUS_SEED + 9)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(3, 7))
        first = _real_degenerate_family(rng, dim)
        second = _real_degenerate_family(rng, dim)
        g1 = rng.normal(size=(dim, dim))
        g2 = rng.normal(size=(dim, dim))
        # a palindrome of real symmetric generators: U = U^T, the time-reversal precondition
        outer = expm(-0.4j * (g1 + g1.T))
        u = outer @ expm(-0.7j * (g2 + g2.T)) @ outer
        assert np.abs(u - u.T).max() <= 1e-11
        assert all(np.abs(projections(fam).imag).max() <= 1e-11 for fam in (first, second))
        forward = physical_conditional(u, first, second) * first.degeneracies[:, None]
        backward = physical_conditional(u.conj().T, first, second) * first.degeneracies[:, None]
        worst = max(worst, float(np.abs(forward - backward).max()))
    p_f = transition_probability(1, 1, 0, 0, 1.0)
    p_b = transition_probability(0, 0, 1, 1, 1.0)
    violation = abs(p_f - p_b)
    ok = worst <= 1e-12 and violation >= 2e-3
    _criterion(
        9, ok, "weighted conditional symmetric for real palindromes",
        f"max |pi(j|i)d(i) - pi(i|j)D(j)| = {worst:.3e} over 20 protocols "
        f"(tol 1e-12); free-particle pair violates by {violation:.4e} (floor 2e-3)")
    assert worst <= 1e-12
    assert violation >= 2e-3


# --------------------------------------------------------------------------
# 10. two-level curve: closed-form slope and squared distance


def _two_level_entropy(p: float, lam: float) -> float:
    """Entropy of  rho = [[p, lam], [lam, 1 - p]]  from the eigenvalues of rho."""
    w = np.linalg.eigvalsh(np.array([[p, lam], [lam, 1.0 - p]]))
    return float(-np.sum(w * np.log(w)))


def test_criterion_10_two_level_curve_closed_forms():
    """On the fixed-diagonal curve the eigenvalues are (1 +- r)/2 with r = sqrt(4 lam^2 + (1 - 2p)^2),
    the entropy slope is  dS/d lam = -4 lam artanh(r) / r,  and the squared distance from the
    maximally mixed state is  2 lam^2 - 2 p (1 - p) + 1/2."""
    worst_slope_rel = 0.0
    worst_dist = 0.0
    h = 1e-6
    for p in np.linspace(0.05, 0.95, 20):
        lam_max = math.sqrt(p * (1.0 - p))
        for frac in np.linspace(0.05, 0.9, 20):
            lam = frac * lam_max
            r = math.sqrt(4.0 * lam**2 + (1.0 - 2.0 * p) ** 2)
            slope = -4.0 * lam * math.atanh(r) / r
            fd = (_two_level_entropy(p, lam + h) - _two_level_entropy(p, lam - h)) / (2 * h)
            worst_slope_rel = max(worst_slope_rel, abs(slope - fd) / abs(fd))
            rho = np.array([[p, lam], [lam, 1.0 - p]])
            direct = np.linalg.norm(rho - np.eye(2) / 2.0, "fro") ** 2
            worst_dist = max(worst_dist, abs(2.0 * lam**2 - 2.0 * p * (1.0 - p) + 0.5 - direct))
    ok = worst_slope_rel <= 1e-6 and worst_dist <= 1e-14
    _criterion(
        10, ok, "entropy slope and center distance on a 20x20 (p, lambda) grid",
        f"worst relative slope error {worst_slope_rel:.3e} (tol 1e-6), "
        f"worst |distance^2 - direct| {worst_dist:.3e} (tol 1e-14)")
    assert worst_slope_rel <= 1e-6
    assert worst_dist <= 1e-14


# --------------------------------------------------------------------------
# 11. classical harmonic oracle, Monte Carlo estimator, volume preservation


def test_criterion_11_classical_harmonic_checks():
    worst_quad = max(
        abs(gauss_hermite_quench(beta, w0, w1) - w0 / w1)
        for beta, w0, w1 in [(1.0, 1.0, 2.0), (0.37, 0.7, 1.5), (2.2, 1.5, 0.7)])
    est = classical_j_expectation(
        CanonicalHarmonicState(1.0, 1.0), CanonicalHarmonicState(2.0, 1.0),
        VolumePreservingMap(np.eye(2)), 100_000, seed=0)
    sigmas = abs(est.mean - 1.0) / est.std_error
    jac_dev = jacobian_determinant_check(harmonic_ramp_map(1.0, 2.0, 0.005, 200))
    ok = worst_quad <= 1e-12 and sigmas <= 3.0 and jac_dev <= 1e-8
    _criterion(
        11, ok, "harmonic quench quadrature, MC estimator, leapfrog volume",
        f"|quadrature - w0/w1| <= {worst_quad:.3e} (tol 1e-12); "
        f"estimator {est.mean:.6f} is {sigmas:.2f} std errors from 1 (limit 3); "
        f"|det J - 1| <= {jac_dev:.3e} (tol 1e-8)")
    assert worst_quad <= 1e-12
    assert sigmas <= 3.0, est
    assert jac_dev <= 1e-8


# --------------------------------------------------------------------------
# 12. POVM completeness across the corpus


def test_criterion_12_povm_completeness(corpus):
    rows = _rows(corpus, "povm_completeness")
    worst = max(s.worst_deviation for s in rows)
    fails = sum(s.n_failures for s in rows)
    ok = fails == 0 and worst <= 1e-11
    _criterion(
        12, ok, "two-time POVM sums to the identity corpus-wide",
        f"worst completeness deviation {worst:.3e} (tol 1e-11), failures {fails}")
    assert worst <= 1e-11
    assert fails == 0
