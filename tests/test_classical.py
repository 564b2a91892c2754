"""Tests for the classical phase-space ratio identity and work statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from seqmeas.classical import (
    CrooksHistogramReport,
    EstimatorResult,
    PhaseSpaceDensity,
    VolumePreservingMap,
    canonical_harmonic_density,
    classical_crooks,
    classical_j_expectation,
    gauss_hermite_quench,
    harmonic_hamiltonian,
    harmonic_ramp_gradient,
    identity_map,
    jacobian_determinant_check,
    leapfrog_map,
    metropolis_sampler,
    momentum_flip,
    reversed_leapfrog_map,
    rotation_map,
    work_samples,
)
from seqmeas.model import PreconditionError, ValidationError


BETA, OMEGA0, OMEGA1 = 1.0, 1.0, 2.0
DELTA_F = math.log(OMEGA1 / OMEGA0) / BETA  # from Z = 2 pi / (beta omega)


# ------------------------------------------------------------------ densities


def test_harmonic_hamiltonian_convention():
    h = harmonic_hamiltonian(2.0)
    # x = (q, p): H = p^2/2 + omega^2 q^2/2
    assert h(np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-15)
    assert h(np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)
    assert h(np.array([[1.0, 3.0, 0.5, 0.0]]))[0] == pytest.approx(
        0.5 * 0.25 + 2.0 * (1.0 + 9.0), abs=1e-12)  # 2 dof
    with pytest.raises(ValidationError):
        harmonic_hamiltonian(0.0)


def test_canonical_density_is_normalized_on_a_grid():
    d = canonical_harmonic_density(OMEGA1, 0.7)
    qs = np.linspace(-8, 8, 801)
    ps = np.linspace(-10, 10, 1001)
    grid = np.stack(np.meshgrid(qs, ps, indexing="ij"), axis=-1)
    vals = np.exp(d.log_density(grid))
    total = np.trapezoid(np.trapezoid(vals, ps, axis=1), qs)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_canonical_sampler_moments():
    d = canonical_harmonic_density(OMEGA1, BETA)
    x = d.sampler(np.random.default_rng(42), 200_000)
    var_q, var_p = x[:, 0].var(), x[:, 1].var()
    # population values 1/(beta omega^2) and 1/beta, 4-sigma CLT windows
    se = math.sqrt(2.0 / 200_000)
    assert abs(var_q - 1.0 / OMEGA1 ** 2) < 4 * se * (1.0 / OMEGA1 ** 2)
    assert abs(var_p - 1.0) < 4 * se
    assert abs(np.mean(x)) < 0.01


def test_canonical_density_validation():
    with pytest.raises(ValidationError):
        canonical_harmonic_density(1.0, 0.0)
    with pytest.raises(ValidationError):
        PhaseSpaceDensity(dim=3, log_density=lambda x: x, sampler=lambda r, n: None)


def test_metropolis_sampler_recovers_harmonic_variance():
    d = canonical_harmonic_density(1.0, 1.0)
    sampler = metropolis_sampler(d.log_density, dim=2, step=0.8)
    x = sampler(np.random.default_rng(7), 20_000)
    assert x.shape == (20_000, 2)
    assert abs(x[:, 0].var() - 1.0) < 0.15  # correlated chain: loose window
    assert abs(x[:, 1].var() - 1.0) < 0.15


# ----------------------------------------------------------------------- maps


def test_rotation_map_conserves_energy_and_volume():
    h = harmonic_hamiltonian(OMEGA1)
    rot = rotation_map(OMEGA1, 0.83)
    x = np.random.default_rng(1).normal(size=(50, 2))
    np.testing.assert_allclose(h(rot(x)), h(x), rtol=1e-12)
    assert jacobian_determinant_check(rot, x[:10]) < 1e-9
    # full period returns to the start
    period = rotation_map(OMEGA1, 2.0 * math.pi / OMEGA1)
    np.testing.assert_allclose(period(x), x, atol=1e-12)


def test_leapfrog_converges_to_rotation_quadratically():
    x = np.random.default_rng(5).normal(size=(50, 2))
    rot = rotation_map(OMEGA0, 1.0)

    def err(dt: float) -> float:
        lf = leapfrog_map(lambda t, q: OMEGA0 ** 2 * q, dt, int(round(1.0 / dt)))
        return float(np.abs(lf(x) - rot(x)).max())

    e1, e2 = err(0.01), err(0.005)
    assert e1 < 1e-4
    assert 3.6 < e1 / e2 < 4.4  # second-order integrator


def test_leapfrog_volume_preservation():
    grad = harmonic_ramp_gradient(OMEGA0, OMEGA1, 1.0)
    lf = leapfrog_map(grad, 0.005, 200)
    pts = np.random.default_rng(6).normal(size=(20, 2))
    assert jacobian_determinant_check(lf, pts) < 1e-8


def test_leapfrog_validation():
    with pytest.raises(ValidationError):
        leapfrog_map(lambda t, q: q, 0.0, 10)
    with pytest.raises(ValidationError):
        leapfrog_map(lambda t, q: q, 0.01, 0)


def test_momentum_flip_involution():
    flip = momentum_flip(2)
    x = np.random.default_rng(2).normal(size=(10, 2))
    np.testing.assert_allclose(flip(flip(x)), x, atol=0)
    np.testing.assert_allclose(flip(x)[:, 0], x[:, 0], atol=0)
    np.testing.assert_allclose(flip(x)[:, 1], -x[:, 1], atol=0)


def test_reversed_leapfrog_inverts_forward():
    grad = harmonic_ramp_gradient(OMEGA0, OMEGA1, 1.0)
    fwd = leapfrog_map(grad, 0.005, 200)
    rev = reversed_leapfrog_map(grad, 0.005, 200)
    x = np.random.default_rng(9).normal(size=(40, 2))
    np.testing.assert_allclose(rev(fwd(x)), x, atol=1e-12)
    np.testing.assert_allclose(fwd(rev(x)), x, atol=1e-12)


def test_jacobian_check_resolves_nonlinear_shears():
    """Shears have det DU = 1 but curved images; composed, their difference errors do not cancel."""
    def shear_p(x):
        return np.stack([x[..., 0], x[..., 1] + np.sin(x[..., 0])], axis=-1)

    def shear_q(x):
        return np.stack([x[..., 0] + np.sin(x[..., 1]), x[..., 1]], axis=-1)

    pts = 3.0 * np.random.default_rng(4).normal(size=(50, 2))
    for forward in (shear_p, lambda x: shear_q(shear_p(x))):
        shear = VolumePreservingMap(forward=forward, dim=2, certificate="analytic-symplectic")
        assert jacobian_determinant_check(shear, pts) <= 1e-8


def test_jacobian_check_flags_expansion():
    expanding = identity_map(2)
    bad = type(expanding)(forward=lambda x: 2.0 * np.asarray(x), dim=2,
                          certificate="identity")
    pts = np.random.default_rng(3).normal(size=(5, 2))
    assert jacobian_determinant_check(bad, pts) > 2.9  # det = 4


# ------------------------------------------------------------ ratio estimator


def test_j_expectation_trivial_case_is_exact():
    d = canonical_harmonic_density(OMEGA0, BETA)
    res = classical_j_expectation(d, d, identity_map(2), 1000, seed=0)
    assert res.mean == pytest.approx(1.0, abs=1e-15)
    assert res.std_error == pytest.approx(0.0, abs=1e-15)
    assert res.effective_sample_size == pytest.approx(1000.0, rel=1e-12)


def test_j_expectation_quench_within_three_standard_errors():
    p = canonical_harmonic_density(OMEGA0, BETA)
    q = canonical_harmonic_density(OMEGA1, BETA)
    for seed in (0, 1, 2):
        res = classical_j_expectation(p, q, identity_map(2), 100_000, seed=seed)
        assert abs(res.mean - 1.0) <= 3.0 * res.std_error, (seed, res)
        assert res.effective_sample_size > 10_000


def test_j_expectation_is_deterministic_per_seed():
    p = canonical_harmonic_density(OMEGA0, BETA)
    q = canonical_harmonic_density(OMEGA1, BETA)
    a = classical_j_expectation(p, q, identity_map(2), 5000, seed=123)
    b = classical_j_expectation(p, q, identity_map(2), 5000, seed=123)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = classical_j_expectation(p, q, identity_map(2), 5000, seed=124)
    assert c.mean != a.mean


def test_j_expectation_rejects_nonfinite_ratios():
    d = canonical_harmonic_density(OMEGA0, BETA)

    def broken_log_density(x):
        x = np.asarray(x)
        out = d.log_density(x)
        return np.where(np.abs(x[..., 0]) > 1.0, -np.inf, out)

    broken = PhaseSpaceDensity(dim=2, log_density=broken_log_density, sampler=d.sampler)
    with pytest.raises(PreconditionError, match="non-finite"):
        classical_j_expectation(broken, d, identity_map(2), 2000, seed=0)


def test_j_expectation_validation():
    d = canonical_harmonic_density(OMEGA0, BETA)
    d4 = canonical_harmonic_density(OMEGA0, BETA, n_dof=2)
    with pytest.raises(ValidationError, match="dimension"):
        classical_j_expectation(d, d4, identity_map(2), 100, seed=0)
    with pytest.raises(ValidationError, match="samples"):
        classical_j_expectation(d, d, identity_map(2), 1, seed=0)


# -------------------------------------------------------------- work averages


def test_work_samples_quench_formula():
    h0 = harmonic_hamiltonian(OMEGA0)
    h1 = harmonic_hamiltonian(OMEGA1)
    x = np.random.default_rng(4).normal(size=(100, 2))
    w = work_samples(h0, h1, identity_map(2), x)
    np.testing.assert_allclose(w, 0.5 * (OMEGA1 ** 2 - OMEGA0 ** 2) * x[:, 0] ** 2,
                               rtol=1e-12, atol=1e-14)


def test_gauss_hermite_quench_matches_frequency_ratio():
    """<exp(-beta w)> for the sudden quench equals omega0/omega1 exactly."""
    for beta, w0, w1 in [(1.0, 1.0, 2.0), (0.37, 0.7, 1.5), (2.2, 1.5, 0.7)]:
        v = gauss_hermite_quench(beta, w0, w1)
        assert v == pytest.approx(w0 / w1, abs=1e-13)


def test_gauss_hermite_quench_monte_carlo_agreement():
    p = canonical_harmonic_density(OMEGA0, BETA)
    h0 = harmonic_hamiltonian(OMEGA0)
    h1 = harmonic_hamiltonian(OMEGA1)
    rng = np.random.default_rng(8)
    x = p.sampler(rng, 200_000)
    w = work_samples(h0, h1, identity_map(2), x)
    est = float(np.mean(np.exp(-BETA * w)))
    se = float(np.std(np.exp(-BETA * w), ddof=1) / math.sqrt(x.shape[0]))
    assert abs(est - gauss_hermite_quench(BETA, OMEGA0, OMEGA1)) < 3.5 * se


# -------------------------------------------------------- forward/reverse test


def _quench_report(seed: int, n: int = 50_000) -> CrooksHistogramReport:
    h0 = harmonic_hamiltonian(OMEGA0)
    h1 = harmonic_hamiltonian(OMEGA1)
    p0 = canonical_harmonic_density(OMEGA0, BETA)
    p1 = canonical_harmonic_density(OMEGA1, BETA)
    ident = identity_map(2)
    return classical_crooks(BETA, h0, h1, DELTA_F, p0, p1, ident, ident, n, seed)


def test_classical_crooks_quench_reweighting():
    """Per-bin identity: E[forward count] = E[sum of reverse weights e^{b(w - dF)}]."""
    for seed in (0, 1, 2, 3):
        report = _quench_report(seed)
        assert report.worst_sigma(min_count=50) <= 5.0, seed
        assert report.populated.sum() >= 8
        # descriptive log-ratio should track beta (w - dF) on well-filled bins
        strong = report.populated & (report.forward_counts > 500) & (report.reverse_counts > 500)
        resid = report.log_ratio[strong] - report.expected_log_ratio[strong]
        assert np.abs(resid).max() < 0.3


def test_classical_crooks_ramp_with_leapfrog():
    grad = harmonic_ramp_gradient(OMEGA0, OMEGA1, 1.0)
    fwd = leapfrog_map(grad, 0.005, 200)
    rev = reversed_leapfrog_map(grad, 0.005, 200)
    h0 = harmonic_hamiltonian(OMEGA0)
    h1 = harmonic_hamiltonian(OMEGA1)
    p0 = canonical_harmonic_density(OMEGA0, BETA)
    p1 = canonical_harmonic_density(OMEGA1, BETA)
    for seed in (0, 1):
        report = classical_crooks(BETA, h0, h1, DELTA_F, p0, p1, fwd, rev, 50_000, seed)
        assert report.worst_sigma(min_count=50) <= 5.0, seed


def test_classical_crooks_determinism_and_validation():
    a, b = _quench_report(17, n=2000), _quench_report(17, n=2000)
    np.testing.assert_array_equal(a.forward_counts, b.forward_counts)
    np.testing.assert_array_equal(a.reweighted_forward, b.reweighted_forward)
    with pytest.raises(ValidationError, match="100 samples"):
        _quench_report(0, n=50)


def test_worst_sigma_skips_sparse_bins():
    report = _quench_report(0, n=5000)
    # with a high floor nothing qualifies and the statistic degrades to zero
    assert report.worst_sigma(min_count=10 ** 9) == 0.0
