"""Tests for the classical phase-space ratio identity and work statistics."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from seqmeas import classical
from seqmeas.classical import (
    EstimatorResult,
    PhaseSpaceDensity,
    VolumePreservingMap,
    canonical_harmonic_density,
    classical_j_expectation,
    gauss_hermite_quench,
    harmonic_hamiltonian,
    harmonic_ramp_gradient,
    harmonic_ramp_map,
    identity_map,
    jacobian_determinant_check,
    leapfrog_map,
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


# ----------------------------------------------------------------------- maps


def _rotation(omega: float, t: float, x: np.ndarray) -> np.ndarray:
    """Exact harmonic flow (q, p) -> (q cos wt + (p/w) sin wt, -q w sin wt + p cos wt)."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    q, p = x[..., 0], x[..., 1]
    return np.stack([c * q + (s / omega) * p, -omega * s * q + c * p], axis=-1)


def test_leapfrog_converges_to_rotation_quadratically():
    x = np.random.default_rng(5).normal(size=(50, 2))
    exact = _rotation(OMEGA0, 1.0, x)

    def err(dt: float) -> float:
        lf = leapfrog_map(lambda t, q: OMEGA0 ** 2 * q, dt, int(round(1.0 / dt)))
        return float(np.abs(lf(x) - exact).max())

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


@pytest.mark.parametrize("omega, beta, named", [
    (1e-200, 1.0, "omega = 1e-200: the squared scale omega^2"),
    (1e200, 1.0, "omega = 1e+200: the squared scale omega^2"),
    (1.0, 1e-310, "beta = 1e-310: the squared scale 1/beta"),
    (1e-100, 1e-150, "omega = 1e-100, beta = 1e-150: the squared scale 1/(beta omega^2)"),
], ids=["omega-tiny", "omega-huge", "beta-tiny", "position-variance"])
def test_canonical_density_rejects_scales_that_overflow(omega, beta, named):
    with pytest.raises(ValidationError, match="^" + re.escape(f"{named} = exp")):
        canonical_harmonic_density(omega, beta)


def test_canonical_density_keeps_scales_inside_the_bound():
    """Near the bound (omega^2 = 1e-280) samples and log densities stay finite and silent."""
    d = canonical_harmonic_density(1e-140, 1.0)
    log_p = d.log_density(d.sampler(np.random.default_rng(13), 1000))
    assert np.all(np.isfinite(log_p))


@pytest.mark.parametrize("build, name", [
    (lambda v: canonical_harmonic_density(1.0, v), "beta"),
    (lambda v: canonical_harmonic_density(v, 1.0), "omega"),
    (lambda v: harmonic_ramp_gradient(v, 2.0, 1.0), "omega0"),
    (lambda v: harmonic_ramp_gradient(1.0, v, 1.0), "omega1"),
    (lambda v: harmonic_ramp_gradient(1.0, 2.0, v), "duration"),
    (lambda v: leapfrog_map(lambda t, q: q, v, 10), "dt"),
    (lambda v: harmonic_ramp_map(1.0, 2.0, v, 10), "dt"),
    (lambda v: gauss_hermite_quench(1.0, 1.0, v), "omega1"),
], ids=["density-beta", "density-omega", "ramp-omega0", "ramp-omega1", "ramp-duration",
        "leapfrog-dt", "ramp-map-dt", "quadrature-omega1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_raise_validation_errors_naming_them(build, name, value):
    with pytest.raises(ValidationError, match=f"^{name} = {value} must be "):
        build(value)


@pytest.mark.parametrize("omega0, omega1, dt, steps", [
    (1.0, 2.0, 0.005, 200),  # the CLI defaults
    (1.0, 2.0, 0.01, 100),
    (2.0, 0.5, 0.005, 200),  # a softening ramp
], ids=["cli-defaults", "dt-0.01", "softening"])
def test_harmonic_ramp_map_matches_the_leapfrog(omega0, omega1, dt, steps):
    u = harmonic_ramp_map(omega0, omega1, dt, steps)
    leapfrog = leapfrog_map(harmonic_ramp_gradient(omega0, omega1, dt * steps), dt, steps)
    x = 3.0 * np.random.default_rng(11).normal(size=(500, 2))
    assert np.abs(u(x) - leapfrog(x)).max() <= 1e-12
    assert np.abs(u(x[0]) - leapfrog(x[0])).max() <= 1e-12  # one unbatched point
    assert u.dim == 2
    assert abs(np.linalg.det(u(np.eye(2))) - 1.0) <= 1e-12


def test_harmonic_ramp_map_calls_the_gradient_only_while_it_is_built(monkeypatch):
    calls = []

    def counting_gradient(omega0, omega1, duration):
        grad = harmonic_ramp_gradient(omega0, omega1, duration)

        def counted(t, q):
            calls.append(t)
            return grad(t, q)

        return counted

    monkeypatch.setattr(classical, "harmonic_ramp_gradient", counting_gradient)
    u = classical.harmonic_ramp_map(OMEGA0, OMEGA1, 0.005, 200)
    assert len(calls) == 2 * 200
    u(np.random.default_rng(12).normal(size=(1000, 2)))
    assert len(calls) == 2 * 200


def test_jacobian_check_resolves_nonlinear_shears():
    """Shears have det DU = 1 but curved images; composed, their difference errors do not cancel."""
    def shear_p(x):
        return np.stack([x[..., 0], x[..., 1] + np.sin(x[..., 0])], axis=-1)

    def shear_q(x):
        return np.stack([x[..., 0] + np.sin(x[..., 1]), x[..., 1]], axis=-1)

    pts = 3.0 * np.random.default_rng(4).normal(size=(50, 2))
    for forward in (shear_p, lambda x: shear_q(shear_p(x))):
        shear = VolumePreservingMap(forward=forward, dim=2)
        assert jacobian_determinant_check(shear, pts) <= 1e-8


def test_jacobian_check_flags_expansion():
    expanding = identity_map(2)
    bad = type(expanding)(forward=lambda x: 2.0 * np.asarray(x), dim=2)
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


def test_j_expectation_rejects_a_sample_without_overlap():
    """Far-apart frequencies: q o U vanishes on every sample of p; no numpy warning comes first."""
    p = canonical_harmonic_density(1e-100, BETA)
    q = canonical_harmonic_density(1e100, BETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="all 100 ratio samples are 0"):
            classical_j_expectation(p, q, identity_map(2), 100, seed=0)


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
