"""Tests for the classical phase-space ratio identity and work statistics."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from seqmeas.classical import (
    CanonicalHarmonicState,
    VolumePreservingMap,
    classical_j_expectation,
    gauss_hermite_quench,
    harmonic_ramp_map,
    jacobian_determinant_check,
)
from seqmeas.model import PreconditionError, ValidationError


BETA, OMEGA0, OMEGA1 = 1.0, 1.0, 2.0
DELTA_F = math.log(OMEGA1 / OMEGA0) / BETA  # from Z = 2 pi / (beta omega)
QUENCH = VolumePreservingMap(np.eye(2))


# ------------------------------------------------------------------ densities


def test_harmonic_energy_convention():
    h = CanonicalHarmonicState(2.0, BETA).energy
    # x = (q, p): H = p^2/2 + omega^2 q^2/2
    assert h(np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-15)
    assert h(np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)
    assert h(np.array([[1.0, 3.0], [0.5, 0.0]])) == pytest.approx([0.5 * 9.0 + 2.0, 0.5], abs=1e-12)
    with pytest.raises(ValidationError):
        CanonicalHarmonicState(0.0, BETA)


def test_canonical_density_is_normalized_on_a_grid():
    d = CanonicalHarmonicState(OMEGA1, 0.7)
    qs = np.linspace(-8, 8, 801)
    ps = np.linspace(-10, 10, 1001)
    grid = np.stack(np.meshgrid(qs, ps, indexing="ij"), axis=-1)
    vals = np.exp(d.log_density(grid))
    total = np.trapezoid(np.trapezoid(vals, ps, axis=1), qs)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_canonical_sampler_moments():
    d = CanonicalHarmonicState(OMEGA1, BETA)
    x = d.sample(np.random.default_rng(42), 200_000)
    var_q, var_p = x[:, 0].var(), x[:, 1].var()
    # population values 1/(beta omega^2) and 1/beta, 4-sigma CLT windows
    se = math.sqrt(2.0 / 200_000)
    assert abs(var_q - 1.0 / OMEGA1 ** 2) < 4 * se * (1.0 / OMEGA1 ** 2)
    assert abs(var_p - 1.0) < 4 * se
    assert abs(np.mean(x)) < 0.01


def test_canonical_density_validation():
    with pytest.raises(ValidationError):
        CanonicalHarmonicState(1.0, 0.0)


# ----------------------------------------------------------------------- maps


def _rotation(omega: float, t: float) -> np.ndarray:
    """Matrix, acting on rows, of the exact harmonic flow
    (q, p) -> (q cos wt + (p/w) sin wt, -q w sin wt + p cos wt)."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    return np.array([[c, -omega * s], [s / omega, c]])


def _leapfrog(omega0: float, omega1: float, dt: float, steps: int, x: np.ndarray) -> np.ndarray:
    """Reference kick-drift-kick leapfrog of the linear frequency ramp, run on every point."""
    duration = dt * steps

    def grad(t, q):
        w = omega0 + (omega1 - omega0) * min(max(t / duration, 0.0), 1.0)
        return w * w * q

    q, p = np.array(x[..., 0], copy=True), np.array(x[..., 1], copy=True)
    t = 0.0
    for _ in range(steps):
        p -= 0.5 * dt * grad(t, q)
        q += dt * p
        p -= 0.5 * dt * grad(t + dt, q)
        t += dt
    return np.stack([q, p], axis=-1)


def test_ramp_map_at_constant_frequency_converges_to_rotation_quadratically():
    x = np.random.default_rng(5).normal(size=(50, 2))
    exact = x @ _rotation(OMEGA0, 1.0)

    def err(dt: float) -> float:
        u = harmonic_ramp_map(OMEGA0, OMEGA0, dt, int(round(1.0 / dt)))
        return float(np.abs(u(x) - exact).max())

    e1, e2 = err(0.01), err(0.005)
    assert e1 < 1e-4
    assert 3.6 < e1 / e2 < 4.4  # second-order integrator


def test_ramp_map_volume_preservation():
    assert jacobian_determinant_check(harmonic_ramp_map(OMEGA0, OMEGA1, 0.005, 200)) < 1e-8


def test_ramp_map_validation():
    with pytest.raises(ValidationError):
        harmonic_ramp_map(OMEGA0, OMEGA1, 0.0, 10)
    with pytest.raises(ValidationError, match="^steps = 0 must be >= 1$"):
        harmonic_ramp_map(OMEGA0, OMEGA1, 0.01, 0)
    with pytest.raises(ValidationError, match="^duration = inf must be positive and finite$"):
        harmonic_ramp_map(OMEGA0, OMEGA1, 1e308, 10)


@pytest.mark.parametrize("omega, beta, named", [
    (1e-200, 1.0, "omega = 1e-200: the squared scale omega^2"),
    (1e200, 1.0, "omega = 1e+200: the squared scale omega^2"),
    (1.0, 1e-310, "beta = 1e-310: the squared scale 1/beta"),
    (1e-100, 1e-150, "omega = 1e-100, beta = 1e-150: the squared scale 1/(beta omega^2)"),
], ids=["omega-tiny", "omega-huge", "beta-tiny", "position-variance"])
def test_canonical_density_rejects_scales_that_overflow(omega, beta, named):
    with pytest.raises(ValidationError, match="^" + re.escape(f"{named} = exp")):
        CanonicalHarmonicState(omega, beta)


def test_canonical_density_keeps_scales_inside_the_bound():
    """Near the bound (omega^2 = 1e-280) samples and log densities stay finite and silent."""
    d = CanonicalHarmonicState(1e-140, 1.0)
    log_p = d.log_density(d.sample(np.random.default_rng(13), 1000))
    assert np.all(np.isfinite(log_p))


@pytest.mark.parametrize("build, name", [
    (lambda v: CanonicalHarmonicState(1.0, v), "beta"),
    (lambda v: CanonicalHarmonicState(v, 1.0), "omega"),
    (lambda v: harmonic_ramp_map(v, 2.0, 0.01, 100), "omega0"),
    (lambda v: harmonic_ramp_map(1.0, v, 0.01, 100), "omega1"),
    (lambda v: harmonic_ramp_map(1.0, 2.0, v, 10), "dt"),
    (lambda v: gauss_hermite_quench(1.0, 1.0, v), "omega1"),
], ids=["density-beta", "density-omega", "ramp-omega0", "ramp-omega1", "ramp-map-dt", "quadrature-omega1"])
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
    x = 3.0 * np.random.default_rng(11).normal(size=(500, 2))
    assert np.abs(u(x) - _leapfrog(omega0, omega1, dt, steps, x)).max() <= 1e-12
    assert np.abs(u(x[0]) - _leapfrog(omega0, omega1, dt, steps, x[0])).max() <= 1e-12  # one unbatched point
    assert u.matrix.shape == (2, 2)
    assert abs(np.linalg.det(u.matrix) - 1.0) <= 1e-12


@pytest.mark.parametrize("omega0, omega1, dt, steps", [
    (1.0, 2.0, 0.005, 200),
    (1.0, 2.0, 0.01, 100),
    (2.0, 0.5, 0.005, 200),
], ids=["cli-defaults", "dt-0.01", "softening"])
def test_ramp_map_is_time_reversible(omega0, omega1, dt, steps):
    """Kick-drift-kick is symmetric: flip p, run the reversed ramp, flip p, and every point is back."""
    flip = np.diag([1.0, -1.0])
    forward = harmonic_ramp_map(omega0, omega1, dt, steps).matrix
    backward = harmonic_ramp_map(omega1, omega0, dt, steps).matrix
    assert np.abs(forward @ flip @ backward @ flip - np.eye(2)).max() <= 1e-12


def test_jacobian_check_flags_expansion():
    assert jacobian_determinant_check(VolumePreservingMap(2.0 * np.eye(2))) == 3.0  # det = 4


# ------------------------------------------------------------ ratio estimator


def test_j_expectation_trivial_case_is_exact():
    d = CanonicalHarmonicState(OMEGA0, BETA)
    res = classical_j_expectation(d, d, QUENCH, 1000, seed=0)
    assert res.mean == pytest.approx(1.0, abs=1e-15)
    assert res.std_error == pytest.approx(0.0, abs=1e-15)
    assert res.effective_sample_size == pytest.approx(1000.0, rel=1e-12)


def test_j_expectation_quench_within_three_standard_errors():
    p = CanonicalHarmonicState(OMEGA0, BETA)
    q = CanonicalHarmonicState(OMEGA1, BETA)
    for seed in (0, 1, 2):
        res = classical_j_expectation(p, q, QUENCH, 100_000, seed=seed)
        assert abs(res.mean - 1.0) <= 3.0 * res.std_error, (seed, res)
        assert res.effective_sample_size > 10_000


def test_j_expectation_is_deterministic_per_seed():
    p = CanonicalHarmonicState(OMEGA0, BETA)
    q = CanonicalHarmonicState(OMEGA1, BETA)
    a = classical_j_expectation(p, q, QUENCH, 5000, seed=123)
    b = classical_j_expectation(p, q, QUENCH, 5000, seed=123)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = classical_j_expectation(p, q, QUENCH, 5000, seed=124)
    assert c.mean != a.mean


def test_j_expectation_rejects_nonfinite_ratios(monkeypatch):
    broken, d = CanonicalHarmonicState(OMEGA0, BETA), CanonicalHarmonicState(OMEGA0, BETA)
    log_density = CanonicalHarmonicState.log_density

    def broken_log_density(self, x):
        out = log_density(self, x)
        return np.where(np.abs(x[..., 0]) > 1.0, -np.inf, out) if self is broken else out

    monkeypatch.setattr(CanonicalHarmonicState, "log_density", broken_log_density)
    with pytest.raises(PreconditionError, match="non-finite"):
        classical_j_expectation(broken, d, QUENCH, 2000, seed=0)


def test_j_expectation_rejects_a_sample_without_overlap():
    """Far-apart frequencies: q o U vanishes on every sample of p; no numpy warning comes first."""
    p = CanonicalHarmonicState(1e-100, BETA)
    q = CanonicalHarmonicState(1e100, BETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="all 100 ratio samples are 0"):
            classical_j_expectation(p, q, QUENCH, 100, seed=0)


def test_j_expectation_validation():
    d = CanonicalHarmonicState(OMEGA0, BETA)
    with pytest.raises(ValidationError, match="samples"):
        classical_j_expectation(d, d, QUENCH, 1, seed=0)


@pytest.mark.parametrize("n, named", [(1, "n = 1 must be >= 2"), (2.5, "n = 2.5 must be a nonnegative integer"),
                                      (-3, "n = -3 must be a nonnegative integer")],
                         ids=["one", "float", "negative"])
def test_j_expectation_names_a_bad_sample_count(n, named):
    """A count below 2 or not an integer is a ValidationError naming n and its value, never numpy's TypeError."""
    d = CanonicalHarmonicState(OMEGA0, BETA)
    with pytest.raises(ValidationError, match=named):
        classical_j_expectation(d, d, QUENCH, n, seed=0)


# -------------------------------------------------------------- work averages


def test_quench_work_formula():
    x = np.random.default_rng(4).normal(size=(100, 2))
    w = CanonicalHarmonicState(OMEGA1, BETA).energy(QUENCH(x)) - CanonicalHarmonicState(OMEGA0, BETA).energy(x)
    np.testing.assert_allclose(w, 0.5 * (OMEGA1 ** 2 - OMEGA0 ** 2) * x[:, 0] ** 2,
                               rtol=1e-12, atol=1e-14)


def test_gauss_hermite_quench_matches_frequency_ratio():
    """<exp(-beta w)> for the sudden quench equals omega0/omega1 exactly."""
    for beta, w0, w1 in [(1.0, 1.0, 2.0), (0.37, 0.7, 1.5), (2.2, 1.5, 0.7)]:
        v = gauss_hermite_quench(beta, w0, w1)
        assert v == pytest.approx(w0 / w1, abs=1e-13)


def test_gauss_hermite_quench_monte_carlo_agreement():
    p = CanonicalHarmonicState(OMEGA0, BETA)
    rng = np.random.default_rng(8)
    x = p.sample(rng, 200_000)
    w = CanonicalHarmonicState(OMEGA1, BETA).energy(QUENCH(x)) - p.energy(x)
    est = float(np.mean(np.exp(-BETA * w)))
    se = float(np.std(np.exp(-BETA * w), ddof=1) / math.sqrt(x.shape[0]))
    assert abs(est - gauss_hermite_quench(BETA, OMEGA0, OMEGA1)) < 3.5 * se
