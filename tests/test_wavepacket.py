"""Tests for the free-wavepacket position/momentum-cell example.

Oracles: mpmath (30+ digits) for the complex error functions, direct
scipy quadrature for overlaps and propagated states, and analytically
validated tail models for the honest truncation bookkeeping.  Frozen
reference numbers in this file were produced by those oracles.
"""

from __future__ import annotations

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from seqmeas import wavepacket
from seqmeas.model import ValidationError
from seqmeas.wavepacket import (
    SQRT_PI,
    DEFAULT_N_P,
    DEFAULT_N_X,
    EntropyCurvePoint,
    TruncatedTable,
    WavepacketConfig,
    _diagonal_bracket,
    _erfi_grid,
    _kernel_factor,
    cell_overlap,
    conditional_kernel,
    entropy_curve,
    entropy_curve_csv,
    erfi_line,
    evolved_cell_state,
    first_marginal,
    scaled_erf_segment,
    second_marginal,
    transition_amplitude,
    transition_probability,
)


def _psi(x: float, sigma: float) -> float:
    """The width-sigma Gaussian, unit norm: pi^(-1/4) sigma^(-1/2) e^(-x^2/(2 sigma^2))."""
    return math.pi ** (-0.25) * sigma ** (-0.5) * math.exp(-x * x / (2.0 * sigma * sigma))


def _quad_complex(f, a: float, b: float, limit: int = 300) -> complex:
    re, _ = quad(lambda x: f(x).real, a, b, limit=limit)
    im, _ = quad(lambda x: f(x).imag, a, b, limit=limit)
    return re + 1j * im


# ------------------------------------------------------ complex error functions


def test_erfi_line_matches_mpmath_and_stays_bounded():
    """erfi on the pi/4 line is Fresnel-like: exactly bounded, never overflows."""
    mpmath.mp.dps = 30
    for t in (1e-4, 0.01, 1.0):
        for u in (-37.0, -2.0, 0.0, 0.3, 5.0, 400.0):
            z = (1.0 + 1.0j) * u / (2.0 * math.sqrt(t))
            want = complex(mpmath.erfi(mpmath.mpc(z.real, z.imag)))
            got = complex(erfi_line(u, t))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    u_grid = np.linspace(-500.0, 500.0, 10001)
    for t in (1e-4, 1e-2, 1.0, 25.0):
        vals = np.abs(erfi_line(u_grid, t))
        assert np.all(np.isfinite(vals))
        assert vals.max() < 1.35
    with pytest.raises(ValidationError):
        erfi_line(1.0, 0.0)


def test_scaled_erf_segment_against_mpmath():
    """e^{-a^2} (erf(x1 + ia) - erf(x0 + ia)) where the factors overflow separately."""
    mpmath.mp.dps = 60
    cases = [(0.0, 0.7, 0.0), (-1.3, 2.0, 1.0), (0.4, 1.1, 6.0),
             (-2.0, -0.5, 11.0), (3.0, 4.0, 20.0), (-40.0, 40.0, 35.0)]
    for x0, x1, a in cases:
        want = complex(mpmath.exp(-mpmath.mpf(a) ** 2)
                       * (mpmath.erf(mpmath.mpc(x1, a)) - mpmath.erf(mpmath.mpc(x0, a))))
        got = complex(scaled_erf_segment(x0, x1, a))
        assert abs(got - want) <= 1e-12 * max(1e-3, abs(want)), (x0, x1, a)


def test_scaled_erf_segment_rejects_negative_a():
    with pytest.raises(ValidationError):
        scaled_erf_segment(0.0, 1.0, -1.0)


# ------------------------------------------------------------- cell overlaps


def test_cell_overlap_against_quadrature():
    for nu, n, sigma in [(0, 0, 1.0), (0, 1, 1.0), (2, -3, 0.7), (-1, 2, 1.5),
                         (3, 7, 1.0), (-4, -12, 0.9)]:
        want = _quad_complex(
            lambda x: _psi(x, sigma) * cmath.exp(-2j * math.pi * n * x), nu, nu + 1)
        got = complex(np.asarray(cell_overlap(nu, n, sigma)).ravel()[0])
        assert abs(got - want) < 1e-13


def test_cell_overlap_conjugation_and_validation():
    a = complex(np.asarray(cell_overlap(1, 4, 1.2)).ravel()[0])
    b = complex(np.asarray(cell_overlap(1, -4, 1.2)).ravel()[0])
    assert a == pytest.approx(b.conjugate(), abs=1e-16)
    with pytest.raises(ValidationError):
        cell_overlap(0, 0, 0.0)


# ------------------------------------------------------------ first marginal


def test_first_marginal_bookkeeping_and_symmetry():
    src = first_marginal(1.0, 4, 32)
    assert src.table.shape == (9, 65)
    np.testing.assert_array_equal(src.first_index, np.arange(-4, 5))
    assert src.table.sum() == pytest.approx(1.0 - src.mass_deficit, abs=1e-15)
    # the even Gaussian maps cell nu onto cell -1-nu with reflected momentum
    for nu in range(-4, 4):
        i, i_ref = nu + 4, (-1 - nu) + 4
        np.testing.assert_allclose(src.table[i], src.table[i_ref, ::-1],
                                   rtol=1e-12, atol=1e-18)


def test_first_marginal_frozen_entropy():
    """Converged window: frozen from the validated closed-form pipeline."""
    src = first_marginal(1.0, 8, 512)
    assert src.entropy() == pytest.approx(1.3851619836934037, abs=1e-12)
    assert src.mass_deficit == pytest.approx(4.3767427343466281e-05, rel=1e-9)


def test_first_marginal_against_mpmath_window():
    """Small window, frozen from a 40-digit mpmath quadrature of the table."""
    src = first_marginal(1.0, 3, 20)
    assert src.entropy() == pytest.approx(1.3705513956050956, abs=1e-11)
    assert 1.0 - src.mass_deficit == pytest.approx(0.99889504897441195, abs=1e-11)


def test_first_marginal_momentum_tail_model():
    """The uncaptured mass decays like 1/(4 pi^2 N_p) (edge-discontinuity tail)."""
    d1 = first_marginal(1.0, 8, 256).mass_deficit
    d2 = first_marginal(1.0, 8, 512).mass_deficit
    for n_p, d in ((256, d1), (512, d2)):
        model = 1.0 / (4.0 * math.pi ** 2 * n_p)
        assert 0.7 * model < d < 1.3 * model
    assert d2 < d1


# ------------------------------------------------------------- evolved cells


def test_evolved_cell_state_t0_is_the_cell():
    x = np.array([-0.5, 0.25, 0.75, 1.5])
    got = evolved_cell_state(0, 3, 0.0, x)
    assert got[0] == 0.0 and got[3] == 0.0
    assert got[1] == pytest.approx(cmath.exp(2j * math.pi * 3 * 0.25), abs=1e-15)


def test_evolved_cell_state_matches_propagator():
    """Convolution with the free kernel e^{i x^2 / 2t} / sqrt(2 pi i t)."""
    for nu, n, t, x in [(0, 0, 0.5, 0.3), (0, 0, 0.5, 2.1), (1, 2, 0.25, 1.7),
                        (-1, -3, 0.1, -0.4)]:
        pref = 1.0 / cmath.sqrt(2j * math.pi * t)
        want = _quad_complex(
            lambda y: pref * cmath.exp(1j * (x - y) ** 2 / (2 * t) + 2j * math.pi * n * y),
            nu, nu + 1, limit=400)
        got = complex(evolved_cell_state(nu, n, t, np.array([x]))[0])
        assert abs(got - want) < 1e-10


def test_evolved_cell_state_norm_with_tail_model():
    """Captured norm on [-D, 1+D] matches 1 - 2t/(pi (D + 1/2)) (long x^-2 tail)."""
    t, d = 0.25, 40.0
    xs = np.linspace(-d, 1.0 + d, 200001)
    phi = evolved_cell_state(0, 0, t, xs)
    norm = float(np.trapezoid(np.abs(phi) ** 2, xs))
    tail = 2.0 * t / (math.pi * (d + 0.5))
    assert abs((1.0 - norm) - tail) < 0.1 * tail


def test_evolved_cell_state_rejects_negative_time():
    with pytest.raises(ValidationError):
        evolved_cell_state(0, 0, -0.1, np.array([0.0]))


# ------------------------------------------------------ transition amplitudes


def test_transition_probability_frozen_pair():
    """The t = 1 cross pair; also the benchmark asymmetry of the kernel."""
    p_a = transition_probability(1, 1, 0, 0, 1.0)
    p_b = transition_probability(0, 0, 1, 1, 1.0)
    assert p_a == pytest.approx(0.0048394632170430931, rel=1e-12)
    assert p_b == pytest.approx(0.0025899694985521016, rel=1e-12)
    # the weighted-detailed-balance symmetry of real protocols is violated
    assert abs(p_a - p_b) > 2e-3


def test_transition_amplitude_against_quadrature():
    """A(mu, m | nu, n; t) = integral of e^{-2 pi i m x} <x|nu, n, t> over the cell."""
    for mu, m, nu, n, t in [(1, 1, 0, 0, 1.0), (0, 0, 1, 1, 1.0),
                            (2, -1, 0, 2, 0.3), (0, 3, 0, 3, 0.7)]:
        want = _quad_complex(
            lambda x: cmath.exp(-2j * math.pi * m * x)
            * complex(evolved_cell_state(nu, n, t, np.array([x]))[0]),
            mu, mu + 1, limit=400)
        got = transition_amplitude(mu, m, nu, n, t)
        assert abs(got - want) < 1e-10, (mu, m, nu, n, t)


def test_transition_probability_translation_invariance():
    """p(mu, m | nu, n) depends on nu - mu only (lattice translation symmetry)."""
    rng = np.random.default_rng(3)
    for _ in range(6):
        mu, nu = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        m, n = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        s = int(rng.integers(-5, 6))
        t = float(rng.uniform(0.05, 1.5))
        a = transition_probability(mu, m, nu, n, t)
        b = transition_probability(mu + s, m, nu + s, n, t)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_transition_probability_parity():
    """Spatial inversion: p(-1-mu, -m | -1-nu, -n) = p(mu, m | nu, n)."""
    for mu, m, nu, n, t in [(1, 1, 0, 0, 1.0), (2, -1, 0, 2, 0.3), (0, 4, -1, 1, 0.6)]:
        a = transition_probability(mu, m, nu, n, t)
        b = transition_probability(-1 - mu, -m, -1 - nu, -n, t)
        assert a == pytest.approx(b, rel=1e-12)


def _oracle_kernel(n: int, t: float, m_values: np.ndarray, d_values: np.ndarray,
                   f_m: np.ndarray, f_n: np.ndarray) -> np.ndarray:
    """p(nu - d, m | nu, n) straight from the erfi grids, one source at a time.

    ``f_m``/``f_n`` are erfi grids over (m_values, d_values +- 1) and
    (d_values +- 1); the second differences, the relative phase
    e^{2 i pi^2 t (m^2 - n^2)} and the modulus are all formed here per n.
    """
    pi2t = math.pi * math.pi * t
    g2_m = f_m[:, :-2] + f_m[:, 2:] - 2.0 * f_m[:, 1:-1]
    g2_n = f_n[:-2] + f_n[2:] - 2.0 * f_n[1:-1]
    phase = np.exp(2j * pi2t * (m_values.astype(float) ** 2 - float(n) ** 2))
    diff = g2_m - phase[:, None] * g2_n[None, :]
    denom = 4.0 * math.pi * (m_values.astype(float) - float(n))
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.abs(diff) ** 2 / denom[:, None] ** 2
    # m = n row: degenerate case with its own closed form
    idx = np.nonzero(m_values == n)[0]
    if idx.size:
        a = d_values.astype(float) + 2.0 * math.pi * n * t
        e_terms = np.exp(0.5j / t * (a - 1.0) ** 2) - 2.0 * np.exp(0.5j / t * a ** 2) \
            + np.exp(0.5j / t * (a + 1.0) ** 2)
        f_terms = -2.0 * a * f_n[1:-1] + (a + 1.0) * f_n[2:] + (a - 1.0) * f_n[:-2]
        bracket = (1.0 + 1.0j) * math.sqrt(t) * e_terms - 1j * SQRT_PI * f_terms
        kernel[idx[0]] = np.abs(bracket) ** 2 / (4.0 * math.pi)
    return kernel


def _kernel(n: int, t: float, m_vals: np.ndarray, d_vals: np.ndarray) -> np.ndarray:
    """``conditional_kernel`` of source n, its inputs built on their own erfi grids."""
    d_ext = np.arange(d_vals[0] - 1, d_vals[-1] + 2)
    f_n = _erfi_grid(np.array([n]), d_ext, t)
    diagonal = np.abs(_diagonal_bracket(n, t, d_vals, f_n[0])) ** 2 / (4.0 * math.pi)
    h_n = _kernel_factor(f_n, np.array([n]), t)[0]
    h_m = _kernel_factor(_erfi_grid(m_vals, d_ext, t), m_vals, t)
    return conditional_kernel(n, m_vals, h_m, h_n, diagonal)


def _row_mass(n: int, t: float, m_half: int, w: int) -> float:
    m_vals = np.arange(-m_half, m_half + 1)
    c = int(np.rint(2.0 * math.pi * n * t))
    return float(_kernel(n, t, m_vals, np.arange(-c - w, -c + w + 1)).sum())


def test_conditional_row_mass_tail_models():
    """Row sums approach one with understood tails.

    The momentum truncation leaves ~1/(pi^2 M); the position window leaves
    ~2t/(pi W) once the spreading has crossed the window scale.  Both
    constants were validated against direct quadrature.
    """
    # position-tail dominated
    deficit = 1.0 - _row_mass(0, 1.0, 200, 40)
    model = 1.0 / (math.pi ** 2 * 200) + 2.0 * 1.0 / (math.pi * 40)
    assert abs(deficit - model) < 0.1 * model
    # momentum-tail dominated (position tail still Gaussian-suppressed)
    deficit2 = 1.0 - _row_mass(0, 1e-3, 200, 30)
    model2 = 1.0 / (math.pi ** 2 * 200)
    assert 0.8 * model2 < deficit2 < 2.0 * model2
    # drifted source: the window must track the classical drift 2 pi n t
    deficit3 = 1.0 - _row_mass(37, 0.5, 300, 30)
    model3 = 1.0 / (math.pi ** 2 * 300) + 2.0 * 0.5 / (math.pi * 30)
    assert 0.75 * model3 < deficit3 < 1.25 * model3


def test_conditional_kernel_matches_direct_probabilities():
    n, t, w = 2, 0.4, 8
    m_vals = np.arange(-6, 7)
    c = int(np.rint(2.0 * math.pi * n * t))
    d_vals = np.arange(-c - w, -c + w + 1)
    kernel = _kernel(n, t, m_vals, d_vals)
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = int(rng.integers(0, m_vals.size))
        b = int(rng.integers(0, d_vals.size))
        d = int(d_vals[b])
        want = transition_probability(-d, int(m_vals[a]), 0, n, t)
        assert kernel[a, b] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_column_sum_near_one():
    """Doubly stochastic in the column direction too (up to honest truncation)."""
    t, big_k, w = 0.05, 300, 14
    total = 0.0
    for n in range(-big_k, big_k + 1):
        total += _row_mass_for_output(n, t, w)
    assert 1.0 - 5e-3 < total <= 1.0 + 1e-9


def _row_mass_for_output(n: int, t: float, w: int) -> float:
    """Kernel mass the source (*, n) sends onto output momentum m = 0."""
    c = int(np.rint(2.0 * math.pi * n * t))
    return float(_kernel(n, t, np.array([0]), np.arange(-c - w, -c + w + 1)).sum())


# ------------------------------------------------------------ second marginal


def test_second_marginal_frozen_values():
    """Default window, frozen from the validated pipeline (t = 1e-3 and 1e-2)."""
    hat = second_marginal(1.0, 1e-3, 8, 512)
    assert hat.entropy() == pytest.approx(1.6557878729421087, abs=1e-10)
    assert hat.mass_deficit == pytest.approx(2.9255017652207727e-4, rel=1e-6)
    hat2 = second_marginal(1.0, 1e-2, 8, 512)
    assert hat2.entropy() == pytest.approx(1.9888439693583391, abs=1e-10)
    assert hat2.mass_deficit == pytest.approx(3.487261510090045e-4, rel=1e-6)


def test_second_marginal_bookkeeping():
    hat = second_marginal(1.0, 0.02, 4, 48, kernel_halfwidth=10)
    assert hat.table.sum() == pytest.approx(1.0 - hat.mass_deficit, abs=1e-15)
    assert np.all(hat.table >= 0.0)
    with pytest.raises(ValidationError):
        second_marginal(1.0, 0.0, 4, 48)


def _slab_loop_second_marginal(sigma, t, n_x, n_p, w):
    """Reference accumulation: one kernel per source momentum, one slab add per source cell."""
    src = first_marginal(sigma, n_x, n_p)
    n_values = np.arange(-n_p, n_p + 1)
    drift = np.rint(2.0 * math.pi * n_values * t).astype(int)
    mu_lo, mu_hi = -n_x + (drift.min() - w), n_x + (drift.max() + w)
    out = np.zeros((mu_hi - mu_lo + 1, n_values.size))
    for b, n in enumerate(n_values):
        c = int(drift[b])
        kernel = _kernel(int(n), t, n_values, np.arange(-c - w, -c + w + 1))
        kernel_mu = kernel[:, ::-1].T  # rows: mu = nu + c - w ... nu + c + w
        for a, nu in enumerate(src.first_index):
            if src.table[a, b] > 0.0:
                row0 = int(nu + c - w - mu_lo)
                out[row0: row0 + 2 * w + 1] += src.table[a, b] * kernel_mu
    return out, np.arange(mu_lo, mu_hi + 1), n_values


@pytest.mark.parametrize("t", [1e-6, 0.004, 0.02, 0.1, 0.5])
def test_second_marginal_matches_the_slab_loop(t):
    want, mu_values, n_values = _slab_loop_second_marginal(1.0, t, 4, 48, 10)
    hat = second_marginal(1.0, t, 4, 48, kernel_halfwidth=10)
    np.testing.assert_array_equal(hat.first_index, mu_values)
    np.testing.assert_array_equal(hat.second_index, n_values)
    np.testing.assert_allclose(hat.table, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, t", [(3, 0.1), (17, 0.02), (40, 0.5)])
def test_conditional_kernel_of_minus_n_is_the_mirror_image(n, t):
    """Spatial inversion: kernel(-n) on d in -c +- w is kernel(n) on -d, reversed m."""
    m_vals, w = np.arange(-48, 49), 10
    c = int(np.rint(2.0 * math.pi * n * t))
    assert c != 0

    def kernel(k, c_k):
        return _kernel(k, t, m_vals, np.arange(-c_k - w, -c_k + w + 1))

    # the smallest entries (~1e-8) come out of a cancelling difference and
    # carry absolute errors near 1e-20, hence the absolute floor
    np.testing.assert_allclose(kernel(-n, -c), kernel(n, c)[::-1, ::-1], rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("n", [0, -37])
@pytest.mark.parametrize("t", [1e-6, 0.02, 0.5])
def test_conditional_kernel_matches_the_per_source_oracle(n, t):
    """The n-independent factor H gives the kernel the per-source formula gives."""
    m_vals, w = np.arange(-48, 49), 10
    c = int(np.rint(2.0 * math.pi * n * t))
    d_vals = np.arange(-c - w, -c + w + 1)
    d_ext = np.arange(d_vals[0] - 1, d_vals[-1] + 2)
    want = _oracle_kernel(n, t, m_vals, d_vals, _erfi_grid(m_vals, d_ext, t),
                          _erfi_grid(np.array([n]), d_ext, t)[0])
    np.testing.assert_allclose(_kernel(n, t, m_vals, d_vals), want, rtol=1e-12, atol=1e-18)


def test_second_marginal_evaluates_each_mirror_pair_once(monkeypatch):
    calls = []
    inner = wavepacket.conditional_kernel

    def counting(n, *args):
        calls.append(n)
        return inner(n, *args)

    monkeypatch.setattr(wavepacket, "conditional_kernel", counting)
    second_marginal(1.0, 0.1, 4, 48, kernel_halfwidth=10)
    assert sorted(calls) == list(range(-48, 1))


def test_second_marginal_accepts_zero_sizes():
    hat = second_marginal(1.0, 0.1, 0, 0, kernel_halfwidth=0)
    assert hat.table.shape == (1, 1)
    assert hat.table.sum() == pytest.approx(1.0 - hat.mass_deficit, abs=1e-15)


@pytest.mark.parametrize("call, name", [
    (lambda: erfi_line(1.0, math.nan), "t = nan"),
    (lambda: erfi_line(1.0, math.inf), "t = inf"),
    (lambda: second_marginal(1.0, math.nan, 4, 48), "t = nan"),
    (lambda: second_marginal(1.0, math.inf, 4, 48), "t = inf"),
    (lambda: second_marginal(1.0, -math.inf, 4, 48), "t = -inf"),
    (lambda: entropy_curve(1.0, [0.01, math.nan], 4, 48), "t = nan"),
    (lambda: second_marginal(1.0, 0.1, 4, 48, kernel_halfwidth=-1), "kernel_halfwidth = -1"),
    (lambda: second_marginal(1.0, 0.1, -2, 48), "n_x = -2"),
    (lambda: first_marginal(1.0, -2, 48), "n_x = -2"),
    (lambda: first_marginal(1.0, 4, -1), "n_p = -1"),
    (lambda: first_marginal(math.nan, 4, 48), "sigma = nan"),
    (lambda: WavepacketConfig(t=math.nan), "t = nan"),
    (lambda: WavepacketConfig(t=math.inf), "t = inf"),
    (lambda: WavepacketConfig(t=-math.inf), "t = -inf"),
    (lambda: WavepacketConfig(t=0.0), "t = 0.0"),
    (lambda: WavepacketConfig(sigma=math.nan), "sigma = nan"),
], ids=["erfi_line-t-nan", "erfi_line-t-inf", "second_marginal-t-nan", "second_marginal-t-inf",
        "second_marginal-t-neginf", "entropy_curve-t-nan", "second_marginal-kernel_halfwidth",
        "second_marginal-n_x", "first_marginal-n_x", "first_marginal-n_p", "first_marginal-sigma",
        "config-t-nan", "config-t-inf", "config-t-neginf", "config-t-zero", "config-sigma-nan"])
def test_wavepacket_edges_raise_validation_errors_naming_the_parameter(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


def test_entropy_curve_memory_peak():
    """The default-window point at t = 0.1 stays below 28 MB of traced allocations.

    With a per-cell slab loop, an erfi argument built in three temporaries
    and a masked entropy sum against a ones array, the peak is 35.8 MB
    (numpy 2.4); the banded accumulation with the in-place temporaries
    peaks at 23.4 MB.
    """
    tracemalloc.start()
    try:
        entropy_curve(1.0, [0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28e6


def test_second_marginal_small_time_limit():
    """As t -> 0 the second marginal converges to the first entrywise."""
    src = first_marginal(1.0, 4, 64)
    hat = second_marginal(1.0, 1e-6, 4, 64, kernel_halfwidth=6)
    diff = hat.table.copy()
    i0 = int(np.searchsorted(hat.first_index, src.first_index[0]))
    j0 = int(np.searchsorted(hat.second_index, src.second_index[0]))
    diff[i0:i0 + src.table.shape[0], j0:j0 + src.table.shape[1]] -= src.table
    assert np.abs(diff).max() < 2e-3
    assert np.abs(diff).sum() < 5e-3


def test_second_marginal_entropy_exceeds_first():
    src = first_marginal(1.0, 4, 48)
    hat = second_marginal(1.0, 0.05, 4, 48, kernel_halfwidth=10)
    assert hat.entropy() > src.entropy()


# -------------------------------------------------------------- entropy curve


def test_entropy_curve_monotone_and_gapped():
    t_values = [0.004, 0.02, 0.1]
    points = entropy_curve(1.0, t_values, n_x=4, n_p=48, kernel_halfwidth=10)
    assert [pt.t for pt in points] == t_values
    s_hat = [pt.s_phat for pt in points]
    for pt in points:
        assert pt.s_phat > pt.s_p
        assert pt.mass_deficit_p < 1e-2
        assert pt.mass_deficit_phat < 2e-2
    assert all(b >= a - 1e-12 for a, b in zip(s_hat, s_hat[1:]))


def test_entropy_curve_csv_format():
    points = [EntropyCurvePoint(t=0.1, s_p=1.25, s_phat=1.5,
                                mass_deficit_p=1e-5, mass_deficit_phat=2e-4,
                                n_x=8, n_p=512)]
    text = entropy_curve_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == "t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.1 and float(cells[2]) == 1.5
    assert cells[5] == "8" and cells[6] == "512"


# ---------------------------------------------------------------- config type


def test_wavepacket_config_invariant():
    cfg = WavepacketConfig()  # defaults must satisfy their own mass bound
    assert cfg.n_x == DEFAULT_N_X and cfg.n_p == DEFAULT_N_P
    with pytest.raises(ValidationError, match="captures only"):
        WavepacketConfig(n_p=128)
    with pytest.raises(ValidationError, match="sigma"):
        WavepacketConfig(sigma=-1.0)
    with pytest.raises(ValidationError, match="t = -0.5 must be positive"):
        WavepacketConfig(t=-0.5)
    # a looser bound admits the smaller window
    ok = WavepacketConfig(n_p=128, mass_tolerance=1e-3)
    assert ok.n_p == 128
