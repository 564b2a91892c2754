"""Tests for the free-wavepacket position/momentum-cell example.

Oracles: mpmath (30+ digits) for the complex error functions, direct
scipy quadrature for overlaps and propagated states, and analytically
validated tail models for the honest truncation bookkeeping.  Frozen
reference numbers in this file were produced by those oracles.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import threading
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfi

from seqmeas import cli, wavepacket
from seqmeas.model import ValidationError
from seqmeas.wavepacket import (
    SQRT_PI,
    EntropyCurvePoint,
    TruncatedTable,
    _diagonal_bracket,
    _erfi_grid,
    _inverse_square,
    _kernel_factor,
    cell_overlap,
    conditional_kernel,
    entropy_curve,
    erfi_line,
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


@pytest.mark.parametrize("n_x, n_p", [(8, 512), (4, 48)])
def test_first_marginal_equals_its_momentum_mirror_bit_for_bit(n_x, n_p):
    """p(nu, -n) = p(nu, n) exactly (negative n conjugates), so second_marginal multiplies one copy."""
    table = first_marginal(1.0, n_x, n_p).table
    assert np.array_equal(table, table[:, ::-1])


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


def evolved_cell_state(nu: int, n: int, t: float, x):
    """Oracle of ``transition_amplitude``: the freely evolved cell state |nu, n, t> at positions x,
    in closed form on the pi/4 line (checked against the propagator by quadrature below)."""
    x = np.asarray(x, dtype=float)
    if t == 0:
        inside = (x >= nu) & (x <= nu + 1)
        return np.where(inside, np.exp(2j * math.pi * n * x), 0.0j)
    pref = 0.5j * np.exp(-2j * math.pi * n * (math.pi * n * t - x))
    drift = 2.0 * math.pi * n * t
    return pref * (erfi_line(nu + drift - x, t) - erfi_line(nu + 1.0 + drift - x, t))


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


def test_transition_amplitude_at_t_zero_and_below():
    """t = 0 is the Kronecker overlap of the cells; a negative t is rejected."""
    assert transition_amplitude(0, 1, 0, 1, 0.0) == 1.0
    assert transition_amplitude(0, 1, 0, 2, 0.0) == 0.0
    assert transition_amplitude(1, 1, 0, 1, 0.0) == 0.0
    with pytest.raises(ValidationError, match="^t must be nonnegative$"):
        transition_amplitude(0, 0, 0, 0, -1e-3)


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
    """p(nu - d, m | nu, n) on (m_vals, d_vals): the one-source ``conditional_kernel`` of each d.

    The inputs are built on their own erfi grid, over the consecutive
    momenta that span m_vals and n; d_vals is consecutive.
    """
    k_vals = np.arange(min(int(m_vals.min()), n), max(int(m_vals.max()), n) + 1)
    f = _erfi_grid(k_vals, np.arange(d_vals[0] - 1, d_vals[-1] + 2), t)
    a = n - int(k_vals[0])
    diagonal = np.abs(_diagonal_bracket(n, t, d_vals, f[a])) ** 2 / (4.0 * math.pi)
    h = _kernel_factor(f, k_vals, t)
    inv_sq, buffers = _inverse_square(k_vals.size), np.empty((2, 1, k_vals.size))
    rows = [conditional_kernel(h[:, j], a, diagonal[j: j + 1], inv_sq, buffers)[0].copy()
            for j in range(d_vals.size)]
    return np.array(rows)[:, m_vals - k_vals[0]].T


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


@pytest.mark.parametrize("t, w", [(1e-6, 6), (0.02, 6), (1e-6, 0), (0.02, 0)])
def test_second_marginal_matches_the_slab_loop_across_kernel_blocks(t, w):
    """321 source momenta: at t = 1e-6 every offset's sources span three kernel blocks."""
    want, mu_values, n_values = _slab_loop_second_marginal(1.0, t, 2, 160, w)
    hat = second_marginal(1.0, t, 2, 160, kernel_halfwidth=w)
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
    """One kernel per column range of each source block of each offset d in [d_lo, 0]; -d is
    its mirror, never evaluated.  The ranges of a block tile the output momenta, each once,
    and the set of ranges is closed under m -> -m.

    At n_p = 160, t = 1e-6 every offset's 321 sources span three blocks.
    """
    w, calls = 10, []
    inner = wavepacket.conditional_kernel

    def counting(h_d, a, diagonal, inv_sq, buffers, columns):
        calls.append((h_d.copy(), a, a + len(diagonal), columns.indices(len(h_d))[:2]))
        return inner(h_d, a, diagonal, inv_sq, buffers, columns)

    monkeypatch.setattr(wavepacket, "conditional_kernel", counting)
    for n_p, t in ((48, 0.1), (160, 1e-6)):
        calls.clear()
        second_marginal(1.0, t, 4, n_p, kernel_halfwidth=w)
        n_values = np.arange(-n_p, n_p + 1)
        size = n_values.size
        drift = np.rint(2.0 * math.pi * n_values * t).astype(int)
        d_lo = int(-drift.max() - w)
        h_ref = _kernel_factor(_erfi_grid(n_values, np.arange(d_lo - 1, -d_lo + 2), t), n_values, t)
        ranges = {}
        for h_d, a, b, columns in calls:
            dist = np.abs(h_ref - h_d[:, None]).max(axis=0)
            assert dist.min() <= 1e-14
            ranges.setdefault((d_lo + int(dist.argmin()), a, b), []).append(columns)
        want = []
        for d in range(d_lo, 1):
            sources = np.flatnonzero(np.abs(d + drift) <= w)
            assert np.array_equal(sources, np.arange(sources[0], sources[-1] + 1))
            want += [(d, a, min(a + wavepacket.KERNEL_BLOCK, sources[-1] + 1))
                     for a in range(sources[0], sources[-1] + 1, wavepacket.KERNEL_BLOCK)]
        assert sorted(ranges) == sorted(want)
        for key, cols in ranges.items():
            assert max(Counter(cols).values()) == 1, key
            tiles = sorted(cols)
            assert [c0 for c0, _ in tiles] == [0] + [c1 for _, c1 in tiles[:-1]], key
            assert tiles[-1][1] == size and all(c0 < c1 for c0, c1 in tiles), key
            assert sorted((size - c1, size - c0) for c0, c1 in tiles) == tiles, key


def _cpus(monkeypatch, n: int):
    """Make the process see n CPUs, so second_marginal runs its halves at once (n = 2) or in turn."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("t, n_x, n_p, w", [(1e-3, 8, 512, 24), (1e-1, 8, 512, 24), (1e-6, 2, 160, 6)])
def test_second_marginal_does_not_depend_on_the_thread_count(monkeypatch, t, n_x, n_p, w):
    """The same table, bit for bit, whether the two halves run at once or one after the other."""
    order, inner = [], wavepacket.conditional_kernel

    def recording(*args):
        order.append(threading.get_ident())
        return inner(*args)

    monkeypatch.setattr(wavepacket, "conditional_kernel", recording)
    _cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often, so a lost update would show
    try:
        both = second_marginal(1.0, t, n_x, n_p, kernel_halfwidth=w)
    finally:
        sys.setswitchinterval(interval)
    assert len(set(order)) == 2  # the helper thread took a half
    order.clear()
    _cpus(monkeypatch, 1)
    serial = second_marginal(1.0, t, n_x, n_p, kernel_halfwidth=w)
    helper = [k for k, ident in enumerate(order) if ident != threading.get_ident()]
    assert helper == list(range(len(helper))) and 0 < len(helper) < len(order)  # in turn
    assert np.array_equal(both.table, serial.table)
    assert both.mass_deficit == serial.mass_deficit


def test_the_halves_run_where_os_has_no_sched_getaffinity(monkeypatch):
    """Python has no os.sched_getaffinity on macOS and Windows: the CPU count falls back to
    os.cpu_count, and the results keep their bits."""
    marginal, pair = second_marginal(1.0, 0.01, 2, 16, 4), transition_probability(1, 1, 0, 0, 1.0)
    monkeypatch.delattr(os, "sched_getaffinity")
    fallback = second_marginal(1.0, 0.01, 2, 16, 4)
    assert np.array_equal(fallback.table, marginal.table)
    assert fallback.mass_deficit == marginal.mass_deficit
    assert transition_probability(1, 1, 0, 0, 1.0) == pair


@pytest.mark.parametrize("cpus", [2, 1])
def test_erfi_line_in_halves_equals_erfi_of_the_whole(monkeypatch, cpus):
    """erfi_line splits its argument between two threads: the result is scipy's erfi of the whole."""
    _cpus(monkeypatch, cpus)
    for u in (0.3, np.linspace(-40.0, 40.0, 7), np.linspace(-300.0, 300.0, 64).reshape(8, 8)):
        z = np.multiply(u, 1.0 + 1.0j) / (2.0 * math.sqrt(0.1))
        got = erfi_line(u, 0.1)
        assert np.shape(got) == np.shape(u)
        assert np.array_equal(got, erfi(z))


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("on_helper", [True, False], ids=["helper-raises", "caller-raises"])
def test_second_marginal_passes_a_thread_error_on_and_leaves_no_thread(monkeypatch, cpus, on_helper):
    """The first kernel call of one thread raises: the caller gets that very exception, and the
    helper thread is gone when second_marginal returns."""
    raised, inner = [], wavepacket.conditional_kernel

    def failing(*args):
        if not raised and (threading.current_thread() is not threading.main_thread()) == on_helper:
            raised.append(ValidationError("planted kernel failure"))
            raise raised[0]
        return inner(*args)

    monkeypatch.setattr(wavepacket, "conditional_kernel", failing)
    _cpus(monkeypatch, cpus)
    before = threading.active_count()
    with pytest.raises(ValidationError, match="planted kernel failure") as excinfo:
        second_marginal(1.0, 0.02, 4, 48, kernel_halfwidth=10)
    assert excinfo.value is raised[0]
    assert threading.active_count() == before


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
], ids=["erfi_line-t-nan", "erfi_line-t-inf", "second_marginal-t-nan", "second_marginal-t-inf",
        "second_marginal-t-neginf", "entropy_curve-t-nan", "second_marginal-kernel_halfwidth",
        "second_marginal-n_x", "first_marginal-n_x", "first_marginal-n_p", "first_marginal-sigma"])
def test_wavepacket_edges_raise_validation_errors_naming_the_parameter(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


def test_entropy_curve_memory_peak():
    """Default-window points stay below 28 MB (t = 0.1) and 12 MB (t = 1e-3) of traced allocations.

    With a per-cell slab loop, an erfi argument built in three temporaries
    and a masked entropy sum against a ones array, the t = 0.1 peak is
    35.8 MB (numpy 2.4); the banded accumulation with the in-place
    temporaries peaked at 23.4 MB.  At t = 1e-3 most offsets are reached by
    all 1025 sources: kernel blocks of the full source range would hold
    two 1025 x 1025 buffers (about 22 MB in all).
    """
    peaks = {}
    tracemalloc.start()
    try:
        for t in (0.1, 1e-3):
            tracemalloc.reset_peak()
            entropy_curve(1.0, [t])
            peaks[t] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peaks[0.1] < 28e6
    assert peaks[1e-3] < 12e6


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


def test_a_curve_builds_the_first_marginal_once(monkeypatch):
    """One curve over three times evaluates cell_overlap for one window, once: the curve and
    its three second marginals share one read-only first marginal, built as before."""
    first_marginal.cache_clear()
    windows = []
    inner = wavepacket.cell_overlap

    def counting(nu, n, sigma):
        windows.append((np.shape(nu), np.shape(n), sigma))
        return inner(nu, n, sigma)

    monkeypatch.setattr(wavepacket, "cell_overlap", counting)
    points = entropy_curve(1.0, [0.004, 0.02, 0.1], n_x=4, n_p=48, kernel_halfwidth=10)
    assert windows == [((9, 1), (1, 97), 1.0)]
    src = first_marginal(1.0, 4, 48)
    assert len(windows) == 1 and not src.table.flags.writeable
    nus, ns = np.arange(-4, 5), np.arange(-48, 49)
    np.testing.assert_array_equal(src.table, np.abs(inner(nus[:, None], ns[None, :], 1.0)) ** 2)
    assert [pt.s_p for pt in points] == [src.entropy()] * 3


def test_entropy_curve_csv_format():
    points = [EntropyCurvePoint(t=0.1, s_p=1.25, s_phat=1.5,
                                mass_deficit_p=1e-5, mass_deficit_phat=2e-4,
                                n_x=8, n_p=512)]
    text = cli._csv(*cli._curve(points))
    lines = text.strip().split("\n")
    assert lines[0] == "t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.1 and float(cells[2]) == 1.5
    assert cells[5] == "8" and cells[6] == "512"
