"""Exactly solvable free-particle realization on phase-space cells.

The measurement basis consists of unit cells  |nu, n> = chi_[nu, nu+1](x)
exp(2 pi i n x)  (units with cell width = mass = hbar = 1), a discretized
joint position-momentum reading.  A normalized Gaussian of width sigma is
measured in this basis, evolves freely for a time t, and is measured
again.  Every amplitude has a closed form in error functions of complex
argument; all evolved-state arguments lie on the lines arg z = +-pi/4
where |exp(z^2)| = 1, so the expressions are evaluated through the
Faddeeva function without overflow.  The Gaussian overlaps need the
explicitly scaled combination  exp(-A^2) erf(x + iA)  since both factors
over/underflow separately for large momentum index.

The outcome sets are countably infinite; all tables here are explicit
finite truncations that record the probability mass they failed to
capture (``mass_deficit``) instead of renormalizing.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erfi as _scipy_erfi, wofz as _faddeeva

from .model import ValidationError, require_count, require_positive, shannon_entropy

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)

# Defaults calibrated in the test suite: position window +-8 covers the
# sigma = 1 Gaussian to ~1e-15 per cell; the momentum tail falls off only
# like 1/n^2 (cell-edge discontinuities), so the momentum window is large.
DEFAULT_N_X = 8
DEFAULT_N_P = 512
# Half-width of the per-source position window of the conditional kernel,
# measured from the classical drift 2 pi n t.
DEFAULT_KERNEL_HALFWIDTH = 24
# Times of the default entropy curve: 13 log-spaced points from 1e-4 to 1e-1.
DEFAULT_T_GRID = np.logspace(-4, -1, 13)
# Sources per kernel block of the second marginal; bounds the two block buffers of each thread.
KERNEL_BLOCK = 128


def _both_halves(work, first, second) -> None:
    """work(first) on a helper thread that ends with this call, work(second) here; at once if 2+ CPUs."""
    with ThreadPoolExecutor(1) as helper:
        future = helper.submit(work, first)
        if (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2:
            future.result()
        work(second)
        future.result()


def erfi_line(u, t: float):
    """erfi((1 + i) u / (2 sqrt(t)))  for real u: the pi/4-line evaluations.

    The square of the argument is purely imaginary, so the result is
    bounded (Fresnel-like) for every u and never overflows.
    """
    require_positive("t", t)
    z = np.multiply(u, 1.0 + 1.0j, out=np.empty(np.shape(u), complex))
    z /= 2.0 * math.sqrt(t)
    _both_halves(lambda part: _scipy_erfi(part, out=part), *np.array_split(z.reshape(-1), 2))
    return z


def scaled_erf_segment(x0, x1, a):
    """exp(-a^2) * (erf(x1 + i a) - erf(x0 + i a))  for real x0, x1, a >= 0.

    Both factors explode separately for large a (|erf(x + ia)| grows like
    exp(a^2 - x^2)); the product stays bounded and is assembled here from
    Faddeeva evaluations with nonnegative imaginary part only.
    """
    x0, x1, a = np.broadcast_arrays(np.asarray(x0, float), np.asarray(x1, float), np.asarray(a, float))
    if np.any(a < 0):
        raise ValidationError("a must be nonnegative (conjugate the result for negative a)")

    def g(x):
        # g(x) = exp(-a^2 - (x + ia)^2) w(i(x + ia)), evaluated stably:
        #   x >= 0: exp(-x^2 - 2ixa) w(ix - a)          (Im = x >= 0)
        #   x <  0: 2 exp(-a^2) - exp(-x^2 - 2ixa) w(a - ix)   (Im = -x > 0)
        out = np.empty(x.shape, dtype=complex)
        pos = x >= 0
        if np.any(pos):
            xp, ap = x[pos], a[pos]
            out[pos] = np.exp(-xp * xp - 2j * xp * ap) * _faddeeva(1j * xp - ap)
        if np.any(~pos):
            xm, am = x[~pos], a[~pos]
            out[~pos] = 2.0 * np.exp(-am * am) - np.exp(-xm * xm - 2j * xm * am) * _faddeeva(am - 1j * xm)
        return out

    return g(x0) - g(x1)


def cell_overlap(nu, n, sigma: float):
    """Overlap <nu, n | psi> of the width-sigma Gaussian with a basis cell.

    Closed form: (pi^(1/4) sqrt(sigma) / sqrt(2)) exp(-2 pi^2 n^2 sigma^2)
    [erf((nu + 1 + 2 pi i n sigma^2)/(sqrt(2) sigma)) - erf(... nu ...)],
    evaluated in the scaled form.  Negative n by complex conjugation
    (the Gaussian is real).
    """
    require_positive("sigma", sigma)
    nu_b, n_b = np.broadcast_arrays(np.asarray(nu, float), np.asarray(n, float))
    a = SQRT2 * math.pi * np.abs(n_b) * sigma
    x0, x1 = nu_b / (SQRT2 * sigma), (nu_b + 1.0) / (SQRT2 * sigma)
    pref = math.pi ** 0.25 * math.sqrt(sigma) / SQRT2
    val = pref * scaled_erf_segment(x0, x1, a)
    return np.where(n_b < 0, np.conj(val), val)


@dataclass(frozen=True)
class TruncatedTable:
    """Probability table on an explicit rectangular index window.

    ``table[k, l]`` is the probability of (first_index[k], second_index[l]);
    ``mass_deficit`` is the probability the window failed to capture.
    """

    table: np.ndarray
    first_index: np.ndarray
    second_index: np.ndarray
    mass_deficit: float

    def entropy(self) -> float:
        """Shannon entropy (natural log) of the captured mass, no renormalization."""
        return shannon_entropy(self.table.ravel(), check_normalized=False)


@functools.lru_cache(maxsize=4)
def first_marginal(sigma: float, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P) -> TruncatedTable:
    """Table p(nu, n) = |<nu, n | psi>|^2 on the window |nu| <= n_x, |n| <= n_p, built once
    per window for a curve, its second marginals and the CLI's window check: read-only."""
    require_count("n_x", n_x)
    require_count("n_p", n_p)
    nus, ns = np.arange(-n_x, n_x + 1), np.arange(-n_p, n_p + 1)
    p = np.abs(cell_overlap(nus[:, None], ns[None, :], sigma)) ** 2
    for arr in (p, nus, ns):
        arr.setflags(write=False)
    return TruncatedTable(table=p, first_index=nus, second_index=ns,
                          mass_deficit=max(0.0, 1.0 - float(p.sum())))


def _erfi_grid(k_values: np.ndarray, d_values: np.ndarray, t: float) -> np.ndarray:
    """F[k, d] = erfi((1 + i)(2 pi k t + d) / (2 sqrt(t))); d-major, so a d window is one block."""
    args = 2.0 * math.pi * t * k_values[None, :] + d_values[:, None]
    return erfi_line(args, t).T


def _kernel_factor(f: np.ndarray, k_values: np.ndarray, t: float) -> np.ndarray:
    """H[k, d] = exp(-2 i pi^2 t k^2) (F(k, d-1) - 2 F(k, d) + F(k, d+1)), written over F.

    ``f`` is an ``_erfi_grid`` over (k_values, d_values +- 1).  H overwrites
    its inner columns 64 rows at a time, so no second grid-sized array
    exists; the returned view holds H on (k_values, d_values).
    """
    phase = np.exp(-2j * math.pi * math.pi * t * k_values.astype(float) ** 2)
    for r in range(0, len(f), 64):
        chunk = f[r: r + 64]
        h = chunk[:, :-2] + chunk[:, 2:]
        h -= 2.0 * chunk[:, 1:-1]
        h *= phase[r: r + 64, None]
        chunk[:, 1:-1] = h
    return f[:, 1:-1]


def _diagonal_bracket(n, t: float, d, f_n: np.ndarray):
    """2 sqrt(pi) exp(2 i pi^2 t n^2) <nu - d, n | nu, n, t>: the m = n closed form.

    ``f_n`` holds F(n, .) on its last axis, one entry beyond ``d`` at each
    end; ``n`` and ``d`` broadcast, so one call serves many sources.
    """
    a = d + 2.0 * math.pi * n * t
    e_terms = np.exp(0.5j / t * (a - 1.0) ** 2) - 2.0 * np.exp(0.5j / t * a ** 2) \
        + np.exp(0.5j / t * (a + 1.0) ** 2)
    f_terms = -2.0 * a * f_n[..., 1:-1] + (a + 1.0) * f_n[..., 2:] + (a - 1.0) * f_n[..., :-2]
    return (1.0 + 1.0j) * math.sqrt(t) * e_terms - 1j * SQRT_PI * f_terms


def transition_amplitude(mu: int, m: int, nu: int, n: int, t: float) -> complex:
    """Amplitude <mu, m | nu, n, t> of the second measurement outcome.

    Closed form in pi/4-line erfi evaluations: (H_m - H_n) / (4 pi (m - n))
    with H the ``_kernel_factor`` at d = nu - mu; the m = n case has its own
    expression (the generic one degenerates).  t = 0 returns the Kronecker
    overlap of the cells.
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0:
        return complex(1.0 if (mu == nu and m == n) else 0.0)
    d = nu - mu
    f = _erfi_grid(np.array([m, n]), np.arange(d - 1, d + 2), t)
    if m == n:
        return complex(np.exp(-2j * math.pi * math.pi * t * n * n) / (2.0 * SQRT_PI)
                       * _diagonal_bracket(n, t, d, f[1])[0])
    h = _kernel_factor(f, np.array([m, n]), t)[:, 0]
    return complex((h[0] - h[1]) / (4.0 * math.pi * (m - n)))


def transition_probability(mu: int, m: int, nu: int, n: int, t: float) -> float:
    """Conditional probability p(mu, m | nu, n) of the second outcome."""
    return abs(transition_amplitude(mu, m, nu, n, t)) ** 2


def _inverse_square(size: int) -> np.ndarray:
    """Toeplitz view T[n, m] = 1 / (16 pi^2 (m - n)^2) on size x size momenta, 0 for m = n."""
    denom = 16.0 * math.pi ** 2 * np.arange(1 - size, size, dtype=float) ** 2
    denom[size - 1] = math.inf
    return sliding_window_view(1.0 / denom, size)[::-1]


def conditional_kernel(h_d: np.ndarray, a: int, diagonal: np.ndarray, inv_sq: np.ndarray,
                       buffers: np.ndarray, columns: slice = slice(None)) -> np.ndarray:
    """Kernel block K[i, m - c0] = p(nu - d, m | nu, a + i) of the sources a, ..., b - 1 at one offset d.

    Momenta are positions on a consecutive grid; ``h_d`` is the column
    H(., d) of ``_kernel_factor`` on it, ``diagonal`` the closed-form m = n
    entries of the sources and ``inv_sq`` the grid's ``_inverse_square``;
    m runs over the positions c0 <= m < c1 of ``columns``.  The block fills
    the start of ``buffers[0]`` (``buffers[1]`` is scratch).  Once per block,
    with no erfi or exp: |H_m - H_n|^2 / (16 pi^2 (m - n)^2), in six float passes.
    """
    b = a + len(diagonal)
    c0, c1, _ = columns.indices(len(h_d))
    kernel, im = buffers.reshape(2, -1)[:, :(b - a) * (c1 - c0)].reshape(2, b - a, c1 - c0)  # contiguous blocks
    h_re, h_im = h_d.real.copy(), h_d.imag.copy()
    np.square(np.subtract(h_re[c0:c1], h_re[a:b, None], out=kernel), out=kernel)
    kernel += np.square(np.subtract(h_im[c0:c1], h_im[a:b, None], out=im), out=im)
    kernel *= inv_sq[a:b, c0:c1]
    on = np.arange(max(a, c0), min(b, c1))  # sources whose m = n entry is a column here
    kernel[on - a, on - c0] = diagonal[on - a]
    return kernel


def second_marginal(sigma: float, t: float, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P,
                    kernel_halfwidth: int = DEFAULT_KERNEL_HALFWIDTH) -> TruncatedTable:
    """Second-measurement marginal  p-hat(mu, m) = sum p(mu, m | nu, n) p(nu, n).

    Sources run over the window |nu| <= n_x, |n| <= n_p; output momenta
    over |m| <= n_p as well.  Source n reaches the position offsets
    d = nu - mu with |d + c| <= w around its classical drift c = rint(2 pi n t),
    w = ``kernel_halfwidth``.  The returned deficit accounts for both the
    uncaptured source mass and the kernel truncation.

    The sum runs by offset d; the drift is monotone in n, so the sources
    reaching d form one range.  Spatial inversion p(-1-mu, -m | -1-nu, -n)
    = p(mu, m | nu, n) makes the kernel of -d that of d with both momentum
    axes reversed, so only d <= 0 is evaluated.  Cost, once per t: the erfi
    grid F over (m, d <= 0), turned in place into the n-independent factor
    H once the m = n entries are read from it.  Once per block of at most
    ``KERNEL_BLOCK`` sources s at offset d: one ``conditional_kernel`` of
    s (2 n_p + 1) entries, then one GEMM of (2 n_x + 1) x s x (2 n_p + 1)
    multiply-adds onto the rows mu = nu - d and, reversed in m as p(nu, -n)
    = p(nu, n), onto nu + d.  The erfi grid and the blocks run on two threads;
    the blocks split into outer and middle momenta, each closed under m -> -m.
    """
    require_positive("t", t)
    require_count("kernel_halfwidth", kernel_halfwidth)
    src = first_marginal(sigma, n_x, n_p)
    n_values = np.arange(-n_p, n_p + 1)  # source and output momenta alike
    size, w = n_values.size, int(kernel_halfwidth)

    drift = np.rint(2.0 * math.pi * n_values * t).astype(int)
    d_lo = int(-drift.max() - w)  # offsets run over [d_lo, -d_lo]
    f_all = _erfi_grid(n_values, np.arange(d_lo - 1, 2), t)
    # diagonal[n, j]: the m = n entry at d = -c - w + j, read from F (columns j + [0, 2],
    # from -c - w - d_lo on, clipped at d = 1) before H overwrites it
    cols = np.minimum((-drift - w - d_lo)[:, None] + np.arange(2 * w + 3), f_all.shape[1] - 1)
    bracket = _diagonal_bracket(n_values[:, None], t, cols[:, 1:-1] + (d_lo - 1),
                                f_all[np.arange(size)[:, None], cols])
    diagonal = np.abs(bracket) ** 2 / (4.0 * math.pi)
    h_all = _kernel_factor(f_all, n_values, t)

    mu_values = np.arange(-n_x + d_lo, n_x - d_lo + 1)
    out = np.zeros((mu_values.size, size))
    inv_sq, rows, quarter = _inverse_square(size), 2 * n_x + 1, size // 4

    def accumulate(columns):  # every block onto the output momenta of columns, closed under m -> -m
        buffers = np.empty((2, min(KERNEL_BLOCK, size), size - 2 * quarter))
        for d, h_d in zip(range(d_lo, 1), h_all.T):
            start, stop = np.searchsorted(drift, (-w - d, w - d + 1))
            for a in range(start, stop, KERNEL_BLOCK):
                b = min(a + KERNEL_BLOCK, stop)
                diag = diagonal[np.arange(a, b), d + drift[a:b] + w]
                parts = [src.table[:, a:b] @ conditional_kernel(h_d, a, diag, inv_sq, buffers, c) for c in columns]
                for c, part in zip(columns, parts):
                    out[-d - d_lo: -d - d_lo + rows, c] += part
                for c, part in zip(columns if d < 0 else (), parts):  # offset -d: sources -n, rows nu + d
                    out[d - d_lo: d - d_lo + rows, ::-1][:, c] += part

    outer = (slice(0, quarter), slice(size - quarter, size)) if quarter else ()  # no empty column ranges
    _both_halves(accumulate, outer, (slice(quarter, size - quarter),))
    return TruncatedTable(table=out, first_index=mu_values, second_index=n_values,
                          mass_deficit=max(0.0, 1.0 - float(out.sum())))


@dataclass(frozen=True)
class EntropyCurvePoint:
    t: float
    s_p: float
    s_phat: float
    mass_deficit_p: float
    mass_deficit_phat: float
    n_x: int
    n_p: int


def entropy_curve(sigma: float, t_values, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P,
                  kernel_halfwidth: int = DEFAULT_KERNEL_HALFWIDTH) -> list[EntropyCurvePoint]:
    """Entropies of both marginals over a time grid (the entropy-increase curve).

    S(p) is t-independent; S(p-hat, t) exceeds it for every t > 0 and
    grows with t as the measurement-induced momentum spreading turns the
    localized cells into broader distributions.
    """
    src = first_marginal(sigma, n_x, n_p)
    s_p = src.entropy()
    points = []
    for t in np.asarray(t_values, dtype=float):
        hat = second_marginal(sigma, float(t), n_x, n_p, kernel_halfwidth)
        points.append(EntropyCurvePoint(t=float(t), s_p=s_p, s_phat=hat.entropy(),
                                        mass_deficit_p=src.mass_deficit,
                                        mass_deficit_phat=hat.mass_deficit, n_x=n_x, n_p=n_p))
    return points
