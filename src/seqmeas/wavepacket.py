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

import ctypes
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


def _openblas_threads():
    """(get, set) of numpy's OpenBLAS thread count; two no-ops where its symbols do not resolve."""
    try:  # dlsym on numpy's core module also searches the OpenBLAS it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return (lambda: None), (lambda count: None)
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, set_


def _both_halves(work, first, second) -> None:
    """work(first) on a helper thread that ends with this call, work(second) here; at once if 2+ CPUs.
    Each thread makes its own GEMMs, so numpy's OpenBLAS runs on one thread until both end."""
    get, set_ = _openblas_threads()
    before = get()
    set_(1)
    try:
        with ThreadPoolExecutor(1) as helper:
            future = helper.submit(work, first)
            if (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2:
                future.result()
            work(second)
            future.result()
    finally:
        set_(before)


def erfi_line(u, t: float):
    """erfi((1 + i) u / (2 sqrt(t)))  for real u: the pi/4-line evaluations.

    The square of the argument is purely imaginary, so the result is
    bounded (Fresnel-like) for every u and never overflows.
    """
    require_positive("t", t)
    z = np.multiply(u, 1.0 + 1.0j, out=np.empty(np.shape(u), complex))
    z /= 2.0 * math.sqrt(t)
    return _scipy_erfi(z, out=z)


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
    """H[k, d] = exp(-2 i pi^2 t k^2) (F(k, d-1) - 2 F(k, d) + F(k, d+1)) on (k_values, d_values),
    for ``f`` an ``_erfi_grid`` over (k_values, d_values +- 1)."""
    phase = np.exp(-2j * math.pi * math.pi * t * k_values.astype(float) ** 2)
    return (f[:, :-2] + f[:, 2:] - 2.0 * f[:, 1:-1]) * phase[:, None]


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


def _inverse_square(n_p: int) -> np.ndarray:
    """T[n + n_p, m] = 1 / (16 pi^2 (m - n)^2) for |n| <= n_p, 0 <= m <= n_p (0 for m = n): the m >= 0
    half of the Toeplitz matrix, whose other half is T(n, -m) = T(-n, m), stored for BLAS."""
    denom = 16.0 * math.pi ** 2 * np.arange(-n_p, 2 * n_p + 1, dtype=float) ** 2
    denom[n_p] = math.inf
    return sliding_window_view(1.0 / denom, n_p + 1)[::-1].copy()


def conditional_kernel(h_d: np.ndarray, sources: np.ndarray, a: int, diagonal: np.ndarray,
                       inv_sq: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Rows sum_n p(nu, n) p(nu - d, m | nu, n) over the source momenta a <= n < a + s at one offset d.

    Momenta are positions on a consecutive grid; ``h_d`` is the column
    H(., d) of ``_kernel_factor`` on it, ``sources`` the first marginal on
    the positions of n, ``diagonal`` their closed-form m = n entries and
    ``inv_sq`` the grid's ``_inverse_square``.  The four products with T of
    ``second_marginal``'s expansion are one (4 rows) x s x size GEMM, run on
    the halves m >= 0 and m < 0 of T.  Every product lands in ``buffer``, a
    (2, 4 rows, size) scratch array of the calling thread; so do the returned
    rows, which the next call overwrites.
    """
    rows, s, n_p = len(sources), sources.shape[1], inv_sq.shape[1] - 1
    factors = np.stack([np.ones(len(h_d)), h_d.real ** 2 + h_d.imag ** 2, h_d.real, h_d.imag])  # 1, |H|^2, Re H, Im H
    x = np.multiply(sources, factors[:, None, a:a + s], out=buffer[0, :, :s].reshape(4, rows, s)).reshape(-1, s)
    products = buffer[1]  # x T; m < 0 is the reversed sources against the m >= 0 half, put in m > 0 first
    np.matmul(x[:, ::-1], inv_sq[2 * n_p + 1 - a - s: 2 * n_p + 1 - a, 1:], out=products[:, n_p + 1:])
    products[:, :n_p] = products[:, n_p + 1:][:, ::-1]
    np.matmul(x, inv_sq[a:a + s], out=products[:, n_p:])
    weights = factors[[1, 0, 2, 3]] * [[1.0], [1.0], [-2.0], [-2.0]]  # |H_m|^2, 1, -2 Re H_m, -2 Im H_m
    part = np.einsum("kim,km->im", products.reshape(4, rows, -1), weights, out=buffer[0, :rows])
    part[:, a:a + s] += sources * diagonal
    return part


def second_marginal(sigma: float, t: float, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P,
                    kernel_halfwidth: int = DEFAULT_KERNEL_HALFWIDTH) -> TruncatedTable:
    """Second-measurement marginal  p-hat(mu, m) = sum p(mu, m | nu, n) p(nu, n).

    Sources run over the window |nu| <= n_x, |n| <= n_p; output momenta
    over |m| <= n_p as well.  Source n reaches the position offsets
    d = nu - mu with |d + c| <= w around its classical drift c = rint(2 pi n t),
    w = ``kernel_halfwidth``.  The returned deficit accounts for both the
    uncaptured source mass and the kernel truncation.

    The sum runs by offset d, d <= 0 only: spatial inversion p(-1-mu, -m | -1-nu, -n)
    = p(mu, m | nu, n) makes the kernel of -d that of d reversed in both momenta.
    The drift is monotone in n, so the s sources reaching d form one range.  With
    H = H(., d) of ``_kernel_factor`` and T = ``_inverse_square`` (built once per
    call), the kernel |H_m - H_n|^2 T[n, m] gives, for source rows R,
      sum_n R_n K[n, m] = |H_m|^2 (R T)_m + (R |H|^2 T)_m - 2 Re(H_m (R conj(H) T)_m)
    plus the closed-form m = n entries: per offset, one ``conditional_kernel`` GEMM
    of 4 (2 n_x + 1) x s x (2 n_p + 1) multiply-adds, added onto the rows mu = nu - d
    and, reversed in m as p(nu, -n) = p(nu, n), onto nu + d.  Two threads split the
    offsets at a fixed midpoint of their sources; each builds F and H for 32 offsets at
    a time.  The helper sums the rows both threads reach apart and adds them after the
    join, so the table keeps its bits on any CPU count.
    """
    require_positive("t", t)
    require_count("kernel_halfwidth", kernel_halfwidth)
    src = first_marginal(sigma, n_x, n_p)
    n_values = np.arange(-n_p, n_p + 1)  # source and output momenta alike
    size, w, rows = n_values.size, int(kernel_halfwidth), 2 * n_x + 1

    drift = np.rint(2.0 * math.pi * n_values * t).astype(int)
    d_lo = int(-drift.max() - w)  # offsets run over [d_lo, -d_lo]
    ranges = np.searchsorted(drift, -np.arange(d_lo, 1)[:, None] + [-w, w + 1])  # sources of each offset
    work = np.cumsum(ranges[:, 1] - ranges[:, 0])
    split = d_lo + 1 + int(np.searchsorted(work, work[-1] / 2))
    halves = (range(d_lo, split), range(split, 1))
    mu_values = np.arange(-n_x + d_lo, n_x - d_lo + 1)
    reach = np.zeros((2, mu_values.size), bool)  # the rows each thread adds to
    for k, d in [(k, d) for k, half in enumerate(halves) for d in half]:
        reach[k, -d - d_lo: -d - d_lo + rows] = reach[k, d - d_lo: d - d_lo + rows] = True
    shared = np.flatnonzero(reach.all(axis=0))
    out = np.zeros((mu_values.size + shared.size, size))  # the helper's part of the shared rows below the table
    row_of = np.tile(np.arange(mu_values.size), (2, 1))
    row_of[0, shared] = mu_values.size + np.arange(shared.size)
    inv_sq = _inverse_square(n_p)

    def accumulate(k):  # the offsets of halves[k] onto the rows row_of[k]
        buffer = np.empty((2, 4 * rows, size))
        for first in range(halves[k].start, halves[k].stop, 32):
            chunk = ranges[first - d_lo: min(first + 32, halves[k].stop) - d_lo]  # the sources of each offset
            f = _erfi_grid(n_values, np.arange(first - 1, first + len(chunk) + 1), t)
            lo, hi = chunk[:, 0].min(), chunk[:, 1].max()
            diagonal = np.abs(_diagonal_bracket(n_values[lo:hi, None], t, np.arange(first, first + len(chunk)),
                                                f[lo:hi])) ** 2 / (4.0 * math.pi)
            h = _kernel_factor(f, n_values, t)
            for j, (a, b) in enumerate(chunk):
                d = first + j
                if a == b:
                    continue
                part = conditional_kernel(h[:, j], src.table[:, a:b], a, diagonal[a - lo: b - lo, j], inv_sq, buffer)
                out[row_of[k, -d - d_lo: -d - d_lo + rows]] += part
                if d < 0:  # offset -d: sources -n, rows nu + d
                    out[row_of[k, d - d_lo: d - d_lo + rows], ::-1] += part

    _both_halves(accumulate, 0, 1)
    table = out[:mu_values.size]
    table[shared] += out[mu_values.size:]
    return TruncatedTable(table=table, first_index=mu_values, second_index=n_values,
                          mass_deficit=max(0.0, 1.0 - float(table.sum())))


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
