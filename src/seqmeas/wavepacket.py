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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfi as _scipy_erfi, wofz as _faddeeva

from .model import ValidationError, shannon_entropy

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


def erfi_line(u, t: float):
    """erfi((1 + i) u / (2 sqrt(t)))  for real u: the pi/4-line evaluations.

    The square of the argument is purely imaginary, so the result is
    bounded (Fresnel-like) for every u and never overflows.
    """
    if t <= 0:
        raise ValidationError(f"t = {t} must be positive")
    u = np.asarray(u, dtype=float)
    return np.asarray(_scipy_erfi((1.0 + 1.0j) * u / (2.0 * math.sqrt(t))))


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
    if sigma <= 0:
        raise ValidationError(f"sigma = {sigma} must be positive")
    nu_b, n_b = np.broadcast_arrays(np.asarray(nu, float), np.asarray(n, float))
    a = SQRT2 * math.pi * np.abs(n_b) * sigma
    x0 = nu_b / (SQRT2 * sigma)
    x1 = (nu_b + 1.0) / (SQRT2 * sigma)
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


def first_marginal(sigma: float, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P) -> TruncatedTable:
    """Table p(nu, n) = |<nu, n | psi>|^2 on the window |nu| <= n_x, |n| <= n_p."""
    nus = np.arange(-n_x, n_x + 1)
    ns = np.arange(-n_p, n_p + 1)
    amp = cell_overlap(nus[:, None], ns[None, :], sigma)
    p = np.abs(amp) ** 2
    return TruncatedTable(
        table=p,
        first_index=nus,
        second_index=ns,
        mass_deficit=max(0.0, 1.0 - float(p.sum())),
    )


def evolved_cell_state(nu: int, n: int, t: float, x):
    """Wavefunction of the freely evolved cell state |nu, n, t> at positions x."""
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0:
        inside = (x >= nu) & (x <= nu + 1)
        return np.where(inside, np.exp(2j * math.pi * n * x), 0.0j)
    pref = 0.5j * np.exp(-2j * math.pi * n * (math.pi * n * t - x))
    drift = 2.0 * math.pi * n * t
    return pref * (erfi_line(nu + drift - x, t) - erfi_line(nu + 1.0 + drift - x, t))


def _erfi_grid(k_values: np.ndarray, d_values: np.ndarray, t: float) -> np.ndarray:
    """F[k, d] = erfi((1 + i)(2 pi k t + d) / (2 sqrt(t))) on a rectangular grid."""
    args = 2.0 * math.pi * t * k_values[:, None] + d_values[None, :]
    return erfi_line(args, t)


def transition_amplitude(mu: int, m: int, nu: int, n: int, t: float) -> complex:
    """Amplitude <mu, m | nu, n, t> of the second measurement outcome.

    Closed form in pi/4-line erfi evaluations; the m = n case has its own
    expression (the generic one degenerates).  t = 0 returns the Kronecker
    overlap of the cells.
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if t == 0:
        return complex(1.0 if (mu == nu and m == n) else 0.0)
    d = nu - mu
    pi2t = math.pi * math.pi * t

    def f(k, shift):
        return complex(erfi_line(2.0 * math.pi * k * t + d + shift, t))

    if m != n:
        g2m = -2.0 * f(m, 0) + f(m, 1) + f(m, -1)
        g2n = -2.0 * f(n, 0) + f(n, 1) + f(n, -1)
        pref = np.exp(-4j * pi2t * (m * m - 2 * m * n + 2 * n * n)) / (4.0 * math.pi * (m - n))
        return complex(pref * (np.exp(2j * pi2t * (m - 2 * n) ** 2) * g2m
                               - np.exp(2j * pi2t * (2 * m * m - 4 * m * n + 3 * n * n)) * g2n))
    a = d + 2.0 * math.pi * n * t

    def e(xx):
        return np.exp(0.5j * xx * xx / t)

    def fa(xx):
        return complex(erfi_line(xx, t))

    bracket = (1.0 + 1.0j) * math.sqrt(t) * (e(a - 1.0) - 2.0 * e(a) + e(a + 1.0)) \
        - 1j * SQRT_PI * (-2.0 * a * fa(a) + (a + 1.0) * fa(a + 1.0) + (a - 1.0) * fa(a - 1.0))
    return complex(np.exp(-2j * pi2t * n * n) / (2.0 * SQRT_PI) * bracket)


def transition_probability(mu: int, m: int, nu: int, n: int, t: float) -> float:
    """Conditional probability p(mu, m | nu, n) of the second outcome."""
    return abs(transition_amplitude(mu, m, nu, n, t)) ** 2


def conditional_kernel(n: int, t: float, m_values: np.ndarray, d_values: np.ndarray,
                       f_m: np.ndarray, f_n: np.ndarray) -> np.ndarray:
    """Conditional probabilities p(nu - d, m | nu, n) for one source momentum n.

    Translation invariance in the cell index makes the conditional a
    function of d = nu - mu only, so one kernel serves every source cell
    with momentum n.  ``f_m``/``f_n`` are precomputed erfi grids over
    (m_values, d_values +- 1) and (d_values +- 1) respectively.
    """
    pi2t = math.pi * math.pi * t
    # second differences along d: F(d-1) - 2 F(d) + F(d+1)
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


def second_marginal(sigma: float, t: float, n_x: int = DEFAULT_N_X, n_p: int = DEFAULT_N_P,
                    kernel_halfwidth: int = DEFAULT_KERNEL_HALFWIDTH) -> TruncatedTable:
    """Second-measurement marginal  p-hat(mu, m) = sum p(mu, m | nu, n) p(nu, n).

    Sources run over the window |nu| <= n_x, |n| <= n_p; output momenta
    over |m| <= n_p as well.  For each source momentum the output
    position window is centered on the classical drift 2 pi n t with
    half-width ``kernel_halfwidth``.  The returned deficit accounts for
    both the uncaptured source mass and the kernel truncation.
    """
    if t <= 0:
        raise ValidationError("second_marginal needs t > 0 (t = 0 is the first marginal)")
    src = first_marginal(sigma, n_x, n_p)
    n_values = np.arange(-n_p, n_p + 1)  # source and output momenta alike
    w = int(kernel_halfwidth)

    drift = np.rint(2.0 * math.pi * n_values * t).astype(int)
    d_lo, d_hi = int((-drift - w).min()), int((-drift + w).max())
    d_ext = np.arange(d_lo - 1, d_hi + 2)
    f_all = _erfi_grid(n_values, d_ext, t)

    mu_lo, mu_hi = -n_x + (drift.min() - w), n_x + (drift.max() + w)
    mu_values = np.arange(mu_lo, mu_hi + 1)
    out = np.zeros((mu_values.size, n_values.size))

    for b, n in enumerate(n_values):
        c = int(drift[b])
        # kernel d-window for this source momentum: d in [-c - w, -c + w]
        lo = (-c - w) - (d_lo - 1)
        d_vals = np.arange(-c - w, -c + w + 1)
        f_m = f_all[:, lo - 1: lo + 2 * w + 2]
        kernel = conditional_kernel(int(n), t, n_values, d_vals, f_m, f_m[b])
        # mu = nu - d with d ascending means mu descending: flip once
        kernel_mu = kernel[:, ::-1].T  # rows: mu = nu + c - w ... nu + c + w
        weights = src.table[:, b]
        for a, nu in enumerate(src.first_index):
            p_src = weights[a]
            if p_src <= 0.0:
                continue
            row0 = int(nu + c - w - mu_lo)
            out[row0: row0 + 2 * w + 1] += p_src * kernel_mu
    return TruncatedTable(
        table=out,
        first_index=mu_values,
        second_index=n_values,
        mass_deficit=max(0.0, 1.0 - float(out.sum())),
    )


@dataclass(frozen=True)
class WavepacketConfig:
    """Window and tolerance settings of the free-wavepacket example.

    ``mass_tolerance`` bounds the first-marginal mass deficit of the
    window; construction fails when the window captures less.
    """

    sigma: float = 1.0
    t: float = 1.0
    n_x: int = DEFAULT_N_X
    n_p: int = DEFAULT_N_P
    mass_tolerance: float = 1e-4

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValidationError(f"sigma = {self.sigma} must be positive")
        if self.t < 0:
            raise ValidationError("t must be nonnegative")
        if self.n_x < 1 or self.n_p < 1:
            raise ValidationError("window parameters must be positive integers")
        deficit = first_marginal(self.sigma, self.n_x, self.n_p).mass_deficit
        if deficit > self.mass_tolerance:
            raise ValidationError(
                f"window (n_x={self.n_x}, n_p={self.n_p}) captures only 1 - {deficit:.3e} "
                f"of the state; enlarge it or raise mass_tolerance={self.mass_tolerance:g}"
            )


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
        points.append(EntropyCurvePoint(
            t=float(t),
            s_p=s_p,
            s_phat=hat.entropy(),
            mass_deficit_p=src.mass_deficit,
            mass_deficit_phat=hat.mass_deficit,
            n_x=n_x,
            n_p=n_p,
        ))
    return points


def entropy_curve_csv(points: list[EntropyCurvePoint]) -> str:
    """CSV with columns t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p."""
    lines = ["t,S_p,S_phat,mass_deficit_p,mass_deficit_phat,N_x,N_p"]
    for pt in points:
        lines.append(",".join([
            format(pt.t, ".17g"),
            format(pt.s_p, ".17g"),
            format(pt.s_phat, ".17g"),
            format(pt.mass_deficit_p, ".17g"),
            format(pt.mass_deficit_phat, ".17g"),
            str(pt.n_x),
            str(pt.n_p),
        ]))
    return "\n".join(lines) + "\n"
