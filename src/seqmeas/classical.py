"""Classical phase-space counterpart: densities, volume-preserving maps,
and Monte Carlo verification of  < q(U(x)) / p(x) > = 1.

The identity holds for any two normalized densities p, q and any
volume-preserving map U (substitution rule); the canonical special case
with U a Hamiltonian flow is the classical Jarzynski equality
< exp(-beta (w - Delta F)) > = 1.  Estimators here are statistical, so
the contracts are phrased in standard errors; the one-dimensional
harmonic cases additionally have deterministic quadrature oracles.

Conventions: phase-space points are arrays (..., 2N) ordered
(q_1..q_N, p_1..p_N); the harmonic Hamiltonian is
H = p^2/2 + omega^2 q^2/2 (unit mass), with partition function
Z = 2 pi / (beta omega) per degree of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import PreconditionError, ValidationError


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Normalized probability density on phase space with an exact sampler.

    ``log_density`` must include the normalization constant: the ratio
    estimator is only meaningful for genuinely normalized p and q.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValidationError(f"phase-space dim must be even and >= 2, got {self.dim}")


@dataclass(frozen=True)
class VolumePreservingMap:
    """Deterministic map x -> U(x) together with its volume-preservation certificate.

    ``certificate`` names why |det DU| = 1: "identity", "analytic-symplectic"
    (closed-form rotation/shear), or "leapfrog-composition" (every substep is
    a shear).  ``jacobian_determinant_check`` provides the numerical spot check.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    dim: int
    certificate: str

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def identity_map(dim: int) -> VolumePreservingMap:
    return VolumePreservingMap(forward=lambda x: np.array(x, copy=True), dim=dim,
                               certificate="identity")


def harmonic_hamiltonian(omega: float) -> Callable[[np.ndarray], np.ndarray]:
    """H(q, p) = p^2/2 + omega^2 q^2/2 summed over degrees of freedom."""
    if omega <= 0:
        raise ValidationError(f"omega = {omega} must be positive")

    def h(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        q, p = x[..., :n], x[..., n:]
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * omega * omega * np.sum(q * q, axis=-1)

    return h


def canonical_harmonic_density(omega: float, beta: float, n_dof: int = 1) -> PhaseSpaceDensity:
    """Canonical density ~ exp(-beta H) for the harmonic H, with exact Gaussian sampler.

    q_k ~ N(0, 1/(beta omega^2)), p_k ~ N(0, 1/beta), independently;
    ln Z = n_dof * ln(2 pi / (beta omega)).
    """
    if beta <= 0:
        raise ValidationError(f"beta = {beta} must be positive")
    if omega <= 0:
        raise ValidationError(f"omega = {omega} must be positive")
    h = harmonic_hamiltonian(omega)
    log_z = n_dof * math.log(2.0 * math.pi / (beta * omega))

    def log_density(x):
        return -beta * h(x) - log_z

    sigma_q = 1.0 / (math.sqrt(beta) * omega)
    sigma_p = 1.0 / math.sqrt(beta)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        q = rng.normal(0.0, sigma_q, size=(n, n_dof))
        p = rng.normal(0.0, sigma_p, size=(n, n_dof))
        return np.concatenate([q, p], axis=1)

    return PhaseSpaceDensity(dim=2 * n_dof, log_density=log_density, sampler=sampler,
                             meta={"kind": "canonical-harmonic", "omega": omega,
                                   "beta": beta, "log_z": log_z})


def metropolis_sampler(log_density: Callable[[np.ndarray], np.ndarray], dim: int,
                       step: float = 0.5, burn_in: int = 2000, thin: int = 10,
                       x0: np.ndarray | None = None) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Random-walk Metropolis fallback for non-Gaussian densities.

    Correlated-chain sampler: draws are thinned by ``thin`` after ``burn_in``
    accepted-or-rejected steps.  Use only when no exact sampler exists; the
    J-expectation contract assumes i.i.d. draws, so prefer exact samplers
    and treat Metropolis results as approximate (larger effective errors).
    """
    start = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        x = start.copy()
        lp = float(log_density(x))
        out = np.empty((n, dim))
        total = burn_in + n * thin
        draws = rng.normal(0.0, step, size=(total, dim))
        accepts = np.log(rng.random(total))
        k = 0
        for i in range(total):
            prop = x + draws[i]
            lp_prop = float(log_density(prop))
            if lp_prop - lp > accepts[i]:
                x, lp = prop, lp_prop
            if i >= burn_in and (i - burn_in) % thin == thin - 1:
                out[k] = x
                k += 1
        return out

    return sampler


def rotation_map(omega: float, t: float) -> VolumePreservingMap:
    """Exact phase flow of the static harmonic Hamiltonian for time t (1 dof).

    (q, p) -> (q cos wt + (p/w) sin wt, -q w sin wt + p cos wt); the
    Jacobian is the symplectic rotation with unit determinant.
    """
    if omega <= 0:
        raise ValidationError(f"omega = {omega} must be positive")
    c, s = math.cos(omega * t), math.sin(omega * t)

    def forward(x):
        x = np.asarray(x, dtype=float)
        q, p = x[..., 0], x[..., 1]
        return np.stack([c * q + (s / omega) * p, -omega * s * q + c * p], axis=-1)

    return VolumePreservingMap(forward=forward, dim=2, certificate="analytic-symplectic")


def leapfrog_map(grad_potential: Callable[[float, np.ndarray], np.ndarray], dt: float,
                 steps: int, t0: float = 0.0, dim: int = 2) -> VolumePreservingMap:
    """Kick-drift-kick leapfrog for H = p^2/2 + V(t, q), time-dependent V.

    Each substep is a shear (unit Jacobian in exact arithmetic), so the
    composition is volume-preserving for any protocol; the potential
    gradient is evaluated at the substep times t, t + dt/2 ... as usual.
    """
    if dt <= 0 or steps < 1:
        raise ValidationError("dt must be positive and steps >= 1")

    def forward(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        q = np.array(x[..., :n], copy=True)
        p = np.array(x[..., n:], copy=True)
        t = t0
        for _ in range(steps):
            p -= 0.5 * dt * np.asarray(grad_potential(t, q))
            q += dt * p
            p -= 0.5 * dt * np.asarray(grad_potential(t + dt, q))
            t += dt
        return np.concatenate([q, p], axis=-1)

    return VolumePreservingMap(forward=forward, dim=dim, certificate="leapfrog-composition")


def jacobian_determinant_check(u: VolumePreservingMap, points: np.ndarray,
                               eps: float = 1e-3) -> float:
    """Worst |det DU - 1| over the points, by Richardson-extrapolated central differences.

    Each column is (4 D(eps) - D(2 eps)) / 3, D(h) the central difference at step h:
    O(eps^4) truncation and ulp |U| / eps rounding.  One vectorized call of the map.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = points.shape
    steps = np.array([eps, -eps, 2.0 * eps, -2.0 * eps])
    shifted = points + (steps[:, None, None] * np.eye(dim))[:, :, None, :]  # (step, k, point, x)
    image = np.asarray(u(shifted.reshape(-1, dim))).reshape(4, dim, n, dim)
    d1, d2 = (image[0] - image[1]) / (2.0 * eps), (image[2] - image[3]) / (4.0 * eps)
    jac = np.moveaxis((4.0 * d1 - d2) / 3.0, 0, -1)  # (point, out, in)
    return float(np.abs(np.linalg.det(jac) - 1.0).max(initial=0.0))


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo estimate with its reproducibility record.

    ``effective_sample_size`` is (sum r)^2 / (sum r^2) for the ratio weights;
    the exp(-beta w) estimator has a heavy right tail (rare low-work samples
    carry large weight), so ESS much below n_samples flags an unreliable mean.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    effective_sample_size: float


def classical_j_expectation(p: PhaseSpaceDensity, q: PhaseSpaceDensity,
                            u: VolumePreservingMap, n: int, seed: int) -> EstimatorResult:
    """Monte Carlo estimate of < q(U(x)) / p(x) > under x ~ p.

    For normalized p, q and volume-preserving U the population value is
    exactly 1; the returned estimate comes with std_error = sample std / sqrt(n)
    and is deterministic for a fixed seed.
    """
    if p.dim != q.dim or p.dim != u.dim:
        raise ValidationError(f"dimension mismatch: p {p.dim}, q {q.dim}, U {u.dim}")
    if n < 2:
        raise ValidationError("need at least 2 samples for a standard error")
    rng = np.random.default_rng(seed)
    x = p.sampler(rng, n)
    log_ratio = np.asarray(q.log_density(u(x))) - np.asarray(p.log_density(x))
    ratio = np.exp(log_ratio)
    bad = ~np.isfinite(ratio)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise PreconditionError(
            f"{int(bad.sum())} of {n} ratio samples are non-finite "
            f"(first at index {k}, log-ratio {log_ratio[k]:.6g}); "
            "check density normalization and overlap"
        )
    mean = float(np.mean(ratio))
    std_error = float(np.std(ratio, ddof=1) / math.sqrt(n))
    ess = float(ratio.sum() ** 2 / np.sum(ratio * ratio))
    return EstimatorResult(mean=mean, std_error=std_error, n_samples=n, seed=seed,
                           effective_sample_size=ess)


def work_samples(h0: Callable[[np.ndarray], np.ndarray], h1: Callable[[np.ndarray], np.ndarray],
                 u: VolumePreservingMap, x: np.ndarray) -> np.ndarray:
    """Work w = H1(U(x)) - H0(x) along the mapped trajectories."""
    return np.asarray(h1(u(x))) - np.asarray(h0(x))


def gauss_hermite_quench(beta: float, omega0: float, omega1: float, order: int = 96) -> float:
    """Deterministic Gauss-Hermite value of < exp(-beta w) > for the sudden quench.

    U = identity, w = (omega1^2 - omega0^2) q^2 / 2 under the canonical
    density at omega0; the exact value is Z1/Z0 = omega0/omega1.  The
    integrand is Gaussian, so the quadrature converges geometrically in
    the order (1e-13 territory by order ~= 96 for moderate frequency ratios).
    """
    if min(beta, omega0, omega1) <= 0:
        raise ValidationError("beta, omega0, omega1 must be positive")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    # q = sqrt(2) s x with s^2 = 1/(beta omega0^2) turns the canonical average
    # into the Hermite weight integral (1/sqrt(pi)) sum w_k f(sqrt(2) s x_k)
    s = 1.0 / (math.sqrt(beta) * omega0)
    q = math.sqrt(2.0) * s * nodes
    f = np.exp(-0.5 * beta * (omega1 ** 2 - omega0 ** 2) * q * q)
    return float(np.sum(weights * f) / math.sqrt(math.pi))


@dataclass(frozen=True)
class CrooksHistogramReport:
    """Paired forward/reverse work histograms and the per-bin ratio test.

    Two comparisons are reported.  ``log_ratio`` vs ``expected_log_ratio``
    is the textbook ln[P_f(w)/P_r(-w)] = beta (w - Delta F) read off bin
    centers; its residual is dominated by bin width (the expected side
    varies by e^{beta dw} across a bin), so it is descriptive only.  The
    quantitative test reweights each reverse sample by e^{beta (w - dF)}:
    the identity implies E[forward count in bin] = E[sum of those weights
    in bin] exactly, for any bin width.  ``reweight_sigma`` is the
    normalized per-bin residual of that comparison.

    The classical reverse protocol is our composition (momentum flip,
    reversed schedule, momentum flip); this ratio test is its certificate.
    """

    bin_edges: np.ndarray
    forward_counts: np.ndarray
    reverse_counts: np.ndarray
    reweighted_forward: np.ndarray
    reweight_sigma: np.ndarray
    log_ratio: np.ndarray
    expected_log_ratio: np.ndarray
    populated: np.ndarray
    beta: float
    delta_f: float
    n_samples: int
    seed: int

    def worst_sigma(self, min_count: int = 50) -> float:
        """Largest normalized reweighting residual over usable bins.

        Bins with fewer than ``min_count`` samples on either side are
        skipped.  The floor is deliberately high: the reverse side enters
        through a weighted sum whose variance is estimated from the same
        few samples, so a downward count fluctuation both shifts the sum
        and shrinks its error bar, inflating z in sparse bins.
        """
        usable = self.populated & (self.forward_counts >= min_count) \
            & (self.reverse_counts >= min_count)
        if not np.any(usable):
            return 0.0
        return float(np.max(self.reweight_sigma[usable]))


def momentum_flip(dim: int) -> VolumePreservingMap:
    def forward(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        return np.concatenate([x[..., :n], -x[..., n:]], axis=-1)

    return VolumePreservingMap(forward=forward, dim=dim, certificate="analytic-symplectic")


def reversed_leapfrog_map(grad_potential: Callable[[float, np.ndarray], np.ndarray], dt: float,
                          steps: int, dim: int = 2) -> VolumePreservingMap:
    """Flip momenta, run the time-reversed protocol, flip back.

    For the schedule V(t) on [0, steps*dt] the reversed protocol uses
    V(T - t); the composition inverts the forward leapfrog exactly
    (same shears in opposite order), up to roundoff.
    """
    total = steps * dt
    flip = momentum_flip(dim)
    inner = leapfrog_map(lambda t, q: grad_potential(total - t, q), dt, steps, dim=dim)

    def forward(x):
        return flip(inner(flip(x)))

    return VolumePreservingMap(forward=forward, dim=dim, certificate="leapfrog-composition")


def classical_crooks(beta: float, h0, h1, delta_f: float,
                     p0: PhaseSpaceDensity, p1: PhaseSpaceDensity,
                     u_forward: VolumePreservingMap, u_reverse: VolumePreservingMap,
                     n: int, seed: int, bins: int = 40,
                     bin_range: tuple[float, float] | None = None) -> CrooksHistogramReport:
    """Sampled forward/reverse work histograms and their Crooks ratio.

    Forward: x ~ p0, w = H1(U(x)) - H0(x).  Reverse: y ~ p1,
    w_rev = H0(U_rev(y)) - H1(y), histogrammed at -w_rev so the two
    distributions share bins.  Each reverse sample also contributes the
    weight e^{beta (w - Delta F)} to ``reweighted_forward`` in its bin,
    which the identity pins to the forward count bin-by-bin; empty bins
    are excluded (``populated`` mask).
    """
    if n < 100:
        raise ValidationError("need at least 100 samples per direction")
    rng = np.random.default_rng(seed)
    x = p0.sampler(rng, n)
    w_f = work_samples(h0, h1, u_forward, x)
    y = p1.sampler(rng, n)
    w_r = np.asarray(h0(u_reverse(y))) - np.asarray(h1(y))
    v = -w_r
    if bin_range is None:
        lo = min(float(w_f.min()), float(v.min()))
        hi = max(float(w_f.max()), float(v.max()))
        pad = 1e-9 * max(1.0, abs(lo), abs(hi))
        bin_range = (lo - pad, hi + pad)
    edges = np.linspace(bin_range[0], bin_range[1], bins + 1)
    cf, _ = np.histogram(w_f, bins=edges)
    cr, _ = np.histogram(v, bins=edges)
    weights = np.exp(beta * (v - delta_f))
    rw, _ = np.histogram(v, bins=edges, weights=weights)
    rw_var, _ = np.histogram(v, bins=edges, weights=weights * weights)
    populated = (cf > 0) & (cr > 0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(cf / cr)
        sigma = np.abs(cf - rw) / np.sqrt(cf + rw_var)
    expected = beta * (centers - delta_f)
    return CrooksHistogramReport(
        bin_edges=edges, forward_counts=cf, reverse_counts=cr,
        reweighted_forward=rw, reweight_sigma=np.where(populated, sigma, 0.0),
        log_ratio=log_ratio, expected_log_ratio=expected,
        populated=populated, beta=beta, delta_f=delta_f, n_samples=n, seed=seed)


def harmonic_ramp_gradient(omega0: float, omega1: float, duration: float):
    """Gradient of V(t, q) = omega(t)^2 q^2 / 2 with a linear frequency ramp."""
    if duration <= 0:
        raise ValidationError("duration must be positive")

    def grad(t, q):
        w = omega0 + (omega1 - omega0) * min(max(t / duration, 0.0), 1.0)
        return w * w * q

    return grad
