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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import PreconditionError, ValidationError, require_count, require_finite, require_positive

# Richardson base step of the finite-difference Jacobian spot check.
JACOBIAN_EPS = 1e-3
# Bound on the worst |det DU - 1| of the Jacobian spot check in ``seqmeas classical``.
JACOBIAN_TOL = 1e-8
# Gauss-Hermite order of the quench oracle (1e-13 territory for moderate
# frequency ratios; the Gaussian integrand converges geometrically).
QUADRATURE_ORDER = 96
# Largest squared scale (and smallest, inverted) of the harmonic density: the
# sampler's q^2 and p^2 and the Hamiltonian's omega^2 q^2 must stay finite
# and normal, with room for samples tens of standard deviations out.
MAX_SQUARED_SCALE = 1e300


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Normalized probability density on phase space with an exact sampler.

    ``log_density`` must include the normalization constant: the ratio
    estimator is only meaningful for genuinely normalized p and q.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValidationError(f"phase-space dim must be even and >= 2, got {self.dim}")


@dataclass(frozen=True)
class VolumePreservingMap:
    """Deterministic map x -> U(x) with |det DU| = 1 on a ``dim``-dimensional phase space.

    ``jacobian_determinant_check`` provides the numerical spot check.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def identity_map(dim: int) -> VolumePreservingMap:
    return VolumePreservingMap(forward=lambda x: np.array(x, copy=True), dim=dim)


def harmonic_hamiltonian(omega: float) -> Callable[[np.ndarray], np.ndarray]:
    """H(q, p) = p^2/2 + omega^2 q^2/2 summed over degrees of freedom."""
    require_positive("omega", omega)

    def h(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        q, p = x[..., :n], x[..., n:]
        return 0.5 * np.sum(p * p, axis=-1) + 0.5 * omega * omega * np.sum(q * q, axis=-1)

    return h


def canonical_harmonic_density(omega: float, beta: float) -> PhaseSpaceDensity:
    """Canonical density ~ exp(-beta H) for the harmonic H of one degree of freedom, with
    exact Gaussian sampler.

    q ~ N(0, 1/(beta omega^2)), p ~ N(0, 1/beta), independently;
    ln Z = ln(2 pi / (beta omega)).  Parameters whose squared scales
    omega^2, 1/beta or 1/(beta omega^2) leave [1/MAX_SQUARED_SCALE,
    MAX_SQUARED_SCALE] are rejected, since q^2 or the energy would overflow.
    """
    require_positive("beta", beta)
    h = harmonic_hamiltonian(omega)
    log_w, log_b = math.log(omega), math.log(beta)
    for named, what, log_square in (
            (f"omega = {omega}", "omega^2", 2.0 * log_w),
            (f"beta = {beta}", "1/beta", -log_b),
            (f"omega = {omega}, beta = {beta}", "1/(beta omega^2)", -log_b - 2.0 * log_w)):
        if abs(log_square) > math.log(MAX_SQUARED_SCALE):
            raise ValidationError(f"{named}: the squared scale {what} = exp({log_square:.6g}) is "
                                  f"outside [1/{MAX_SQUARED_SCALE:g}, {MAX_SQUARED_SCALE:g}]")
    log_z = math.log(2.0 * math.pi / (beta * omega))

    def log_density(x):
        return -beta * h(x) - log_z

    sigma_q = 1.0 / (math.sqrt(beta) * omega)
    sigma_p = 1.0 / math.sqrt(beta)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:  # q drawn first, then p
        return np.stack([rng.normal(0.0, sigma_q, size=n), rng.normal(0.0, sigma_p, size=n)], axis=1)

    return PhaseSpaceDensity(dim=2, log_density=log_density, sampler=sampler)


def leapfrog_map(grad_potential: Callable[[float, np.ndarray], np.ndarray], dt: float,
                 steps: int) -> VolumePreservingMap:
    """Kick-drift-kick leapfrog for H = p^2/2 + V(t, q), time-dependent V, one dof.

    Each substep is a shear (unit Jacobian in exact arithmetic), so the
    composition is volume-preserving for any protocol; the potential
    gradient is evaluated at the substep times 0, dt, 2 dt ... as usual.
    """
    require_positive("dt", dt)
    if steps < 1:
        raise ValidationError(f"steps = {steps} must be >= 1")

    def forward(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        q = np.array(x[..., :n], copy=True)
        p = np.array(x[..., n:], copy=True)
        t = 0.0
        for _ in range(steps):
            p -= 0.5 * dt * np.asarray(grad_potential(t, q))
            q += dt * p
            p -= 0.5 * dt * np.asarray(grad_potential(t + dt, q))
            t += dt
        return np.concatenate([q, p], axis=-1)

    return VolumePreservingMap(forward=forward, dim=2)


def jacobian_determinant_check(u: VolumePreservingMap, points: np.ndarray) -> float:
    """Worst |det DU - 1| over the points, by Richardson-extrapolated central differences.

    Each column is (4 D(eps) - D(2 eps)) / 3, D(h) the central difference at step h
    and eps = ``JACOBIAN_EPS``: O(eps^4) truncation and ulp |U| / eps rounding.  One
    vectorized call of the map.
    """
    eps = JACOBIAN_EPS
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
    require_count("seed", seed)
    rng = np.random.default_rng(seed)
    x = p.sampler(rng, n)
    # an energy that overflows gives log q = -inf (ratio 0, its limit) or log p = -inf
    # (ratio inf or nan); the two checks below turn the latter and a sample without
    # overlap into typed errors instead of warnings
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not np.any(ratio > 0.0):
        raise PreconditionError(
            f"all {n} ratio samples are 0 (largest log-ratio {log_ratio.max():.6g}): "
            "q(U(x)) vanishes wherever p was sampled, so p and q o U do not overlap"
        )
    # spread and ESS of ratio / top in (0, 1]: squares of ratios far from 1 neither underflow nor overflow
    top = ratio.max()
    scaled = ratio / top
    ess = float(scaled.sum() ** 2 / np.sum(scaled * scaled))
    return EstimatorResult(mean=float(np.mean(ratio)), n_samples=n, seed=seed, effective_sample_size=ess,
                           std_error=float(np.std(scaled, ddof=1) * top / math.sqrt(n)))


def work_samples(h0: Callable[[np.ndarray], np.ndarray], h1: Callable[[np.ndarray], np.ndarray],
                 u: VolumePreservingMap, x: np.ndarray) -> np.ndarray:
    """Work w = H1(U(x)) - H0(x) along the mapped trajectories."""
    return np.asarray(h1(u(x))) - np.asarray(h0(x))


def gauss_hermite_quench(beta: float, omega0: float, omega1: float) -> float:
    """Deterministic Gauss-Hermite value of < exp(-beta w) > for the sudden quench.

    U = identity, w = (omega1^2 - omega0^2) q^2 / 2 under the canonical
    density at omega0; the exact value is Z1/Z0 = omega0/omega1.  The
    integrand is Gaussian, so ``QUADRATURE_ORDER`` nodes suffice.
    """
    for name, value in (("beta", beta), ("omega0", omega0), ("omega1", omega1)):
        require_positive(name, value)
    nodes, weights = np.polynomial.hermite.hermgauss(QUADRATURE_ORDER)
    # q = sqrt(2) s x with s^2 = 1/(beta omega0^2) turns the canonical average
    # into the Hermite weight integral (1/sqrt(pi)) sum w_k f(sqrt(2) s x_k)
    s = 1.0 / (math.sqrt(beta) * omega0)
    q = math.sqrt(2.0) * s * nodes
    f = np.exp(-0.5 * beta * (omega1 ** 2 - omega0 ** 2) * q * q)
    return float(np.sum(weights * f) / math.sqrt(math.pi))


def harmonic_ramp_gradient(omega0: float, omega1: float, duration: float):
    """Gradient of V(t, q) = omega(t)^2 q^2 / 2 with a linear frequency ramp."""
    require_finite("omega0", omega0)
    require_finite("omega1", omega1)
    require_positive("duration", duration)

    def grad(t, q):
        w = omega0 + (omega1 - omega0) * min(max(t / duration, 0.0), 1.0)
        return w * w * q

    return grad


def harmonic_ramp_map(omega0: float, omega1: float, dt: float, steps: int) -> VolumePreservingMap:
    """:func:`leapfrog_map` of :func:`harmonic_ramp_gradient` over ``steps * dt``, as one matrix.

    The ramp's force omega(t)^2 q is linear in q, so every kick and drift is a
    linear shear and their composition is a 2 x 2 matrix M.  M is built by
    running the leapfrog once on the basis points ``np.eye(2)`` (row 0 is the
    image of e_q, row 1 that of e_p; 2 * steps gradient calls), and the map
    applies ``x @ M``: O(steps + n) for n points instead of O(steps * n).
    ``u(np.eye(2))`` reads M back.
    """
    require_positive("dt", dt)  # ahead of duration = dt * steps, so a bad dt or steps is named
    if steps < 1:
        raise ValidationError(f"steps = {steps} must be >= 1")
    m = leapfrog_map(harmonic_ramp_gradient(omega0, omega1, dt * steps), dt, steps)(np.eye(2))
    return VolumePreservingMap(forward=lambda x: np.asarray(x, dtype=float) @ m, dim=2)
