"""Classical phase-space counterpart: the canonical harmonic state, linear
volume-preserving maps, and Monte Carlo verification of  < q(U(x)) / p(x) > = 1.

The identity holds for any two normalized densities p, q and any
volume-preserving map U (substitution rule); the canonical special case
with U a Hamiltonian flow is the classical Jarzynski equality
< exp(-beta (w - Delta F)) > = 1.  Estimators here are statistical, so
the contracts are phrased in standard errors; the sudden quench
additionally has a deterministic quadrature oracle.

Conventions: one degree of freedom; phase-space points are rows (q, p) of
arrays (..., 2).  The harmonic Hamiltonian is H = p^2/2 + omega^2 q^2/2 (unit
mass), with partition function Z = 2 pi / (beta omega).  Both protocols, the
sudden quench and the leapfrog frequency ramp, are linear, so a map is its
2 x 2 matrix M acting on rows, x -> x @ M: row 0 of M is the image of e_q,
row 1 that of e_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PreconditionError, ValidationError, require_count, require_finite, require_positive

# Bound on |det M - 1| of the Jacobian check in ``seqmeas classical``.
JACOBIAN_TOL = 1e-8
# Gauss-Hermite order of the quench oracle (1e-13 territory for moderate
# frequency ratios; the Gaussian integrand converges geometrically).
QUADRATURE_ORDER = 96
# Largest squared scale (and smallest, inverted) of the harmonic density: the
# sampler's q^2 and p^2 and the Hamiltonian's omega^2 q^2 must stay finite
# and normal, with room for samples tens of standard deviations out.
MAX_SQUARED_SCALE = 1e300


@dataclass(frozen=True)
class CanonicalHarmonicState:
    """Canonical density exp(-beta H) / Z of the harmonic H at frequency ``omega``, with its
    exact Gaussian sampler.

    q ~ N(0, 1/(beta omega^2)), p ~ N(0, 1/beta), independently;
    ln Z = ln(2 pi / (beta omega)).  Parameters whose squared scales
    omega^2, 1/beta or 1/(beta omega^2) leave [1/MAX_SQUARED_SCALE,
    MAX_SQUARED_SCALE] are rejected, since q^2 or the energy would overflow.
    """

    omega: float
    beta: float

    def __post_init__(self):
        require_positive("beta", self.beta)
        require_positive("omega", self.omega)
        log_w, log_b = math.log(self.omega), math.log(self.beta)
        for named, what, log_square in (
                (f"omega = {self.omega}", "omega^2", 2.0 * log_w),
                (f"beta = {self.beta}", "1/beta", -log_b),
                (f"omega = {self.omega}, beta = {self.beta}", "1/(beta omega^2)", -log_b - 2.0 * log_w)):
            if abs(log_square) > math.log(MAX_SQUARED_SCALE):
                raise ValidationError(f"{named}: the squared scale {what} = exp({log_square:.6g}) is "
                                      f"outside [1/{MAX_SQUARED_SCALE:g}, {MAX_SQUARED_SCALE:g}]")

    def energy(self, x: np.ndarray) -> np.ndarray:
        """H(q, p) = p^2/2 + omega^2 q^2/2 of the points ``x``."""
        x = np.asarray(x, dtype=float)
        q, p = x[..., 0], x[..., 1]
        return 0.5 * (p * p) + 0.5 * self.omega * self.omega * (q * q)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        return -self.beta * self.energy(x) - math.log(2.0 * math.pi / (self.beta * self.omega))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` points (n, 2), all q drawn first, then all p."""
        sigma_q = 1.0 / (math.sqrt(self.beta) * self.omega)
        sigma_p = 1.0 / math.sqrt(self.beta)
        return np.stack([rng.normal(0.0, sigma_q, size=n), rng.normal(0.0, sigma_p, size=n)], axis=1)


@dataclass(frozen=True)
class VolumePreservingMap:
    """The linear map x -> x @ ``matrix`` of phase-space rows (q, p), det M = 1 in exact
    arithmetic; :func:`jacobian_determinant_check` measures how far it is in floating point.
    The sudden quench is ``VolumePreservingMap(np.eye(2))``."""

    matrix: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix


def harmonic_ramp_map(omega0: float, omega1: float, dt: float, steps: int) -> VolumePreservingMap:
    """Kick-drift-kick leapfrog of H = p^2/2 + omega(t)^2 q^2/2 over ``steps * dt``, with omega
    ramped linearly from omega0 to omega1, as its matrix M.

    The force omega(t)^2 q is linear in q, so every kick and drift is a linear shear (unit
    determinant in exact arithmetic) and their composition is M.  M is built by running the
    leapfrog once on the basis points e_q and e_p, with the force evaluated at the substep
    times 0, dt, 2 dt ...; applying it is O(n) for n points instead of O(steps * n).
    """
    require_positive("dt", dt)  # ahead of duration = dt * steps, so a bad dt or steps is named
    if steps < 1:
        raise ValidationError(f"steps = {steps} must be >= 1")
    require_finite("omega0", omega0)
    require_finite("omega1", omega1)
    duration = dt * steps
    require_positive("duration", duration)

    def omega_squared(t):
        w = omega0 + (omega1 - omega0) * min(max(t / duration, 0.0), 1.0)
        return w * w

    q, p = np.array([1.0, 0.0]), np.array([0.0, 1.0])  # entry k: the image of basis point k
    t = 0.0
    for _ in range(steps):
        p -= 0.5 * dt * (omega_squared(t) * q)
        q += dt * p
        p -= 0.5 * dt * (omega_squared(t + dt) * q)
        t += dt
    return VolumePreservingMap(np.stack([q, p], axis=1))


def jacobian_determinant_check(u: VolumePreservingMap) -> float:
    """|det M - 1| of the map's matrix: its Jacobian, the same at every point."""
    return float(abs(np.linalg.det(u.matrix) - 1.0))


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


def classical_j_expectation(p: CanonicalHarmonicState, q: CanonicalHarmonicState,
                            u: VolumePreservingMap, n: int, seed: int) -> EstimatorResult:
    """Monte Carlo estimate of < q(U(x)) / p(x) > under x ~ p.

    For normalized p, q and volume-preserving U the population value is
    exactly 1; the returned estimate comes with std_error = sample std / sqrt(n)
    and is deterministic for a fixed seed.
    """
    require_count("n", n)
    if n < 2:
        raise ValidationError(f"n = {n!r} must be >= 2: a standard error needs 2 samples")
    require_count("seed", seed)
    rng = np.random.default_rng(seed)
    x = p.sample(rng, n)
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
