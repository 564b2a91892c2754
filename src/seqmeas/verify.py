"""Randomized verification corpus: seeded model sweeps with the full
identity battery.

For every ensemble family the corpus draws random Hamiltonians and Haar
unitaries, builds the two-measurement model, and checks

* the fluctuation identity  < d q / (D p) > = 1,
* the modified doubly stochastic property of the physical conditional,
* nonnegativity of the entropy gap and of the Jensen combination,
* completeness of the two-time POVM,
* internal consistency of the grouped exponent histogram,
* fault sensitivity: a conditional with one entry perturbed by 1e-3
  (row-renormalized) must be flagged by the indicator-vector scan.

Everything is driven by a single root seed through spawned generators,
so a report is reproducible from (seed, n_per_family) alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .ensembles import (
    EnsembleReport,
    GrandCanonicalConfig,
    LocalCanonicalConfig,
    MicrocanonicalConfig,
    PeriodicThermoConfig,
    generate,
)
from .model import ValidationError, conditional, is_modified_doubly_stochastic, require_count
# povm_elements is re-exported: perfbench's span tests look it up in this module
from .quantum import haar_unitary, povm_elements, streamed_completeness_deviation  # noqa: F401

DEFAULT_TOLERANCES = {
    "jarzynski": 1e-10,
    "mod_ds": 1e-11,
    "entropy_gap": 1e-12,
    "jensen": 1e-12,
    "povm_completeness": 1e-11,
    "histogram_identity": 1e-10,
    "fault_detection": 1e-4,
}
FAULT_SIZE = 1e-3

FAMILIES = ("local_canonical", "microcanonical", "grand_canonical", "periodic_thermo")


def _random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_config(family: str, rng: np.random.Generator, index: int):
    """Random config for one corpus model; ``index`` cycles sub-parameters.

    Canonical alternates one/two subsystems, grand-canonical cycles the
    mode count 1..3; scales are moderate so that weights stay far from
    underflow and the spectra far from accidental degeneracy.
    """
    if family == "local_canonical":
        n_sub = 1 + index % 2
        dims = [int(rng.integers(2, 5)) for _ in range(n_sub)] if n_sub == 1 \
            else [int(rng.integers(2, 4)) for _ in range(n_sub)]
        return LocalCanonicalConfig(
            h_t0=[_random_hermitian(rng, d) for d in dims],
            h_t1=[_random_hermitian(rng, d) for d in dims],
            betas=[float(rng.uniform(0.2, 2.0)) for _ in dims],
        )
    if family == "microcanonical":
        dim = int(rng.integers(4, 7))
        return MicrocanonicalConfig(
            h_t0=_random_hermitian(rng, dim),
            h_t1=_random_hermitian(rng, dim),
            energy=float(rng.uniform(-1.5, 1.5)),
            width=float(rng.uniform(0.4, 1.5)),
        )
    if family == "grand_canonical":
        n_modes = 1 + index % 3
        return GrandCanonicalConfig(
            h_t0=_random_hermitian(rng, n_modes),
            h_t1=_random_hermitian(rng, n_modes),
            beta=float(rng.uniform(0.2, 2.0)),
            mu=float(rng.uniform(-1.0, 1.0)),
        )
    if family == "periodic_thermo":
        n_levels = int(rng.integers(3, 6))
        quasi = np.sort(rng.uniform(-2.0, 2.0, size=n_levels))
        while np.min(np.diff(quasi)) < 5e-2:
            quasi = np.sort(rng.uniform(-2.0, 2.0, size=n_levels))
        bath_dim = int(rng.integers(2, 4))
        return PeriodicThermoConfig(
            quasi_energies=quasi,
            bath_hamiltonian=_random_hermitian(rng, bath_dim),
            theta=float(rng.uniform(-2.0, 2.0)),
            beta=float(rng.uniform(0.2, 2.0)),
        )
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def random_model(family: str, seed, index: int = 0) -> EnsembleReport:
    """One corpus model: random config + Haar unitary, fully generated."""
    rng = np.random.default_rng(seed)
    config = random_config(family, rng, index)
    u = haar_unitary(config.dim, rng)
    return generate(config, u)


def fault_injection_check(report: EnsembleReport, fault: float = FAULT_SIZE) -> float:
    """Sensitivity probe: perturb one conditional entry and rescan.

    The entry with the largest headroom gets ``fault`` added, the row is
    renormalized, and the indicator-vector scan (equivalently the
    column-sum deviation of the modified doubly stochastic condition)
    reports the largest resulting identity violation.  A healthy checker
    must see a deviation comparable to the fault size.
    """
    model = report.model
    pi = conditional(model)
    # the column-j0 deviation is fault * d(i0) (1 - pi[i0,j0]) / D(j0);
    # pick the entry maximizing that predicted response
    response = model.d[:, None] * (1.0 - pi) / model.D[None, :]
    i0, j0 = np.unravel_index(int(np.argmax(response)), pi.shape)
    perturbed = pi.copy()
    perturbed[i0, j0] += fault
    perturbed[i0] /= perturbed[i0].sum()
    column_dev = np.abs(perturbed.T @ model.d / model.D - 1.0)
    return float(np.max(column_dev))


@dataclass
class CheckSummary:
    """Aggregate of one named check across a family sweep.

    ``direction`` records which way failure lies: "upper" checks cap a
    deviation, so the worst case is the largest seen; "lower" checks
    (fault detection) demand a minimum response, so the worst case is the
    smallest.
    """

    check: str
    family: str
    tolerance: float
    direction: str = "upper"
    n_models: int = 0
    worst_deviation: float | None = None
    n_failures: int = 0

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def record(self, deviation: float, ok: bool):
        if self.worst_deviation is None:
            self.worst_deviation = deviation
        elif self.direction == "upper":
            self.worst_deviation = max(self.worst_deviation, deviation)
        else:
            self.worst_deviation = min(self.worst_deviation, deviation)
        self.n_models += 1
        if not ok:
            self.n_failures += 1


@dataclass
class VerifyReport:
    seed: int
    n_per_family: int
    families: tuple
    tolerances: dict
    summaries: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.summaries)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "seed": int(self.seed),
            "n_per_family": int(self.n_per_family),
            "families": list(self.families),
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "elapsed_seconds": float(self.elapsed_seconds),
            "checks": [
                {
                    "check": s.check,
                    "family": s.family,
                    "tolerance": float(s.tolerance),
                    "direction": s.direction,
                    "n_models": s.n_models,
                    "worst_deviation": None if s.worst_deviation is None
                    else float(s.worst_deviation),
                    "n_failures": s.n_failures,
                    "passed": s.passed,
                }
                for s in self.summaries
            ],
            "failures": list(self.failures),
        }


def run_corpus(seed: int = 20260814, n_per_family: int = 100,
               families: tuple = FAMILIES, tolerances: dict | None = None,
               max_reported_failures: int = 20) -> VerifyReport:
    """Run the full check battery over seeded random models.

    Tolerance overrides merge into :data:`DEFAULT_TOLERANCES`.  The checks
    are one-sided where the theory is one-sided (entropy gap, Jensen) and
    two-sided elsewhere; ``fault_detection`` is a lower bound (the injected
    fault must be seen), all others are upper bounds.  A negative seed and
    unknown family names or tolerance keys raise :class:`ValidationError`
    before any model runs.
    """
    require_count("seed", seed)
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise ValidationError(f"unknown families {sorted(unknown)}; expected a subset of {FAMILIES}")
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValidationError(f"unknown tolerance keys {sorted(unknown)}")
        tol.update(tolerances)
    t_start = time.time()
    report = VerifyReport(seed=seed, n_per_family=n_per_family,
                          families=tuple(families), tolerances=tol)
    root = np.random.SeedSequence(seed)
    for family in families:
        summaries = {
            name: CheckSummary(check=name, family=family, tolerance=tol[name],
                               direction="lower" if name == "fault_detection" else "upper")
            for name in tol
        }
        seeds = root.spawn(n_per_family)
        for index, child in enumerate(seeds):
            model_report = random_model(family, child, index)
            outcomes = _run_checks(model_report, tol)
            for name, (deviation, ok) in outcomes.items():
                summaries[name].record(deviation, ok)
                if not ok and len(report.failures) < max_reported_failures:
                    report.failures.append({
                        "family": family, "model_index": index, "check": name,
                        "deviation": float(deviation), "tolerance": float(tol[name]),
                    })
        report.summaries.extend(summaries.values())
    report.elapsed_seconds = time.time() - t_start
    return report


def _run_checks(report: EnsembleReport, tol: dict) -> dict:
    pi = conditional(report.model)
    _, ds_dev = is_modified_doubly_stochastic(pi, report.model.d, report.model.D,
                                              tol=tol["mod_ds"])
    povm_dev = streamed_completeness_deviation(report.u, report.first_family, report.second_family)
    j_dev = abs(report.jarzynski_lhs - 1.0)
    hist_dev = abs(report.histogram_identity - report.jarzynski_lhs)
    fault_dev = fault_injection_check(report)
    return {
        "jarzynski": (j_dev, j_dev <= tol["jarzynski"]),
        "mod_ds": (ds_dev, ds_dev <= tol["mod_ds"]),
        "entropy_gap": (max(0.0, -report.entropy_gap),
                        report.entropy_gap >= -tol["entropy_gap"]),
        "jensen": (max(0.0, -report.jensen_lhs), report.jensen_lhs >= -tol["jensen"]),
        "povm_completeness": (povm_dev, povm_dev <= tol["povm_completeness"]),
        "histogram_identity": (hist_dev, hist_dev <= tol["histogram_identity"]),
        "fault_detection": (fault_dev, fault_dev >= tol["fault_detection"]),
    }
