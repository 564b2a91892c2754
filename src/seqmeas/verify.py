"""Randomized verification corpus: seeded model sweeps with the full
identity battery.

For every ensemble family the corpus draws random Hamiltonians and Haar
unitaries, builds the two-measurement model, and checks

* the fluctuation identity  < d q / (D p) > = 1,
* the modified doubly stochastic property of the physical conditional,
  scanned by :func:`is_modified_doubly_stochastic`,
* nonnegativity of the entropy gap and of the Jensen value < X >,
* completeness of the two-time POVM,
* internal consistency of the grouped exponent histogram,
* fault sensitivity: the same conditional with one entry perturbed by 1e-3
  (row-renormalized) must be flagged by that same checker, unless there is
  one second outcome, where no such fault exists.

Everything is driven by a single root seed through spawned generators,
so a report is reproducible from (seed, n_per_family) alone.  The seeds
are walked in chunks of at most ``CHUNK_MODELS``; a chunk draws each model's
raw config fields, then its Ginibre matrix, in seed order.  Each bucket of
one ``stack_key`` is checked as one stacked config, gets its Haar unitaries
from one batched QR, and runs through :func:`ensembles.generate_stack` and
the checks at once.  A bucket that does not stack (an invalid drawn field,
models whose spectra cut differently, or unequal level counts) runs model by
model, each as a stack of one; :func:`random_model` is that stack of one.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensembles import (
    EnsembleReport,
    GrandCanonicalConfig,
    LocalCanonicalConfig,
    MicrocanonicalConfig,
    PeriodicThermoConfig,
    generate,
    generate_stack,
    stack_configs,
    stack_key,
)
from .model import (PreconditionError, ValidationError, conditional, is_modified_doubly_stochastic, require_count,
                    validated)
# povm_elements is re-exported: perfbench's span tests look it up in this module
from .quantum import (POVM_COMPLETENESS_TOL, ginibre, haar_orthonormalize, povm_elements,  # noqa: F401
                      streamed_completeness_deviation)

DEFAULT_TOLERANCES = {
    "jarzynski": 1e-10,
    "mod_ds": 1e-11,
    "entropy_gap": 1e-12,
    "jensen": 1e-12,
    "povm_completeness": POVM_COMPLETENESS_TOL,
    "histogram_identity": 1e-10,
    "fault_detection": 1e-4,
}
FAULT_SIZE = 1e-3

FAMILIES = ("local_canonical", "microcanonical", "grand_canonical", "periodic_thermo")
# Models drawn and stacked at a time: a chunk's arrays stay small whatever n_per_family is.
CHUNK_MODELS = 128


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = ginibre(dim, rng)
    return 0.5 * (a + a.conj().T)


def draw_model(family: str, seed, index: int) -> tuple:
    """Config class, unchecked field values (a dict) and Ginibre matrix of one corpus model,
    drawn in that order from one generator; ``index`` cycles sub-parameters.

    Canonical alternates one/two subsystems, grand-canonical cycles the
    mode count 1..3; scales are moderate so that weights stay far from
    underflow and the spectra far from accidental degeneracy.
    """
    rng = np.random.default_rng(seed)
    if family == "local_canonical":
        n_sub = 1 + index % 2
        dims = [int(rng.integers(2, 5)) for _ in range(n_sub)] if n_sub == 1 \
            else [int(rng.integers(2, 4)) for _ in range(n_sub)]
        kind, values = LocalCanonicalConfig, dict(
            h_t0=[_random_hermitian(rng, d) for d in dims], h_t1=[_random_hermitian(rng, d) for d in dims],
            betas=[float(rng.uniform(0.2, 2.0)) for _ in dims])
    elif family == "microcanonical":
        dim = int(rng.integers(4, 7))
        kind, values = MicrocanonicalConfig, dict(
            h_t0=_random_hermitian(rng, dim), h_t1=_random_hermitian(rng, dim),
            energy=float(rng.uniform(-1.5, 1.5)), width=float(rng.uniform(0.4, 1.5)))
    elif family == "grand_canonical":
        n_modes = 1 + index % 3
        kind, values = GrandCanonicalConfig, dict(
            h_t0=_random_hermitian(rng, n_modes), h_t1=_random_hermitian(rng, n_modes),
            beta=float(rng.uniform(0.2, 2.0)), mu=float(rng.uniform(-1.0, 1.0)))
    elif family == "periodic_thermo":
        n_levels = int(rng.integers(3, 6))
        quasi = np.sort(rng.uniform(-2.0, 2.0, size=n_levels))
        while np.min(np.diff(quasi)) < 5e-2:
            quasi = np.sort(rng.uniform(-2.0, 2.0, size=n_levels))
        bath_dim = int(rng.integers(2, 4))
        kind, values = PeriodicThermoConfig, dict(
            quasi_energies=quasi, bath_hamiltonian=_random_hermitian(rng, bath_dim),
            theta=float(rng.uniform(-2.0, 2.0)), beta=float(rng.uniform(0.2, 2.0)))
    else:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return kind, values, ginibre(validated(kind, **values).dim, rng)


def random_model(family: str, seed, index: int = 0) -> EnsembleReport:
    """One corpus model: random config + Haar unitary, generated as a stack of one."""
    kind, values, z = draw_model(family, seed, index)
    return generate(kind(**values), haar_orthonormalize(z))


def fault_injection_check(pi: np.ndarray, d: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Sensitivity probe of the column-sum checker: perturb one entry of the conditional ``pi``
    and measure the result with :func:`is_modified_doubly_stochastic`, the checker of ``mod_ds``.

    The entry (i0, j0) gets ``FAULT_SIZE`` added and its row is renormalized, which moves
    the column sum j0 by FAULT_SIZE d(i0) (1 - pi[i0, j0]) / (1 + FAULT_SIZE); the entry
    maximizing that response is perturbed.  Returns the checker's worst deviation, one per
    model of a stack; a healthy checker must see a deviation comparable to the fault size.
    """
    perturbed = pi.reshape((-1,) + pi.shape[-2:]).copy()
    b = np.arange(len(perturbed))
    response = d[:, None] * (1.0 - perturbed)
    i0, j0 = np.unravel_index(response.reshape(len(b), -1).argmax(axis=-1), pi.shape[-2:])
    perturbed[b, i0, j0] += FAULT_SIZE
    perturbed[b, i0] /= perturbed[b, i0].sum(axis=-1, keepdims=True)
    return is_modified_doubly_stochastic(perturbed, d, D).max_deviation.reshape(pi.shape[:-2])


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

    def record(self, deviations: np.ndarray, ok: np.ndarray):
        """Add the deviations and verdicts of a stack of models."""
        worst = max if self.direction == "upper" else min
        seen = [] if self.worst_deviation is None else [self.worst_deviation]
        self.worst_deviation = worst(seen + [float(worst(deviations))])
        self.n_models += ok.size
        self.n_failures += int(ok.size - np.count_nonzero(ok))


@dataclass
class VerifyReport:
    seed: int
    n_per_family: int
    families: tuple
    tolerances: dict
    summaries: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed_seconds: float = 0.0
    family_seconds: dict = field(default_factory=dict)  # wall time of each family's sweep

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
            "family_seconds": {k: float(v) for k, v in self.family_seconds.items()},
            "checks": [{**asdict(s), "tolerance": float(s.tolerance), "passed": s.passed}
                       for s in self.summaries],
            "failures": list(self.failures),
        }


def run_corpus(seed: int = 20260814, n_per_family: int = 100,
               families: tuple = FAMILIES, tolerances: dict | None = None,
               max_reported_failures: int = 20) -> VerifyReport:
    """Run the full check battery over seeded random models.

    Tolerance overrides merge into :data:`DEFAULT_TOLERANCES`.  The checks
    are one-sided where the theory is one-sided (entropy gap, Jensen) and
    two-sided elsewhere; ``fault_detection`` is a lower bound (the injected
    fault must be seen), all others are upper bounds.  A negative seed, fewer
    than one model per family, unknown or repeated family names and unknown
    tolerance keys raise :class:`ValidationError` before any model runs.
    """
    require_count("seed", seed)
    require_count("n_per_family", n_per_family, positive=True)
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise ValidationError(f"unknown families {sorted(unknown)}; expected a subset of {FAMILIES}")
    repeated = sorted({f for f in families if families.count(f) > 1})
    if repeated:
        raise ValidationError(f"families {repeated} are listed more than once")
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValidationError(f"unknown tolerance keys {sorted(unknown)}")
        tol.update(tolerances)
    t_start = time.perf_counter()
    report = VerifyReport(seed=seed, n_per_family=n_per_family,
                          families=tuple(families), tolerances=tol)
    root = np.random.SeedSequence(seed)
    for family in families:
        t_family = time.perf_counter()
        summaries = {
            name: CheckSummary(check=name, family=family, tolerance=tol[name],
                               direction="lower" if name == "fault_detection" else "upper")
            for name in tol
        }
        seeds = root.spawn(n_per_family)
        for start in range(0, n_per_family, CHUNK_MODELS):
            failures = []
            for indices, outcomes in _check_chunk(family, seeds, start, tol):
                for order, (name, (deviations, ok)) in enumerate(outcomes.items()):
                    summaries[name].record(deviations, ok)
                    failures += [(int(i), order, name, float(d)) for i, d in zip(indices[~ok], deviations[~ok])]
            room = max(0, max_reported_failures - len(report.failures))
            for index, _, name, deviation in sorted(failures)[:room]:
                report.failures.append({
                    "family": family, "model_index": index, "check": name,
                    "deviation": deviation, "tolerance": float(tol[name]),
                })
        report.summaries.extend(summaries.values())
        report.family_seconds[family] = time.perf_counter() - t_family
    report.elapsed_seconds = time.perf_counter() - t_start
    return report


def _check_chunk(family: str, seeds, start: int, tol: dict):
    """Draw the chunk of models from ``start`` in seed order, bucket them by stack key, and yield
    each bucket's (model indices, check outcomes), its configs checked once as one stacked config
    and its unitaries from one batched QR.  A bucket that does not stack (a typed error, such as an
    invalid drawn field or models whose spectra cut differently) runs model by model, each as a
    stack of one; a model that fails alone raises again, naming its family and model_index."""
    buckets = {}
    for index in range(start, min(start + CHUNK_MODELS, len(seeds))):
        kind, values, z = draw_model(family, seeds[index], index)
        buckets.setdefault(stack_key(kind, values), []).append((index, values, z))
    for (kind, *_), models in buckets.items():
        stacks = [models]
        while stacks:
            indices, rows, z = zip(*stacks.pop(0))
            try:
                config = stack_configs(kind, rows)
                config.check()
                yield np.array(indices), run_checks(generate_stack(config, haar_orthonormalize(np.array(z))), tol)
            except (ValidationError, PreconditionError) as exc:
                if len(indices) == 1:
                    raise type(exc)(f"{family} model_index {indices[0]}: {exc}") from exc
                stacks = [[model] for model in models]  # the bucket does not stack: model by model


def run_checks(report: EnsembleReport, tol: dict) -> dict:
    """(deviations, verdicts) of every check under ``tol``, one entry per model of a stacked report:
    the one judge of an ensemble model, in the corpus and in ``seqmeas ensemble``.  With one second
    outcome every row-stochastic conditional meets the column sum, sum_i pi(1|i) d(i) = dim = D(1), so
    no fault of the probe's kind exists: ``fault_detection`` passes, its deviation still the response."""
    pi = conditional(report.model)
    ds_dev = is_modified_doubly_stochastic(pi, report.model.d, report.model.D).max_deviation
    povm_dev = streamed_completeness_deviation(report.u, report.first_family, report.second_family)
    j_dev = np.abs(report.jarzynski_lhs - 1.0)
    hist_dev = np.abs(report.histogram_identity - report.jarzynski_lhs)
    fault_dev = fault_injection_check(pi, report.model.d, report.model.D)
    gap, jensen = report.entropy_gap, report.jensen_lhs
    return {
        "jarzynski": (j_dev, j_dev <= tol["jarzynski"]),
        "mod_ds": (ds_dev, ds_dev <= tol["mod_ds"]),
        "entropy_gap": (np.where(gap < 0.0, -gap, 0.0), gap >= -tol["entropy_gap"]),
        "jensen": (np.where(jensen < 0.0, -jensen, 0.0), jensen >= -tol["jensen"]),
        "povm_completeness": (povm_dev, povm_dev <= tol["povm_completeness"]),
        "histogram_identity": (hist_dev, hist_dev <= tol["histogram_identity"]),
        "fault_detection": (fault_dev, (fault_dev >= tol["fault_detection"]) | (pi.shape[-1] == 1)),
    }
