"""The stacked corpus against the stack of one: same deviations, same reports, failures
attributed to the model that caused them."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from seqmeas import verify
from seqmeas.ensembles import GrandCanonicalConfig, generate, generate_stack, stack_key
from seqmeas.model import PreconditionError, ValidationError
from seqmeas.quantum import haar_unitary

# tolerances that every model misses, so that the report lists every model's deviations
MISS_EVERYTHING = {name: np.inf if name == "fault_detection" else -np.inf for name in verify.DEFAULT_TOLERANCES}


def _listed_deviations(seed: int, n: int, family: str) -> dict:
    """(model_index, check) -> deviation of every model of a one-family corpus."""
    report = verify.run_corpus(seed=seed, n_per_family=n, families=(family,), tolerances=MISS_EVERYTHING,
                               max_reported_failures=n * len(MISS_EVERYTHING))
    assert all(s.n_failures == s.n_models == n for s in report.summaries)
    return {(f["model_index"], f["check"]): f["deviation"] for f in report.failures}


@pytest.mark.parametrize("family", verify.FAMILIES)
def test_corpus_across_a_chunk_boundary_matches_each_model_alone(family):
    """Every model of a corpus that crosses a chunk boundary has the deviations of
    random_model plus the checks, run on that model alone."""
    n = verify.CHUNK_MODELS + 3
    listed = _listed_deviations(41, n, family)
    assert len(listed) == n * len(MISS_EVERYTHING)
    seeds = np.random.SeedSequence(41).spawn(n)
    differing = {}
    for index, child in enumerate(seeds):
        alone = verify._run_checks(verify.random_model(family, child, index), verify.DEFAULT_TOLERANCES)
        for name, (deviation, _) in alone.items():
            if listed[index, name] != float(deviation):
                differing[index, name] = (listed[index, name], float(deviation))
    assert all(abs(a - b) <= 1e-14 for a, b in differing.values()), differing


def _grand_canonical_bucket(rng: np.random.Generator, n_modes: int, zero_at: int, n: int):
    """n same-shape grand-canonical configs with Haar unitaries; model ``zero_at`` has h = 0,
    so its number sectors are exactly degenerate."""
    configs, us = [], []
    for index in range(n):
        hs = [verify._random_hermitian(rng, n_modes) * (index != zero_at) for _ in range(2)]
        configs.append(GrandCanonicalConfig(h_t0=hs[0], h_t1=hs[1], beta=float(rng.uniform(0.2, 2.0)),
                                            mu=float(rng.uniform(-1.0, 1.0))))
        us.append(haar_unitary(configs[-1].dim, rng))
    return configs, np.array(us)


def test_a_degenerate_model_in_a_bucket_gives_the_report_it_gives_alone():
    """The h = 0 model cuts its number sectors unlike the others, so the bucket does not stack
    and names it; it has its report alone, and the other five stack, each as it is alone."""
    configs, us = _grand_canonical_bucket(np.random.default_rng(5), 3, zero_at=2, n=6)
    with pytest.raises(PreconditionError, match="^stacked model 2 differs from model 0 in its spectral cuts"):
        generate_stack(configs, us)
    assert generate(configs[2], us[2]).first_family.degeneracies.tolist() == [1, 3, 3, 1]
    rest = [0, 1, 3, 4, 5]
    stacked = generate_stack([configs[b] for b in rest], us[rest])
    for k, b in enumerate(rest):
        together, alone = stacked.take(k), generate(configs[b], us[b])
        assert together.to_json_dict() == alone.to_json_dict()
        np.testing.assert_array_equal(together.first_family.degeneracies, alone.first_family.degeneracies)


# a degenerate model planted in every fifth corpus model: h_t0 = 0 cuts the number sectors of
# a grand-canonical model unlike its bucket's, and h_t1 = h_t0 merges the diagonal of a
# microcanonical exponent table into one level, so its histogram has fewer levels
PLANTED = {"grand_canonical": (lambda c: {"h_t0": 0 * c.h_t0}, "in its spectral cuts"),
           "microcanonical": (lambda c: {"h_t1": c.h_t0}, "in its number of levels")}


@pytest.mark.parametrize("family", PLANTED)
def test_a_bucket_that_does_not_stack_gives_the_report_of_each_model_alone(family, monkeypatch):
    change, reason = PLANTED[family]
    draw_model, stack = verify.draw_model, verify.generate_stack
    errors = []

    def planted(family, seed, index):
        config, u = draw_model(family, seed, index)
        return (dataclasses.replace(config, **change(config)) if index % 5 == 4 else config), u

    def spying(configs, us):
        try:
            return stack(configs, us)
        except PreconditionError as exc:
            errors.append(str(exc))
            raise

    def report() -> dict:
        out = verify.run_corpus(seed=47, n_per_family=30, families=(family,), tolerances=MISS_EVERYTHING,
                                max_reported_failures=30 * len(MISS_EVERYTHING)).to_json_dict()
        del out["elapsed_seconds"], out["family_seconds"]
        return out

    monkeypatch.setattr(verify, "draw_model", planted)
    monkeypatch.setattr(verify, "generate_stack", spying)
    stacked = report()
    assert any(reason in e for e in errors)
    assert len(stacked["failures"]) == 30 * len(MISS_EVERYTHING)
    monkeypatch.setattr(verify, "CHUNK_MODELS", 1)  # a chunk, and so a bucket, per model
    assert report() == stacked


def test_the_seeded_corpus_runs_one_stack_per_bucket(monkeypatch):
    """Corpus traffic is rectangular: every bucket runs as one stack and none falls back
    to its models one at a time (that would repeat the bucket's stack key in a chunk)."""
    calls = []
    stack = verify.generate_stack

    def recording(configs, us):
        calls.append(({stack_key(c) for c in configs}, len(configs)))
        return stack(configs, us)

    monkeypatch.setattr(verify, "generate_stack", recording)
    assert verify.CHUNK_MODELS >= 100  # one chunk per family
    report = verify.run_corpus(seed=20260814, n_per_family=100)
    assert report.all_passed
    assert all(len(keys) == 1 for keys, _ in calls)
    keys = [key for (key,), _ in calls]
    assert len(set(keys)) == len(keys)
    assert sum(n for _, n in calls) == 100 * len(verify.FAMILIES)


def test_a_failing_check_is_reported_under_its_own_model_index_only():
    """A fault-detection bound between the two weakest responses fails the weakest model alone."""
    listed = _listed_deviations(43, 24, "microcanonical")
    weakest = sorted((dev, index) for (index, name), dev in listed.items() if name == "fault_detection")
    assert weakest[0][0] < weakest[1][0]
    report = verify.run_corpus(seed=43, n_per_family=24, families=("microcanonical",),
                               tolerances={"fault_detection": 0.5 * (weakest[0][0] + weakest[1][0])})
    assert [(f["model_index"], f["check"]) for f in report.failures] == [(weakest[0][1], "fault_detection")]
    assert sum(s.n_failures for s in report.summaries) == 1


def test_an_error_in_a_bucket_names_the_family_and_model_index(monkeypatch):
    draw_model = verify.draw_model

    def one_bad_unitary(family, seed, index):
        config, u = draw_model(family, seed, index)
        return config, (1.01 * u if index == 5 else u)

    monkeypatch.setattr(verify, "draw_model", one_bad_unitary)
    with pytest.raises(ValidationError, match=r"^microcanonical model_index 5: U is not unitary"):
        verify.run_corpus(seed=3, n_per_family=12, families=("microcanonical",))


def test_report_times_every_family():
    report = verify.run_corpus(seed=2, n_per_family=3, families=("periodic_thermo", "microcanonical"))
    seconds = report.to_json_dict()["family_seconds"]
    assert list(seconds) == ["periodic_thermo", "microcanonical"]
    assert all(0.0 < s <= report.elapsed_seconds for s in seconds.values())
