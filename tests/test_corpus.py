"""The stacked corpus against the stack of one: same deviations, same reports, failures
attributed to the model that caused them."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from seqmeas import verify
from seqmeas.ensembles import GrandCanonicalConfig, generate, generate_stack, stack_configs, stack_key
from seqmeas.model import ModDSResult, PreconditionError, ValidationError
from seqmeas.quantum import ginibre, haar_orthonormalize, haar_unitary

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
        alone = verify.run_checks(verify.random_model(family, child, index), verify.DEFAULT_TOLERANCES)
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


def _stack(configs):
    """The stacked config of checked one-model configs of one kind and shape."""
    return stack_configs(type(configs[0]), [vars(c) for c in configs])


def test_a_degenerate_model_in_a_bucket_gives_the_report_it_gives_alone():
    """The h = 0 model cuts its number sectors unlike the others, so the bucket does not stack
    and names it; it has its report alone, and the other five stack, each as it is alone."""
    configs, us = _grand_canonical_bucket(np.random.default_rng(5), 3, zero_at=2, n=6)
    with pytest.raises(PreconditionError, match="^stacked model 2 differs from model 0 in its spectral cuts"):
        generate_stack(_stack(configs), us)
    assert generate(configs[2], us[2]).first_family.degeneracies.tolist() == [1, 3, 3, 1]
    rest = [0, 1, 3, 4, 5]
    stacked = generate_stack(_stack([configs[b] for b in rest]), us[rest])
    for k, b in enumerate(rest):
        together, alone = stacked.take(k), generate(configs[b], us[b])
        assert together.to_json_dict() == alone.to_json_dict()
        np.testing.assert_array_equal(together.first_family.degeneracies, alone.first_family.degeneracies)


# a degenerate model planted in every fifth corpus model: h_t0 = 0 cuts the number sectors of
# a grand-canonical model unlike its bucket's, and h_t1 = h_t0 merges the diagonal of a
# microcanonical exponent table into one level, so its histogram has fewer levels
PLANTED = {"grand_canonical": (lambda c: {"h_t0": 0 * c["h_t0"]}, "in its spectral cuts"),
           "microcanonical": (lambda c: {"h_t1": c["h_t0"]}, "in its number of levels")}


@pytest.mark.parametrize("family", PLANTED)
def test_a_bucket_that_does_not_stack_gives_the_report_of_each_model_alone(family, monkeypatch):
    change, reason = PLANTED[family]
    draw_model, stack = verify.draw_model, verify.generate_stack
    errors = []

    def planted(family, seed, index):
        kind, values, z = draw_model(family, seed, index)
        return kind, (values | change(values) if index % 5 == 4 else values), z

    def spying(config, us):
        try:
            return stack(config, us)
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
    stack = verify.stack_configs

    def recording(kind, rows):
        calls.append(({stack_key(kind, row) for row in rows}, len(rows)))
        return stack(kind, rows)

    monkeypatch.setattr(verify, "stack_configs", recording)
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


def test_the_fault_probe_scans_with_the_column_sum_checker(monkeypatch):
    """A checker blind to column sums passes the mod_ds check, so the probe must see through
    the same checker and flag the injected fault in every family."""
    def blind(pi, d, D):
        zero = np.zeros(pi.shape[:-2])
        return ModDSResult(zero == 0.0, zero)

    monkeypatch.setattr(verify, "is_modified_doubly_stochastic", blind)
    report = verify.run_corpus(5, 4)
    assert not report.all_passed
    failing = {(s.family, s.check) for s in report.summaries if not s.passed}
    assert failing == {(family, "fault_detection") for family in verify.FAMILIES}
    assert all(s.worst_deviation == 0.0 for s in report.summaries if s.check == "fault_detection")


def test_the_fault_probe_moves_the_column_sum_by_its_stated_response():
    """On conditionals that meet the column sum, the probe returns
    FAULT_SIZE d(i0) (1 - pi(j0|i0)) / (1 + FAULT_SIZE) for the entry (i0, j0) that maximizes
    d(i) (1 - pi(j|i)): the renormalized row moves column j0 by that and no column by more."""
    d = D = np.array([1.0, 2.0])
    pi = np.array([[[0.6, 0.4], [0.2, 0.8]],    # picks (1, 0): 2 (1 - 0.2) = 1.6
                   [[0.2, 0.8], [0.4, 0.6]]])   # picks (1, 0): 2 (1 - 0.4) = 1.2
    assert np.allclose(np.matmul(pi.swapaxes(-1, -2), d), D, rtol=0.0, atol=1e-15)
    response = verify.fault_injection_check(pi, d, D)
    size = verify.FAULT_SIZE
    np.testing.assert_allclose(response, size * np.array([1.6, 1.2]) / (1.0 + size), rtol=1e-12)
    assert response[0] == verify.fault_injection_check(pi[0], d, D)


def test_an_error_in_a_bucket_names_the_family_and_model_index(monkeypatch):
    draw_model, orthonormalize = verify.draw_model, verify.haar_orthonormalize
    fifth = []

    def recording(family, seed, index):
        kind, values, z = draw_model(family, seed, index)
        if index == 5:
            fifth.append(z)
        return kind, values, z

    def one_bad_unitary(z):
        """The unitary of model 5, in whatever stack it is orthonormalized, scaled off the unit circle."""
        u = orthonormalize(z)
        planted = np.array([np.array_equal(m, fifth[0]) for m in z])
        return np.where(planted[:, None, None], 1.01 * u, u)

    monkeypatch.setattr(verify, "draw_model", recording)
    monkeypatch.setattr(verify, "haar_orthonormalize", one_bad_unitary)
    with pytest.raises(ValidationError, match=r"^microcanonical model_index 5: U is not unitary"):
        verify.run_corpus(seed=3, n_per_family=12, families=("microcanonical",))


# a drawn field that fails its config check: beta = 0, and an h_t0 with an anti-Hermitian part
INVALID = {"grand_canonical": (lambda c: {"beta": 0.0}, r"beta = 0\.0 must be positive and finite$"),
           "microcanonical": (lambda c: {"h_t0": c["h_t0"] + 1j * np.eye(len(c["h_t0"]))},
                              r"h_t0 is not Hermitian \(deviation 2\.000e\+00\)$")}


@pytest.mark.parametrize("family", INVALID)
def test_an_invalid_drawn_field_names_the_family_model_index_and_field(family, monkeypatch):
    """The stacked check of a bucket fails on one planted model; run alone, that model names itself."""
    change, message = INVALID[family]
    draw_model, stack = verify.draw_model, verify.stack_configs
    sizes = []

    def planted(family, seed, index):
        kind, values, z = draw_model(family, seed, index)
        return kind, (values | change(values) if index == 7 else values), z

    monkeypatch.setattr(verify, "draw_model", planted)
    monkeypatch.setattr(verify, "stack_configs", lambda kind, rows: sizes.append(len(rows)) or stack(kind, rows))
    with pytest.raises(ValidationError, match=rf"^{family} model_index 7: {message}"):
        verify.run_corpus(seed=9, n_per_family=24, families=(family,))
    assert sizes[-1] == 1 and sizes[sizes.index(1) - 1] > 1  # the bucket ran as a stack, then model by model


# sha256 of the seeded corpus report without its timing keys, as computed before the
# bucket-wise draw: every refactor of the corpus must keep these bits
SEEDED_CORPUS_SHA256 = "46ff6c4701fc82df458468365677e3baa59386e194003fb4be4c7c57cc9edcf5"


def test_the_seeded_corpus_report_keeps_its_bits():
    out = verify.run_corpus(20260814, 100).to_json_dict()
    del out["elapsed_seconds"], out["family_seconds"]
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() == SEEDED_CORPUS_SHA256


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("dim", range(1, 17))
def test_a_stack_of_ginibre_draws_orthonormalizes_to_each_haar_unitary(dim, n):
    """One batched QR gives every model's haar_unitary bit for bit, and leaves each model's
    generator where haar_unitary leaves it."""
    seeds = np.random.SeedSequence([dim, n]).spawn(n)
    alone, batched = [np.random.default_rng(s) for s in seeds], [np.random.default_rng(s) for s in seeds]
    us = [haar_unitary(dim, rng) for rng in alone]
    stacked = haar_orthonormalize(np.array([ginibre(dim, rng) for rng in batched]))
    assert all(np.array_equal(stacked[b], u) for b, u in enumerate(us))
    assert [rng.normal() for rng in alone] == [rng.normal() for rng in batched]


def test_report_times_every_family():
    report = verify.run_corpus(seed=2, n_per_family=3, families=("periodic_thermo", "microcanonical"))
    seconds = report.to_json_dict()["family_seconds"]
    assert list(seconds) == ["periodic_thermo", "microcanonical"]
    assert all(0.0 < s <= report.elapsed_seconds for s in seconds.values())


def test_a_repeated_family_is_rejected_before_any_model_runs(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a model ran")
    monkeypatch.setattr(verify, "_check_chunk", no_chunk)
    with pytest.raises(ValidationError, match=r"^families \['local_canonical'\] are listed more than once$"):
        verify.run_corpus(seed=2, n_per_family=3, families=("local_canonical", "microcanonical", "local_canonical"))
