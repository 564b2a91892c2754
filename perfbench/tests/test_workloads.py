"""Workload inputs are fixed by the seed; BENCHMARK.json matches the report."""

import json

import numpy as np
import pytest

from perfbench import compare, run, workloads


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _inputs(name, seed, tmp_path):
    wl = workloads.make(name, seed, tmp_path)
    return [(item.kind, item.size, item.inputs) for k in range(3) for item in wl.cycle(k)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    first, again = _inputs(name, 5, tmp_path), _inputs(name, 5, tmp_path)
    assert _same(first, again)
    if name != "entropy_curve":  # its inputs are fixed; the seed only orders the points
        assert not _same(first, _inputs(name, 6, tmp_path))


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, "higher") == "better"
    assert compare.verdict(parent, faster, "lower") == "worse"
    assert compare.verdict(parent, [x + 0.01 for x in parent], "higher") == "unresolved"
    mixed = faster[:8] + [1.0, 1.0]
    assert compare.verdict(parent, mixed, "higher") == "unresolved"


def test_ratio_check_misses_fail_only_when_implausible(tmp_path):
    wl = workloads.make("classical_ramp", 0, tmp_path)
    wl.ratio_calls = {("ramp", s): s == 0 for s in range(120)}
    assert wl.finish()[0] == {}
    wl.ratio_calls = {("ramp", s): s < 8 for s in range(120)}
    failures, summary = wl.finish()
    assert len(failures) == 8
    assert summary[wl.RATIO_CHECK]["chance_probability"] < wl.RATIO_MISS_P
