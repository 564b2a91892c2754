"""Span recorder: self-time arithmetic and complete restoration of wrappers."""

import sys

import numpy as np
import pytest

from perfbench.spans import LAYERS, Recorder, Span, self_times


def _namespaces():
    """Every (namespace, key) -> object pair that the layers could touch."""
    import seqmeas.classical
    import seqmeas.quantum

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "seqmeas" or name.startswith("seqmeas."):
            out.update({(name, k): v for k, v in vars(module).items()})
    for cls in (seqmeas.quantum.SpectralFamily, seqmeas.classical.VolumePreservingMap):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.5, 0, 0),
        Span("leaf", 7.0, 7.25, None, 1),
        # overlapping children are counted once
        Span("overlap", 20.0, 30.0, None, 2),
        Span("x", 21.0, 25.0, 5, 2),
        Span("y", 24.0, 27.0, 5, 2),
        # a child reaching past its parent only covers the parent's part
        Span("clip", 40.0, 41.0, None, 3),
        Span("z", 40.5, 42.0, 8, 3),
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5, 0.25, 10.0 - 6.0, 4.0, 3.0, 0.5, 1.5])


def test_wrappers_record_nested_spans_and_are_fully_restored():
    from seqmeas import quantum, verify

    before = _namespaces()
    rec = Recorder()
    with rec.patched(LAYERS):
        assert verify.povm_elements is quantum.povm_elements
        assert verify.povm_elements is not before[("seqmeas.quantum", "povm_elements")]
        rec.item = 7
        report = verify.random_model("grand_canonical", np.random.SeedSequence(3), 1)
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(before[k] is v for k, v in after.items())

    names = [s.name for s in rec.spans]
    assert names[0] == "verify.random_model"
    assert rec.spans[0].parent is None and rec.spans[0].attrs["family"] == "grand_canonical"
    assert rec.spans[0].attrs["dim"] == report.u.shape[0]
    generate = names.index("ensembles.generate")
    assert rec.spans[generate].parent == 0
    assert "quantum.SpectralFamily.validate" in names
    assert all(s.item == 7 and s.start <= s.end for s in rec.spans)


def test_wrappers_are_restored_when_the_block_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with Recorder().patched(LAYERS):
            raise RuntimeError("boom")
    assert all(before[k] is v for k, v in _namespaces().items())
