"""In-memory span recorder that traces seqmeas from the outside.

The recorder wraps public functions of the package for the length of a
``with recorder.patched(LAYERS):`` block.  Each wrapped name is replaced
in every ``seqmeas`` module namespace that holds the same object (a
function imported with ``from .quantum import povm_elements`` lives in
both ``seqmeas.quantum`` and ``seqmeas.verify``), and methods are
replaced on their class.  Every original is put back when the block
exits, also on error.

A span records name, start, end, parent span and the benchmark item it
belongs to; spans stay in memory until the run writes them out once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    attrs: dict | None = None


@dataclass(frozen=True)
class Layer:
    """One traced function: ``module`` is the defining seqmeas module,
    ``qualname`` the attribute path inside it (``Class.method`` for
    methods), ``name`` the metric prefix, and ``describe`` an optional
    map from (args, kwargs, result) to size attributes of the span."""

    name: str
    module: str
    qualname: str
    describe: Callable | None = None


def _random_model_attrs(args, kwargs, result):
    family = args[0] if args else kwargs["family"]
    return {"family": family, "dim": int(result.u.shape[0]),
            "outcomes": list(result.model.shape)}


def _t_attrs(args, kwargs, result):
    return {"t": float(args[1] if len(args) > 1 else kwargs["t"])}


# Package modules are the layers; these are their public entry points
# whose time the per-layer metrics report.
LAYERS = (
    Layer("verify.run_corpus", "seqmeas.verify", "run_corpus"),
    Layer("verify.random_model", "seqmeas.verify", "random_model", _random_model_attrs),
    Layer("verify.fault_injection_check", "seqmeas.verify", "fault_injection_check"),
    Layer("ensembles.generate", "seqmeas.ensembles", "generate"),
    Layer("quantum.joint_diagonalize", "seqmeas.quantum", "joint_diagonalize"),
    Layer("quantum.SpectralFamily.validate", "seqmeas.quantum", "SpectralFamily.__post_init__"),
    Layer("quantum.build_joint_model", "seqmeas.quantum", "build_joint_model"),
    Layer("quantum.check_assumption2", "seqmeas.quantum", "check_assumption2"),
    Layer("quantum.physical_conditional", "seqmeas.quantum", "physical_conditional"),
    Layer("quantum.povm_elements", "seqmeas.quantum", "povm_elements"),
    Layer("model.group_levels", "seqmeas.model", "group_levels"),
    Layer("model.crooks_check", "seqmeas.model", "crooks_check"),
    Layer("model.shannon_entropy", "seqmeas.model", "shannon_entropy"),
    Layer("wavepacket.entropy_curve", "seqmeas.wavepacket", "entropy_curve"),
    Layer("wavepacket.first_marginal", "seqmeas.wavepacket", "first_marginal"),
    Layer("wavepacket.second_marginal", "seqmeas.wavepacket", "second_marginal", _t_attrs),
    Layer("wavepacket.conditional_kernel", "seqmeas.wavepacket", "conditional_kernel"),
    Layer("wavepacket.erfi_line", "seqmeas.wavepacket", "erfi_line"),
    Layer("classical.classical_j_expectation", "seqmeas.classical", "classical_j_expectation"),
    Layer("classical.jacobian_determinant_check", "seqmeas.classical", "jacobian_determinant_check"),
    Layer("classical.VolumePreservingMap.call", "seqmeas.classical", "VolumePreservingMap.__call__"),
    Layer("cli.main", "seqmeas.cli", "main"),
)


class Recorder:
    """Collects spans of wrapped calls; ``item`` tags spans with the
    benchmark item currently running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, 0.0, 0.0, parent, self.item)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, describe: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = Span(name, 0.0, 0.0, parent, self.item)
            stack.append(len(spans))
            spans.append(rec)
            rec.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                stack.pop()
            if describe is not None:
                rec.attrs = describe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, layers=LAYERS):
        """Install wrappers for ``layers``; restore every original on exit."""
        undo: list[tuple[object, str, object]] = []
        try:
            for layer in layers:
                owner = importlib.import_module(layer.module)
                *path, attr = layer.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapper = self.wrap(layer.name, original, layer.describe)
                if isinstance(owner, type):
                    targets = [owner]
                else:
                    targets = [m for m in _package_modules(layer.module)
                               if any(v is original for v in vars(m).values())]
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            undo.append((target, key, value))
                            setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)


def _package_modules(module_name: str):
    package = module_name.split(".")[0]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its direct children cover (overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out
