"""seqmeas benchmark: four closed-loop workloads, end to end and traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30          # every workload, one process each

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced cycles of identical items
and reports the per-layer metrics, the tracing overhead and the wall time
no span covers.  Every run writes a stamped record (and, when traced, its
spans) under perfbench/results/.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here to the first timed item

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
NPROC = len(os.sched_getaffinity(0))
WORKLOAD_NAMES = ("corpus", "fock_ladder", "entropy_curve", "classical_ramp")
SETUP_SAMPLES = 3

END_TO_END = {"throughput": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}



def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from perfbench.spans import LAYERS
    from perfbench.workloads import EntropyCurve, t_label
    from seqmeas.verify import FAMILIES

    units = {}
    for layer in LAYERS:
        units.update({f"{layer.name}.calls": "count", f"{layer.name}.total_s": "s",
                      f"{layer.name}.self_s": "s"})
    for family in FAMILIES:
        units.update({f"verify.random_model.{family}.p50_ms": "ms",
                      f"verify.random_model.{family}.p90_ms": "ms",
                      f"verify.random_model.{family}.count": "count"})
    for t in EntropyCurve.T_VALUES:
        units.update({f"wavepacket.second_marginal.{t_label(t)}.self_s": "s",
                      f"wavepacket.conditional_kernel.{t_label(t)}.total_s": "s",
                      f"wavepacket.captured_mass.{t_label(t)}": "fraction"})
    units.update({"wavepacket.conditional_kernel.calls_per_point": "count",
                  "classical.effective_sample_fraction": "fraction",
                  "trace.overhead_s": "s", "trace.overhead_frac": "fraction",
                  "trace.unattributed_s": "s", "trace.unattributed_frac": "fraction"})
    return units


def import_program():
    """Import seqmeas from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "seqmeas" / "__init__.py").is_file():
        raise ImportError(f"no seqmeas sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import seqmeas
    if Path(seqmeas.__file__).resolve().parent != (src / "seqmeas").resolve():
        raise ImportError(f"seqmeas imported from {seqmeas.__file__}, not from {src}")
    from perfbench import workloads
    return workloads


# ---------------------------------------------------------------- running items

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}

    def run(self, item, recorder=None):
        """Time item.call() (inside a bench.item span when ``recorder`` is
        given), then check its output; returns (seconds, output)."""
        start = time.perf_counter()
        try:
            if recorder is None:
                out = item.call()
            else:
                with recorder.span("bench.item"):
                    out = item.call()
        except Exception:  # an item that raises is a failed item; the loop goes on
            elapsed = time.perf_counter() - start
            self.attempted += item.units
            self.failures[f"{item.kind}@{self.attempted}"] = traceback.format_exc(limit=4)
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.attempted += item.units
        for unit, reason in item.check(out).items():
            self.failures[f"{item.kind}:{unit}@{self.attempted}"] = reason
        return elapsed, out


def timed_run(wl, first_cycle, seconds: float):
    """Closed loop over whole cycles until the next would overrun ``seconds``.

    Returns the tally and, per cycle, (work done, seconds in program calls).
    """
    tally, cycles = Tally(), []
    start = time.perf_counter()
    k, cycle = 0, first_cycle
    while True:
        busy = sum(tally.run(item)[0] for item in cycle)
        cycles.append((sum(item.work for item in cycle), busy))
        k += 1
        if time.perf_counter() - start + statistics.median(c[1] for c in cycles) > seconds:
            return tally, cycles
        cycle = wl.cycle(k)


def traced_run(wl, first_cycle, seconds: float):
    """Pairs of (untraced, traced) runs of the same cycle until ``seconds``."""
    from perfbench.spans import Recorder

    rec, tally = Recorder(), Tally()
    items, pairs, outputs = [], [], []
    start = time.perf_counter()
    k, cycle = 0, first_cycle
    while True:
        pair_start = time.perf_counter()
        untraced = sum(tally.run(item)[0] for item in cycle)
        traced = 0.0
        with rec.patched():
            for item in cycle:
                rec.item = len(items)
                items.append((k, item))
                elapsed, out = tally.run(item, rec)
                traced += elapsed
                outputs.append((item, out))
            rec.item = None
        pairs.append((untraced, traced))
        k += 1
        if time.perf_counter() - start + (time.perf_counter() - pair_start) > seconds:
            break
        cycle = wl.cycle(k)
    metrics = layer_metrics(rec.spans, items, pairs)
    metrics.update(wl.output_metrics(outputs))
    return tally, metrics, rec.spans, items


def layer_metrics(spans, items, pairs) -> dict[str, float]:
    from perfbench.spans import LAYERS, self_times
    from perfbench.workloads import EntropyCurve, t_label

    selfs = self_times(spans)
    n_cycles = len(pairs)
    cycle_of = [k for k, _ in items]
    by_name: dict[str, list[int]] = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(idx)

    def per_cycle(idxs, value):
        sums = [0.0] * n_cycles
        for i in idxs:
            sums[cycle_of[spans[i].item]] += value(i)
        return statistics.median(sums)

    out = {}
    for layer in LAYERS:
        idxs = by_name.get(layer.name, [])
        out[f"{layer.name}.calls"] = per_cycle(idxs, lambda i: 1)
        out[f"{layer.name}.total_s"] = per_cycle(idxs, lambda i: spans[i].end - spans[i].start)
        out[f"{layer.name}.self_s"] = per_cycle(idxs, lambda i: selfs[i])

    from seqmeas.verify import FAMILIES
    for family in FAMILIES:
        ms = sorted(1e3 * (spans[i].end - spans[i].start) for i in by_name.get("verify.random_model", [])
                    if spans[i].attrs["family"] == family)
        out[f"verify.random_model.{family}.p50_ms"] = statistics.median(ms) if ms else 0.0
        out[f"verify.random_model.{family}.p90_ms"] = (
            statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else 0.0)
        out[f"verify.random_model.{family}.count"] = len(ms)

    marginals = by_name.get("wavepacket.second_marginal", [])
    kernels = by_name.get("wavepacket.conditional_kernel", [])
    kernel_s: dict[int, float] = {}  # per second_marginal span
    for i in kernels:
        kernel_s[spans[i].parent] = kernel_s.get(spans[i].parent, 0.0) + spans[i].end - spans[i].start
    for t in EntropyCurve.T_VALUES:
        at_t = [i for i in marginals if spans[i].attrs["t"] == t]
        out[f"wavepacket.second_marginal.{t_label(t)}.self_s"] = (
            statistics.median(selfs[i] for i in at_t) if at_t else 0.0)
        out[f"wavepacket.conditional_kernel.{t_label(t)}.total_s"] = (
            statistics.median(kernel_s.get(i, 0.0) for i in at_t) if at_t else 0.0)
    out["wavepacket.conditional_kernel.calls_per_point"] = (
        len(kernels) / len(marginals) if marginals else 0.0)

    roots = by_name.get("bench.item", [])
    unattributed = [0.0] * n_cycles
    for i in roots:
        unattributed[cycle_of[spans[i].item]] += selfs[i]
    out["trace.overhead_s"] = statistics.median(tr - un for un, tr in pairs)
    out["trace.overhead_frac"] = statistics.median((tr - un) / un for un, tr in pairs)
    out["trace.unattributed_s"] = statistics.median(unattributed)
    out["trace.unattributed_frac"] = statistics.median(
        u / tr for u, (_, tr) in zip(unattributed, pairs))
    return out


# ---------------------------------------------------------------- stamping

def stamp(args, wl) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": wl.name,
        "why": wl.why,
        "item_unit": wl.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


# ---------------------------------------------------------------- entry points

def setup_probe(args) -> float:
    """Set-up seconds of a fresh interpreter running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, RESULTS)
    wl.warm_up()
    first_cycle = wl.cycle(0)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"meta": stamp(args, wl)}
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}")
    if args.trace:
        tally, layer, spans, items = traced_run(wl, first_cycle, args.seconds)
        units = per_layer_units()
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
        spans_path = RESULTS / f"spans-{stem}.json"
        spans_path.write_text(json.dumps([
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "item": s.item, "item_size": None if s.item is None else items[s.item][1].size,
             "attrs": s.attrs} for s in spans]))
        record["spans_file"] = spans_path.name
    else:
        import resource
        tally, cycles = timed_run(wl, first_cycle, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        values = {"throughput": sum(w for w, _ in cycles) / sum(t for _, t in cycles),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(cycles=cycles, setup_samples=setups)

    failures, record["checks"] = wl.finish()
    tally.failures.update(failures)
    failed = len(tally.failures)
    result = {"correct": failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, failures=tally.failures)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed / max(tally.attempted, 1):.6g} "
          f"({failed} of {tally.attempted} checked)")
    for unit, reason in list(tally.failures.items())[:10]:
        print(f"{args.workload} FAILED {unit}: {reason}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and forward what each prints."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
    return status


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: every workload, each in its own process)")
    parser.add_argument("--seed", type=_seed, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first timed item and print set-up time")
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: on a small shared machine,
    # spinning BLAS threads widen the run-to-run spread more than they gain
    # on these matrix sizes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return run_all(args) if args.workload is None else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
