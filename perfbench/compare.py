"""Compare two sets of benchmark records: parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds records written by perfbench/run.py (trace-0 and
trace-1 records may be mixed).  For every workload and metric the table
gives each side's median and quartiles and a verdict:

* ``better``: the change wins at least nine tenths of the run pairs
  (ties count for neither) and the medians differ by more than the
  distance between the parent's quartiles;
* ``worse``: the same rule with the sides swapped;
* ``unresolved``: anything else.

Runs pair up in the order they were made.  Whether higher or lower is
better comes from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """Pair-wise win rule; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    if not pairs:
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    q1, med_p, q3 = quartiles(parent)
    gap = abs(statistics.median(change) - med_p)
    if gap <= q3 - q1:
        return "unresolved"
    if wins >= 0.9 * len(pairs):
        return "better"
    if losses >= 0.9 * len(pairs):
        return "worse"
    return "unresolved"


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    """{(workload, metric): values in run order} from a directory of records."""
    records = []
    for path in sorted(directory.glob("*.json")):
        if path.name.startswith("spans-"):
            continue
        data = json.loads(path.read_text())
        if "meta" in data and "result" in data:
            records.append((data["meta"]["time_utc"], path.name, data))
    out: dict[tuple[str, str], list[float]] = {}
    for _, _, data in sorted(records, key=lambda r: r[:2]):
        for name, m in data["result"]["metrics"].items():
            out.setdefault((data["meta"]["workload"], name), []).append(float(m["value"]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    row = "{:15} {:50} {:8} {:36} {:36} {:>5} {}"
    print(row.format("workload", "metric", "unit", "parent median [q1, q3]",
                     "change median [q1, q3]", "pairs", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in metrics:
            continue
        p, c = parent[key], change[key]
        (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
        print(row.format(workload, name, metrics[name]["unit"],
                         f"{p2:.6g} [{p1:.6g}, {p3:.6g}]", f"{c2:.6g} [{c1:.6g}, {c3:.6g}]",
                         min(len(p), len(c)), verdict(p, c, metrics[name]["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
