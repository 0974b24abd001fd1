"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each file holds JSON lines as written by ``run.py --out``.  For every
end-to-end metric of every workload found in both files, the report gives
each side's median with its first and third quartiles, the change's median
as a ratio of the base's, and the base's own spread (IQR / median), which a
ratio must clear before it says anything.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """{workload: {metric: [values of untraced runs]}} plus failure shares."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            res = rec["result"]
            for name, m in res["metrics"].items():
                runs[rec["workload"]][name].append(m["value"])
            runs[rec["workload"]]["failed/attempted"].append(res["failed"] / res["attempted"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(base: dict, change: dict) -> list[str]:
    lines = [f"{'workload':12s} {'metric':16s} {'base median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'base spread':>11s}"]
    for wl in sorted(set(base) & set(change)):
        for name in base[wl]:
            if name not in change[wl]:
                continue
            b, c = quartiles(base[wl][name]), quartiles(change[wl][name])
            ratio = c[1] / b[1] if b[1] else float("nan")
            spread = (b[2] - b[0]) / b[1] if b[1] else float("nan")
            lines.append(
                f"{wl:12s} {name:16s} {b[1]:12.6g} [{b[0]:9.6g}, {b[2]:9.6g}] "
                f"{c[1]:12.6g} [{c[0]:9.6g}, {c[2]:9.6g}] {ratio:7.4f} {spread:11.4f}"
            )
    lines.append("ratio = change median / base median (base = the first file); "
                 f"runs: base {count(base)}, change {count(change)}")
    return lines


def count(runs: dict) -> str:
    return ", ".join(f"{wl} {len(next(iter(m.values())))}" for wl, m in sorted(runs.items()))


def main(base_path: str, change_path: str) -> int:
    base, change = load(base_path), load(change_path)
    if not set(base) & set(change):
        print("no workload has untraced runs in both files", file=sys.stderr)
        return 2
    print("\n".join(report(base, change)))
    return 0

