"""Self-test of the benchmark's checkers: no check is vacuous.

    python3 bench/selftest.py

Each workload's checker is fed the program's real output, which it must
pass, and then one deliberately wrong copy, which it must count as a
failed operation: a Strassen percentile row scaled by 1+1e-6, a sine
rel_lop moved by 10 units of u, and a condition number moved by 1e-6
relative.  It also checks that BENCHMARK.json names exactly the workloads
and metrics the benchmark reports.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def failures(workload: str, inputs, ops) -> int:
    checker = checks.Checker(workload, inputs)
    return sum(reason is not None for reason in checker.check_round(ops))


def case(label: str, workload: str, inputs, ops, i: int, corrupt) -> bool:
    """The round's real outputs pass; with op i's output corrupted, one fails."""
    clean = failures(workload, inputs, ops)
    bad = copy.copy(ops[i])
    bad.output = corrupt(ops[i].output)
    broken = failures(workload, inputs, ops[:i] + [bad] + ops[i + 1:])
    ok = clean == 0 and broken == 1
    print(f"{'ok  ' if ok else 'FAIL'} {label}: real output failed={clean}, wrong output failed={broken}")
    return ok


def strassen_case() -> bool:
    inputs = workloads.strassen_inputs(seed=1)
    ops = workloads.run_calls(workloads.strassen_calls(inputs))
    i = len(ops) // 2

    def corrupt(rows):
        return [dataclasses.replace(rows[0], rel_med=rows[0].rel_med * (1 + 1e-6))]

    return case(f"strassen row {i} rel_med * (1 + 1e-6)", "strassen", inputs, ops, i, corrupt)


def sine_case() -> bool:
    t = 53
    inputs = [(t, t + workloads.SINE_K_PAST, workloads.sine_guard(t))]
    (op,) = workloads.run_calls(workloads.sine_calls(inputs))
    j = 70  # a saturated row, where 10 u is a relative change of about 1e-15

    def corrupt(records):
        records = list(records)
        records[j] = dataclasses.replace(records[j], rel_lop=records[j].rel_lop + 10)
        return records

    return case(f"sine t={t} k={j + 1} rel_lop + 10 u", "sine_ladder", inputs, [op], 0, corrupt)


def queries_case() -> bool:
    inputs = workloads.queries_inputs(seed=1)
    call = next(c for c in workloads.queries_calls(inputs) if c.name == "cond.jacobian[strassen_h]")
    (op,) = workloads.run_calls([call])

    def corrupt(rep):
        kappa = Fraction(rep.kappa) * (1 + Fraction(1, 10**6))
        return dataclasses.replace(rep, kappa=kappa, kappa_tilde=1 + kappa)

    return case("queries kappa(strassen_h) * (1 + 1e-6)", "queries", inputs, [op], 0, corrupt)


def manifest_case() -> bool:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    want = (
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER,
    )
    ok = all(want)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the workloads and metrics reported")
    return ok


def main() -> int:
    results = [manifest_case(), strassen_case(), sine_case(), queries_case()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
