"""stabilis benchmark: one command, three workloads, every output checked.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload strassen --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload queries --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --compare base.jsonl change.jsonl

A run repeats whole rounds of its workload until the timed work adds up
to ``--seconds``, checks every output as each round ends, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are scaled to a reference CPU speed (see
``REFERENCE_S``) and are medians over the rounds.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and
traced rounds alternate and the metrics are the per-layer ones.
``--out FILE`` also appends the result, with its workload and seed, to
FILE as one JSON line; ``--compare`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads, for this process and its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
# Times are reported at the speed at which workloads.reference_loop takes
# this long: each call's time is scaled by the loop timed around it.
# The shared host's CPU speed moves by 1.3 to 2 times, for a second to
# minutes at a stretch, and the loop's time moves with it (see README.md).
REFERENCE_S = 0.002

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
]


def reset_program_caches():
    """Empty the program's module-level caches, so every round starts cold.

    Covers dicts named ``*_CACHE`` and functions memoised with functools.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("stabilis"):
            continue
        for key, val in vars(mod).items():
            if isinstance(val, dict) and key.upper() == key and key.endswith("CACHE"):
                val.clear()
            elif callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def setup_probe(workload: str, seed: int) -> dict:
    """In a fresh interpreter: import stabilis and stabilis.cli, build the inputs.

    Then times the reference loop a few times, for the speed the set-up ran at.
    """
    t0 = time.perf_counter()
    import stabilis  # noqa: F401
    import stabilis.cli  # noqa: F401

    import workloads

    workloads.WORKLOADS[workload].make_inputs(seed)
    setup = time.perf_counter() - t0
    reference = statistics.fmean(workloads.reference_loop() for _ in range(5))
    return {"setup_s": setup, "reference_s": reference}


def time_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, scaled to the reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"] * REFERENCE_S / probe["reference_s"]


def scaled_times(ops) -> list[float]:
    """Each call's time, scaled to the reference speed by the loop timed around it."""
    return [op.seconds * REFERENCE_S / op.reference_s for op in ops]


def run_round(wl, seed: int):
    """Fresh inputs (untimed), then the timed calls: (elapsed seconds, ops)."""
    from workloads import run_calls

    reset_program_caches()
    calls = wl.make_calls(wl.make_inputs(seed))
    t0 = time.perf_counter()
    ops = run_calls(calls)
    return time.perf_counter() - t0, ops


def median_calls(call_times: list[list[float]]) -> list[float]:
    """Each call's median time over the rounds, sorted."""
    return sorted(statistics.median(times) for times in zip(*call_times))


class Tally:
    """Checks each round's operations as soon as the round ends."""

    def __init__(self, workload: str, inputs):
        import checks

        self.checker = checks.Checker(workload, inputs)
        self.attempted = self.failed = 0

    def add(self, ops):
        for op, reason in zip(ops, self.checker.check_round(ops)):
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"FAILED {op.name}: {reason}", file=sys.stderr)


def run(args) -> tuple[dict, dict]:
    """One run: (the result object, per-round detail for --out)."""
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup_times, walls, traced_walls, reference_times = [], [], [], []
    call_times, traced_call_times, layer_rounds = [], [], []
    tracer = tally = peak_rss_mb = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    probes = 0 if args.trace else SETUP_PROBES

    def probes_due(done: float) -> int:
        # spread evenly over the measured time, so they meet the same load
        return min(probes, 1 + int(done * probes / args.seconds))

    # rounds run until the timed work adds up to --seconds
    while sum(walls) + sum(traced_walls) < args.seconds:
        while len(setup_times) < probes_due(sum(walls) + sum(traced_walls)):
            setup_times.append(time_setup(args.workload, args.seed))
        wall, ops = run_round(wl, args.seed)
        walls.append(wall)
        reference_times.extend(op.reference_s for op in ops)
        call_times.append(scaled_times(ops))
        if tally is None:
            # one round's footprint, before the checkers load
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tally = Tally(args.workload, wl.make_inputs(args.seed))
        tally.add(ops)
        if tracer is not None:
            tracer.clear()
            tracer.install()
            try:
                wall, ops = run_round(wl, args.seed)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            traced_call_times.append(scaled_times(ops))
            # spans have no loop of their own: the round's mean factor scales them
            scale = sum(traced_call_times[-1]) / sum(op.seconds for op in ops)
            layer_rounds.append({k: v * scale if k.endswith("_s") else v
                                 for k, v in tracer.summarize().items()})
            tally.add(ops)
    while len(setup_times) < probes:
        setup_times.append(time_setup(args.workload, args.seed))
    correct = tally.failed == 0
    # each call's median over the rounds; a round at those times
    per_call = median_calls(call_times)

    if tracer is None:
        from refs import nearest_rank

        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(per_call),
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": 1e3 * nearest_rank(per_call, 50),
            "query_p90_ms": 1e3 * nearest_rank(per_call, 90),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        ref_ms = sorted(1e3 * r for r in reference_times)
        print(f"{args.workload}: {len(walls)} rounds, {len(call_times[0])} calls per round, "
              f"reference loop {ref_ms[0]:.2f} / {statistics.median(ref_ms):.2f} / "
              f"{ref_ms[-1]:.2f} ms (min / median / max)", file=sys.stderr)
    else:
        from tracing import counts_repeat, per_layer_metrics

        overhead = sum(median_calls(traced_call_times)) - sum(per_call)
        metrics = per_layer_metrics(layer_rounds, overhead)
        differ = counts_repeat(layer_rounds)
        if differ:
            correct = False
            print(f"counts differ between traced rounds: {differ}", file=sys.stderr)
        print_trace_detail(args.workload, layer_rounds, call_times, traced_call_times)
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    detail = {"round_walls": walls, "traced_walls": traced_walls, "setup_probes": setup_times}
    return result, detail


def print_trace_detail(workload, layer_rounds, call_times, traced_call_times):
    """Per-span costs of the fastest traced round, to stderr (reference-speed times)."""
    traced = [sum(times) for times in traced_call_times]
    fastest = layer_rounds[traced.index(min(traced))]
    err = sys.stderr
    print(f"# {workload}: {len(traced)} traced rounds; fastest untraced round "
          f"{min(map(sum, call_times)):.3f} s, fastest traced round {min(traced):.3f} s", file=err)
    print(f"# {'span (fastest traced round)':36s} {'calls':>8s} {'self_s':>8s} {'self us/call':>12s} "
          f"{'total us/call':>13s}", file=err)
    for key, calls in fastest.items():
        if key.endswith(".calls") and calls:
            nm = key[: -len(".calls")]
            own, total = fastest[f"{nm}.self_s"], fastest.get(f"{nm}.total_s")
            incl = f"{1e6 * total / calls:13.2f}" if total is not None else f"{'':13s}"
            print(f"  {nm:36s} {calls:8d} {own:8.4f} {1e6 * own / calls:12.2f} {incl}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                    help="compare two JSON-lines result files")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not (SRC / "stabilis" / "__init__.py").is_file():
        print(f"error: no stabilis package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:  # nothing of the program may load before the clock starts
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, detail = run(args)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "seconds": args.seconds,
                                 "result": result, **detail}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
