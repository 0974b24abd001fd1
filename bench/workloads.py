"""The three benchmark workloads: seeded inputs and one timed round each.

A workload is a pair of functions.  ``make_inputs(seed)`` builds the
round's inputs from the seed alone; ``make_calls(inputs)`` lists the
workload's calls into the public ``stabilis`` API, which ``run_calls``
makes and times, one :class:`Op` per call.  Every round of a run makes the
same calls on equal inputs, so rounds are interchangeable and counts
repeat exactly.

Inputs are built afresh before every round, outside the timed region, so
certified enclosures carried by the inputs start cold in every round.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import stabilis
from stabilis import RelPoint
from stabilis.harness import log_spaced

# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call into the public API and what it returned."""

    name: str
    spec: dict
    seconds: float = 0.0
    reference_s: float = 0.0
    output: Any = None
    error: str | None = None


@dataclass
class Call:
    """A call to make: a name, what the checker needs to know, and the call."""

    name: str
    spec: dict
    fn: Callable[[], Any] = field(repr=False)


REFERENCE_ITERS = 300


def reference_loop() -> float:
    """Seconds taken by a fixed loop of pure-Python ``Fraction`` arithmetic.

    The program's work is interpreted Python on integers and rationals too,
    so its time and this loop's move together when the host's CPU speed
    moves; their ratio measures the program's cost apart from that speed.
    """
    t0 = time.perf_counter()
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, REFERENCE_ITERS):
        acc += x * Fraction(i, i + 7)
        x = Fraction(x.numerator % 10**40 + 1, x.denominator % 10**30 + 3)
    return time.perf_counter() - t0


def run_calls(calls: list[Call]) -> list[Op]:
    """Make each call in order, timing it; an exception fails only that call.

    The reference loop runs between calls, outside their timing; each call
    keeps the mean of the loop's times just before and just after it.
    """
    ops = []
    clock = time.perf_counter
    before = reference_loop()
    for c in calls:
        op = Op(c.name, c.spec)
        t0 = clock()
        try:
            op.output = c.fn()
        except Exception as e:  # a failed call is counted, the run goes on
            op.error = f"{type(e).__name__}: {e}"
        op.seconds = clock() - t0
        after = reference_loop()
        op.reference_s = (before + after) / 2
        before = after
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# strassen: the paper's headline table at t=53
# ---------------------------------------------------------------------------

STRASSEN_EPS_RANGE = (1e-8, 1e-2)  # the CLI's default range
STRASSEN_N_EPS = 12
STRASSEN_SAMPLES = 100
STRASSEN_T = 53


def strassen_grid() -> list[Fraction]:
    """The CLI's own grid builder, with fewer rows."""
    return log_spaced(*STRASSEN_EPS_RANGE, STRASSEN_N_EPS)


def strassen_inputs(seed: int) -> dict:
    return {"grid": strassen_grid(), "samples": STRASSEN_SAMPLES, "seed": seed, "t": STRASSEN_T}


def strassen_row_key(seed: int, index: int) -> int:
    """Philox key of one row: rows are drawn from streams of their own."""
    return 1000 * seed + index


def strassen_calls(inp: dict) -> list[Call]:
    """One call per row, so that each row is timed on its own.

    A one-value grid gives every row the counters [0, sample, 2, 0]; the
    key, which differs per row, keeps the rows' draws apart.
    """
    calls = []
    for i, eps in enumerate(inp["grid"]):
        key = strassen_row_key(inp["seed"], i)
        calls.append(Call(
            f"strassen_experiment[eps={float(eps):.3g}]",
            {"kind": "strassen_row", "eps": eps, "key": key},
            lambda eps=eps, key=key: stabilis.strassen_experiment([eps], inp["samples"], key, inp["t"]),
        ))
    return calls


# ---------------------------------------------------------------------------
# sine_ladder: sine at pi*2^k+1 on a ladder of working precisions
# ---------------------------------------------------------------------------

SINE_LADDER = (24, 53, 113, 256)
SINE_K_PAST = 64  # k runs to t + 64, well past saturation near k = t


def sine_guard(t: int) -> int:
    """Reference bits: the lop resolution (guard/2) stays far below u."""
    return max(512, 4 * t)


def sine_inputs(seed: int) -> list[tuple[int, int, int]]:
    """(t, k_max, guard) per rung; the inputs are fixed, the seed orders them."""
    order = list(SINE_LADDER)
    random.Random(seed).shuffle(order)
    return [(t, t + SINE_K_PAST, sine_guard(t)) for t in order]


def sine_calls(ladder: list[tuple[int, int, int]]) -> list[Call]:
    return [
        Call(
            f"sine_experiment[t={t}]",
            {"kind": "sine", "t": t, "k_max": k_max, "guard": guard},
            lambda t=t, k_max=k_max, guard=guard: stabilis.sine_experiment(k_max, t, guard),
        )
        for t, k_max, guard in ladder
    ]


# ---------------------------------------------------------------------------
# queries: the library calls behind `stabilis cond`, `amen` and `excess`
# ---------------------------------------------------------------------------

# (catalog id, keyword arguments, input dim, signed inputs, coordinate range):
# the 17 functions of the condition cross-check (acceptance Criterion 3)
CATALOG = [
    ("product", dict(k=4), 4, True, (0.1, 8.0)),
    ("sum", dict(k=4), 4, False, (0.1, 8.0)),
    ("hadamard", dict(k=3), 6, True, (0.1, 8.0)),
    ("tensor_product", dict(k=2, l=3), 5, True, (0.1, 8.0)),
    ("linear_map", dict(rows=[[2, -1, 3]]), 3, False, (0.1, 8.0)),
    ("inner_product", dict(k=2), 4, False, (0.1, 8.0)),
    ("copy", dict(k=3), 3, True, (0.1, 8.0)),
    ("squared_norm", dict(k=3), 3, True, (0.1, 8.0)),
    ("sqrt", dict(), 1, False, (0.1, 8.0)),
    ("norm2", dict(k=3), 3, True, (0.1, 8.0)),
    ("power", dict(exponent=3), 1, True, (0.1, 8.0)),
    ("affine", dict(op="add", alpha=Fraction(7, 5)), 1, False, (0.1, 8.0)),
    ("sin", dict(), 1, False, (0.3, 1.0)),
    ("matmul_entry", dict(i=1, j=2), 8, False, (0.1, 4.0)),
    ("strassen_g", dict(), 7, False, (0.1, 4.0)),
    ("strassen_h", dict(), 8, False, (0.1, 4.0)),
    ("matmul_2x2", dict(), 8, False, (0.1, 4.0)),
]
POINTS_PER_FUNCTION = 2
KAPPA_SMOOTH_MAX = 100  # smooth points only, as in the cross-check
SAMPLED_RADII = (Fraction(1, 1000), Fraction(1, 10000))
SAMPLED_DIRS = 64
PROBE_FUNCTIONS = ("sum", "product", "inner_product")
PROBE_DIMS = (2, 8, 64)
PROBE_A = 8
PROBE_N = 120
SINE_PROBE_A = 64
SINE_PROBE_N = 200
EXCESS_EPS = 5  # points of the eps family per round, log-uniform in the strassen range


def _rand_coords(rng: random.Random, dim: int, lo: float, hi: float, signed: bool) -> list[Fraction]:
    vals = []
    for _ in range(dim):
        v = Fraction(rng.uniform(lo, hi)).limit_denominator(10**6)
        if signed and rng.random() < 0.5:
            v = -v
        vals.append(v)
    return vals


def queries_inputs(seed: int) -> dict:
    """Seeded smooth points, probe points, the sine point and the eps family.

    Smoothness is judged by the benchmark's own float64 condition number
    (``refs.kappa_float``), never by the program under test.
    """
    import refs

    rng = random.Random(seed)
    points = []
    for fid, kw, dim, signed, (lo, hi) in CATALOG:
        got = 0
        while got < POINTS_PER_FUNCTION:
            x = _rand_coords(rng, dim, lo, hi, signed)
            if refs.kappa_float(fid, kw, x) > KAPPA_SMOOTH_MAX:
                continue
            points.append((fid, kw, x))
            got += 1
    probes = []
    for fid in PROBE_FUNCTIONS:
        for k in PROBE_DIMS:
            dim = 2 * k if fid == "inner_product" else k
            probes.append((fid, k, _rand_coords(rng, dim, 0.1, 8.0, fid == "product")))
    lo, hi = np.log10(STRASSEN_EPS_RANGE[0]), np.log10(STRASSEN_EPS_RANGE[1])
    eps = sorted(Fraction(float(10 ** rng.uniform(lo, hi))) for _ in range(EXCESS_EPS))
    pi = stabilis.pi_real()
    return {
        "seed": seed,
        "points": points,
        "probes": probes,
        "sine_point": RelPoint.of(pi * Fraction(1, 2) + pi * 10**6),
        "eps": eps,
    }


def queries_calls(inp: dict) -> list[Call]:
    from stabilis import (
        amenability_probe,
        catalog_function,
        excess_factor,
        kappa_closed_form,
        kappa_jacobian,
        kappa_sampled,
        strassen_input,
    )

    seed = inp["seed"]
    calls = []
    for i, (fid, kw, x) in enumerate(inp["points"]):
        f = catalog_function(fid, **kw)
        pt = RelPoint(x)
        spec = {"fid": fid, "kw": kw, "x": x}
        calls.append(Call(f"cond.closed[{fid}]", {"kind": "kappa", **spec},
                          lambda f=f, pt=pt: kappa_closed_form(f, pt)))
        calls.append(Call(f"cond.jacobian[{fid}]", {"kind": "kappa", **spec},
                          lambda f=f, pt=pt: kappa_jacobian(f, pt)))
        calls.append(Call(f"cond.sampled[{fid}]", {"kind": "kappa_sampled", **spec},
                          lambda f=f, pt=pt, s=seed * 1000 + i: kappa_sampled(
                              f, pt, radii=SAMPLED_RADII, n_dirs=SAMPLED_DIRS, seed=s)))
    for fid, k, x in inp["probes"]:
        f = catalog_function(fid, k=k)
        pt = RelPoint(x)
        calls.append(Call(f"amen[{fid},k={k}]", {"kind": "probe", "n": PROBE_N},
                          lambda f=f, pt=pt, k=k: amenability_probe(
                              f, None, pt, PROBE_A, PROBE_N, seed=seed * 1000 + k)))
    sinf = catalog_function("sin")
    calls.append(Call("amen[sin]", {"kind": "sine_probe", "a": SINE_PROBE_A},
                      lambda: amenability_probe(sinf, None, inp["sine_point"], SINE_PROBE_A,
                                                SINE_PROBE_N, seed=seed)))
    g, h = catalog_function("strassen_g"), catalog_function("strassen_h")
    for e in inp["eps"]:
        calls.append(Call("excess[strassen_g,strassen_h]", {"kind": "excess", "eps": e},
                          lambda e=e: excess_factor(g, h, RelPoint(strassen_input(e)))))
    return calls


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]
    make_calls: Callable[[Any], list[Call]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("strassen", strassen_inputs, strassen_calls),
        Workload("sine_ladder", sine_inputs, sine_calls),
        Workload("queries", queries_inputs, queries_calls),
    )
}
