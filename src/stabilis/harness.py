"""Stability measurement: forward/backward error runs and the two
loss-of-precision experiments (the Strassen family and the shifted sine).

A loss-of-precision (lop) value is a measured distance divided by the
unit roundoff: how many rounding units of accuracy disappeared.  Runs
are pure and per-run seeded, so they can execute in any order; results
are always merged in parameter order, making output tables byte-stable
for a given configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import NumericalAlgorithm, Sin, sin_in_precision, high_precision_sin, strassen_input
from .condition import ExtReal, kappa_closed_form
from .fpcore import FpError, FpNumber, Precision, _round_range, fl, to_exact
from .reals import CertifiedReal, Interval, PrecisionError, log_iv, pi_iv, pi_real, signed_interval, sqrt_iv
from .relmetric import (
    RelPoint,
    abs_dist,
    factor_bounds,
    philox_stream,
    rel_dist,
    scaled_dists,
    step_factors,
)


@dataclass
class LopRecord:
    """One loss-of-precision sample."""

    input_id: str
    param: object  # experiment parameter: epsilon, k, or an input index
    u: Fraction
    rel_lop: ExtReal
    abs_lop: ExtReal
    kappa_tilde: ExtReal


@dataclass
class StabilityVerdict:
    """Forward-stability verdict for an algorithm over a batch of runs.

    ``fitted_a`` is the worst observed rel_dist/(kappa_tilde * u); the
    verdict passes when it stays at or below the candidate constant.
    """

    algorithm: str
    fitted_a: ExtReal
    passed: bool
    threshold_a: Fraction
    runs: list[LopRecord]
    failure: str | None = None


@dataclass
class PercentileRow:
    epsilon: float
    rel_p05: float
    rel_med: float
    rel_p95: float
    abs_p05: float
    abs_med: float
    abs_p95: float


def nearest_rank(sorted_vals: Sequence, pct: float):
    """Nearest-rank percentile on an already sorted sequence."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("empty sample")
    idx = max(1, math.ceil(pct * n / 100))
    return sorted_vals[min(idx, n) - 1]


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length >= 2")

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0 or dy == 0:
        return 0.0
    return num / (dx * dy)


# ---------------------------------------------------------------------------
# Forward stability
# ---------------------------------------------------------------------------


def forward_stability_check(
    alg: NumericalAlgorithm,
    inputs: Sequence[RelPoint],
    precisions: Sequence[int],
    a,
) -> StabilityVerdict:
    """Run the algorithm across inputs and precisions against a*kt*u.

    Only pairs with u <= 1/(a*kt) are in scope; inputs with infinite
    condition never contribute.  An algorithm failure (division by zero)
    on an in-scope input fails the verdict outright.
    """
    a = Fraction(a)
    runs: list[LopRecord] = []
    fitted: ExtReal = Fraction(0)
    failure = None
    for idx, x in enumerate(inputs):
        kt = kappa_closed_form(alg.function, x).kappa_tilde
        if kt == math.inf:
            continue
        kt = Fraction(kt)
        for t in precisions:
            p = Precision.of(t)
            if p.u > 1 / (a * kt):
                continue
            fx = RelPoint(alg.exact_reference(x.coords))
            try:
                got = alg.evaluate([fl(c, p) for c in x.coords], p)
            except FpError as e:
                failure = f"input {idx} at t={t}: {e}"
                continue
            gpt = RelPoint(got)
            err = rel_dist(fx, gpt, bits=max(192, t + 80))
            aerr = abs_dist(fx, gpt)
            runs.append(LopRecord(f"input{idx}", idx, p.u, err / p.u, aerr / p.u, kt))
            ratio = math.inf if err == math.inf else err / (kt * p.u)
            if ratio > fitted:
                fitted = ratio
    passed = failure is None and fitted <= a and bool(runs)
    return StabilityVerdict(alg.id, fitted, passed, a, runs, failure)


def backward_check_product(x: RelPoint, t: int) -> Fraction:
    """Backward-witness distance for the running-product algorithm.

    Divides the computed product back by x_2..x_k exactly; the distance
    from the resulting y_1 to x_1 is the backward error, bounded by 4ku
    whenever u < 1/(4k).
    """
    from .catalog import algorithm as make_alg

    k = x.dim
    p = Precision.of(t)
    if not (p.u < Fraction(1, 4 * k)):
        raise ValueError("backward witness needs u < 1/(4k)")
    if any(s == 0 for s in x.pattern):
        raise ValueError("backward witness needs nonzero coordinates")
    alg = make_alg("naive_product", k=k)
    out = alg.evaluate([fl(c, p) for c in x.coords], p)[0]
    rest = Fraction(1)
    for c in x.coords[1:]:
        rest *= c
    y1 = to_exact(out) / rest
    y = RelPoint((y1,) + tuple(x.coords[1:]))
    d = rel_dist(x, y)
    return d


# ---------------------------------------------------------------------------
# The Strassen experiment
# ---------------------------------------------------------------------------


def log_spaced(lo: float, hi: float, n: int) -> list[Fraction]:
    """n log-spaced grid values as exact rationals (from float seeds)."""
    if n == 1:
        return [Fraction(lo)]
    vals = np.logspace(math.log10(lo), math.log10(hi), n)
    return [Fraction(float(v)) for v in vals]


# The perturbation factors are the midpoints of their STEP_BITS-bit enclosures;
# a sample first tries to decide their roundings at t + LOW_GUARD bits.
STEP_BITS = 176
LOW_GUARD = 32
_HALF = Fraction(1, 2)


def _certified_inputs(base: Sequence[Fraction], draws: list[float], p: Precision) -> list[FpNumber] | None:
    """The sample's inputs fl(b_i * M_i), M_i the STEP_BITS-bit factor midpoints,
    decided from their :func:`factor_bounds` at t + LOW_GUARD bits; None when
    one is undecided.  Each b_i times the bounds' integer range is rounded by
    :func:`~stabilis.fpcore._round_range`: rounding is monotone, so when both
    ends round alike, b_i * M_i rounds to that value too.
    """
    if p.t + LOW_GUARD >= STEP_BITS:
        return None
    out = []
    for v, bs in ((draws[:4], base[:4]), (draws[4:], base[4:])):
        for b, e in zip(bs, factor_bounds(v, _HALF, p.t + LOW_GUARD, STEP_BITS)):
            x = _round_range(b.numerator, b.denominator, e.lo, e.hi, -e.scale, p.t)
            if x is None:
                return None
            out.append(x)
    return out


def _lop(d: Interval | float | None, t: int) -> float:
    """float(midpoint of d) / 2**-t; 0 for None (distance 0), inf stays."""
    if d is None:
        return 0.0
    if isinstance(d, float):
        return d
    return math.ldexp(float(d.lo + d.hi), t - d.scale - 1)


def strassen_experiment(
    eps_grid: Sequence[Fraction],
    samples_per_eps: int,
    seed: int,
    t: int = 53,
) -> list[PercentileRow]:
    """Loss of precision of the 7-multiplication 2x2 scheme near A=B=[[1,e],[e,1]].

    Per sample both matrices take a relative step of length 1/2 along a
    Gaussian direction, are rounded into the working precision, and
    multiplied both by the fast scheme (in floating point) and exactly;
    the per-epsilon rows aggregate rel/abs lop percentiles.  Draws come
    from Philox streams with key=seed and counter=[0, sample, 2, eps_index].

    The inputs are defined as fl(b * M) for M the midpoints of the
    :func:`step_enclosures` at STEP_BITS = 176 bits (:func:`step_factors`),
    but only their t-bit roundings are used.  So each sample first takes
    the factors' :func:`factor_bounds` at t + 32 bits (when that is below
    176), and keeps an input when both ends of the bounded product round
    alike.  When any does not, the sample falls back on the
    176-bit factors.  Both roundings are fpcore's range rounding
    (:func:`~stabilis.fpcore._round_range`), a range of one integer in the
    fallback; the harness rounds nothing itself.  The lops come from the
    integer outputs on one binary scale (:func:`scaled_dists`), at the
    enclosures of :func:`rel_dist` and :func:`abs_dist`.  Every row is the
    same as at full width.
    """
    from .catalog import algorithm as make_alg

    p = Precision.of(t)
    alg = make_alg("strassen_2x2")
    at = philox_stream(seed)
    rows: list[PercentileRow] = []
    for ei, eps in enumerate(eps_grid):
        eps = Fraction(eps)
        base = strassen_input(eps)
        rel_lops: list[float] = []
        abs_lops: list[float] = []
        for si in range(samples_per_eps):
            draws = at([0, si, 2, ei]).standard_normal(8).tolist()
            fp_in = _certified_inputs(base, draws, p)
            if fp_in is None:
                factors = step_factors(draws[:4], _HALF, STEP_BITS) + step_factors(draws[4:], _HALF, STEP_BITS)
                fp_in = [_round_range(b.numerator, b.denominator, m, m, e, t)
                         for b, (m, e) in zip(base, factors)]
            # the rounded matrices are the run's inputs; the reference
            # multiplies exactly the same values, isolating algorithm error.
            # The product is bilinear, so it is formed from the integers
            # v * 2**-k at the inputs' finest binary scale 2**k and scaled
            # back by 2**(2k); the computed outputs join it on one scale.
            k = min(v.exponent - v.precision_bits for v in fp_in)
            ints = [v.sign * v.mantissa << (v.exponent - v.precision_bits - k) for v in fp_in]
            ref = alg.exact_reference(ints)
            got = alg.evaluate(fp_in, p)
            s = min([2 * k] + [g.exponent - g.precision_bits for g in got if g.mantissa])
            ref = [c << (2 * k - s) for c in ref]
            got = [g.sign * g.mantissa << (g.exponent - g.precision_bits - s) for g in got]
            rel, dist = scaled_dists(ref, got, s)
            rel_lops.append(_lop(rel, t))
            abs_lops.append(_lop(dist, t))
        rel_lops.sort()
        abs_lops.sort()
        rows.append(
            PercentileRow(
                epsilon=float(eps),
                rel_p05=nearest_rank(rel_lops, 5),
                rel_med=nearest_rank(rel_lops, 50),
                rel_p95=nearest_rank(rel_lops, 95),
                abs_p05=nearest_rank(abs_lops, 5),
                abs_med=nearest_rank(abs_lops, 50),
                abs_p95=nearest_rank(abs_lops, 95),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# The sine experiment
# ---------------------------------------------------------------------------


def sine_true_input(k: int) -> CertifiedReal:
    """The experiment's true input pi * 2**k + 1."""
    return pi_real().scalb(k) + 1


def _log_lop(value: Fraction, ref: CertifiedReal, u: Fraction, bits: int) -> ExtReal:
    """|log(value/ref)| / u; complex-log magnitude when the signs differ."""
    try:
        riv = signed_interval(ref, bits)
    except PrecisionError:
        return math.inf
    if value == 0:
        return math.inf
    same_sign = (value > 0) == (riv.sign() > 0)
    num = Interval.from_fraction(abs(value), bits + 16)
    mag = log_iv(num.divide(abs(riv), bits + 16), bits)
    if same_sign:
        lg = mag.midpoint()
        return abs(lg) / u
    # opposite signs: the principal complex log has imaginary part pi
    pi2 = pi_iv(bits)
    total = (mag * mag).rescale(bits) + (pi2 * pi2).rescale(bits)
    return sqrt_iv(total.clip_nonneg(), bits).midpoint() / u


def sine_experiment(k_max: int, t_work: int = 53, guard_bits: int = 512) -> list[LopRecord]:
    """Sine of pi*2**k + 1 in working precision against a guarded reference.

    The input is rounded to the working precision, its sine is computed
    by the working-precision routine, and the loss of precision against
    the certified high-precision sine of the true input is recorded.
    When the computed value lands on the wrong side of zero the lop uses
    the magnitude of the principal complex logarithm (the relative-metric
    distance proper is infinite across signs).
    """
    p = Precision.of(t_work)
    out: list[LopRecord] = []
    for k in range(1, k_max + 1):
        xk = sine_true_input(k)
        xhat = fl(xk, p)
        shat = sin_in_precision(xhat, p)
        ref = high_precision_sin(xk)
        refmid = ref.enclosure(guard_bits).midpoint()  # serves _log_lop's narrower request too
        rel = _log_lop(to_exact(shat), ref, p.u, max(guard_bits // 2, 192))
        abs_lop = abs(to_exact(shat) - refmid) / p.u
        kt = Sin().kappa_closed((xk,)) + 1
        out.append(LopRecord(f"k={k}", k, p.u, rel, abs_lop, kt))
    return out
