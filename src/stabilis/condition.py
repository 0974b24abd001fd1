"""Condition numbers in the coordinatewise relative-error metric.

Three routes are provided and cross-checked against each other:

* closed forms from the catalog,
* the scaled-Jacobian spectral formula (the derivative route), and
* a black-box sampling estimator of the defining limit.

The estimator decides most of its probes from float bounds on the two
distances (:func:`dist_bounds`, over rational, interval and certified-real
coordinates), most random probes before they are built (from enclosures
of their step factors and ``exact`` on the box they span), and computes
the exact 192-bit distances only for a probe whose ratio could raise the
running sup, so its reports are those of the exact computation.  A call
builds, evaluates and measures each distinct probe point once per radius
(on one coordinate the random probes repeat a few points), and reads x,
f(x) and the unit step factors for the float bounds once.

The spectral norm is certified: the largest eigenvalue of the exact
integer Gram matrix is bracketed by Rayleigh quotients from below and by
exact inertia tests (fraction-free elimination) from above, so condition
values are good to 2**-100 relative, far past the 1e-12 the cross-checks
require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .catalog import CatalogFunction, DomainError, _sqrt_mid, second_order
from .fpcore import fl, to_exact
from .reals import CertifiedReal, ExactReal, Interval, real_sign
from .relmetric import (
    BOX_BITS,
    DIST_BITS,
    RelPoint,
    factor_bounds,
    rel_dist,
    sample_bits,
    step_factors,
    step_stream,
)

ExtReal = Fraction | float  # exact rational, or math.inf


@dataclass
class ConditionReport:
    """kappa and kappa-tilde of a function at a point, with provenance."""

    kappa: ExtReal
    kappa_tilde: ExtReal
    method: str  # closed_form | jacobian | sampled
    at: RelPoint
    converged: bool = True
    domain_failures: int = 0

    @staticmethod
    def make(kappa: ExtReal, method: str, at: RelPoint, **kw) -> "ConditionReport":
        kt = math.inf if kappa == math.inf else 1 + kappa
        return ConditionReport(kappa, kt, method, at, **kw)


# ---------------------------------------------------------------------------
# Spectral norm (exact Gram matrix, certified by inertia)
# ---------------------------------------------------------------------------


def spectral_norm(rows: Sequence[Sequence]) -> Fraction:
    """Largest singular value, to within 2**-100 relative.

    Entries (rationals or certified reals) are rounded to 192 bits, so they
    share one power-of-two denominator.  lambda_max of the integer Gram
    matrix G on the smaller side is bracketed below by Rayleigh quotients
    and above by exact tests that s*I - G is positive semidefinite.  A
    rational root (identity, nilpotent, zero matrices) is returned exactly.
    """
    if not rows or not rows[0]:
        return Fraction(0)
    exact = [[to_exact(fl(v, 192)) for v in row] for row in rows]
    den = max(v.denominator for row in exact for v in row)
    A = [[v.numerator * (den // v.denominator) for v in row] for row in exact]
    A = A if len(A) <= len(A[0]) else list(zip(*A))
    G = [[sum(a * b for a, b in zip(r, s)) for s in A] for r in A]
    lo = max(r[i] for i, r in enumerate(G))
    if lo == 0 or len(G) == 1:  # lambda_max is the one diagonal entry, or 0
        return _sqrt_mid(Fraction(lo)) / den
    sh = max(lo.bit_length() - 60, 0)  # |G_ij| <= max diag: the floats stay finite
    w = np.linalg.eigh(np.array([[float(g >> sh) for g in r] for r in G]))[1][:, -1]
    v = [round(float(c) * 2**53) for c in w]
    vGv = sum(a * g * b for a, r in zip(v, G) for g, b in zip(r, v))
    lo = max(lo, Fraction(vGv, sum(c * c for c in v)))
    hi, step = lo, Fraction(lo, 2**100)
    while not _dominates(hi, G):  # lambda_max > hi: step up, doubling the step
        lo, hi, step = hi, hi + step, 2 * step
    while (hi - lo) * 2**100 > lo:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _dominates(mid, G) else (mid, hi)
    return _sqrt_mid(Fraction(lo + hi, 2)) / den


def _dominates(s: Fraction | int, G: list[list[int]]) -> bool:
    """Whether s*I - G is positive semidefinite, decided exactly.

    Fraction-free (Bareiss) elimination pivoting on the largest diagonal:
    each step leaves the Schur complement times the last pivot, which is
    positive, so the signs of the pivots decide.
    """
    p, q = s.numerator, s.denominator
    M = [[(p if i == j else 0) - q * g for j, g in enumerate(r)] for i, r in enumerate(G)]
    prev = 1
    while M:
        k = max(range(len(M)), key=lambda i: M[i][i])
        piv = M[k][k]
        if piv <= 0:  # a zero diagonal entry of a PSD matrix zeroes its row
            return piv == 0 and not any(map(any, M))
        M = [[(piv * x - r[k] * M[k][j]) // prev for j, x in enumerate(r) if j != k]
             for i, r in enumerate(M) if i != k]
        prev = piv
    return True


# ---------------------------------------------------------------------------
# The derivative route
# ---------------------------------------------------------------------------


def kappa_from_jacobian(x: RelPoint, fx: RelPoint, partials: Sequence[dict]) -> ConditionReport:
    """kappa = || diag(f(x))^+  J  diag(x) ||_2, where ``partials[i]`` maps
    input j to x_j df_i/dx_j (an absent j, as every zero coordinate, is 0).

    An output that is an exact 0 drops its row (Moore-Penrose) when its map
    is empty, as it is constant to first order, and makes kappa infinite
    when it has a nonzero partial.  :func:`kappa_jacobian` has made kappa
    infinite where such a row has a nonzero second partial; a zero of order
    3 or more, as ``Composite(Power(3), Summation(2))`` at (1, -1), drops.
    """
    m = x.dim
    if len(partials) != fx.dim or any(j >= m for d in partials for j in d):
        raise ValueError("the partial maps do not match the points")
    zero = Fraction(0)
    rows = []
    for fi, s, d in zip(fx.coords, fx.pattern, partials):
        if s == 0:
            if any(real_sign(p) for p in d.values()):
                return ConditionReport.make(math.inf, "jacobian", x)
        else:
            rows.append([d[j] / fi if j in d else zero for j in range(m)])
    return ConditionReport.make(spectral_norm(rows) if rows else zero, "jacobian", x)


def kappa_jacobian(f: CatalogFunction, x: RelPoint) -> ConditionReport:
    """Derivative-route condition number of a catalog function at x: one
    dual pass of f seeded with each nonzero coordinate gives f(x) and the
    scaled partials; an exact-0 output with no partial takes a nested pass
    (:func:`second_order`), where a nonzero second partial makes kappa infinite."""
    seeds = {j: x.coords[j] for j in x.chi()}
    out = f.derivatives(x.coords, seeds)
    if out is None:
        raise ValueError(f"{f.id} has no usable jacobian at this point")
    fx = RelPoint(out[0])
    flat = [i for i, (s, d) in enumerate(zip(fx.pattern, out[1])) if s == 0 and not d]
    if flat:  # the first pass had every derivative, so the nested one has too
        nested = second_order(f, x.coords, seeds)
        if any(real_sign(c) for i in flat for row in nested[i][2].values() for c in row.values()):
            return ConditionReport.make(math.inf, "jacobian", x)
    return kappa_from_jacobian(x, fx, out[1])


def kappa_closed_form(f: CatalogFunction, x: RelPoint) -> ConditionReport:
    """Catalog closed form; falls back to the derivative route when absent."""
    if not f.in_domain(x.coords):
        raise DomainError(f"{f.id}: point outside the domain")
    return kappa_inside(f, x)


def kappa_inside(f: CatalogFunction, x: RelPoint) -> ConditionReport:
    """:func:`kappa_closed_form` at a point already known to be in the domain."""
    v = f.kappa_closed(x.coords)
    if v is None:
        return kappa_jacobian(f, x)
    return ConditionReport.make(v, "closed_form", x)


# ---------------------------------------------------------------------------
# The black-box sampling estimator
# ---------------------------------------------------------------------------

DEFAULT_RADII = (Fraction(1, 1000), Fraction(1, 10000), Fraction(1, 100000))

# dist_bounds leaves a distance below this to the exact path: the offset of
# rel_dist's 192-bit midpoint is bounded relative to the distance only above it
FLOAT_FLOOR = 2.0**-60

# dist_bounds takes a certified real as the enclosure that rel_dist's
# certified path starts from, so it sees the width rel_dist will use and
# leaves every cached enclosure as the exact path would
CERT_BITS = DIST_BITS + 8

# kappa_sampled stops deciding a level's random probes on boxes after this
# many attempts in a row fail, and its built probes by float bounds when
# this many are undecided before any is decided: where the ratios tie the
# sup (copy, sqrt), every attempt fails and only adds to the probe's cost
BOX_PATIENCE = 4


def _magnitude(c) -> tuple[int, int, int, int, bool] | None:
    """(sign, lo, hi, den, certified) with |c| in [lo, hi] / den, for a
    rational, an Interval or a CertifiedReal (its enclosure at CERT_BITS);
    None when the enclosure leaves the sign open."""
    certified = isinstance(c, CertifiedReal)
    if certified:
        c = c.enclosure(CERT_BITS)
    elif not isinstance(c, Interval):  # isinstance on Fraction, an ABC, is slow
        n = c.numerator
        return (n > 0) - (n < 0), abs(n), abs(n), c.denominator, False
    lo, hi, s = c.lo, c.hi, c.scale
    if lo <= 0 <= hi and (lo or hi):
        return None
    sign = (lo > 0) - (hi < 0)
    if sign < 0:
        lo, hi = -hi, -lo
    return (sign, lo, hi, 1 << s, certified) if s >= 0 else (sign, lo << -s, hi << -s, 1, certified)


class _Magnitudes(tuple):
    """A side of :func:`dist_bounds` read once: its coordinates' :func:`_magnitude`."""


def _read(side) -> Iterable:
    return side if isinstance(side, _Magnitudes) else map(_magnitude, side)


def dist_bounds(x: Iterable, y: Iterable) -> tuple[float, float] | None:
    """Floats lo <= rel_dist(x, y) <= hi, or None, for x and y of one
    dimension (RelPoints or sequences of coordinates; a side that a caller
    passes on every call it may read once into a ``_Magnitudes``).

    A coordinate is a Fraction, an integer Interval, which stands for every
    rational in it (the bounds hold for each such point), or a CertifiedReal.
    None when the signs may differ, some ratio a/b may lie outside (1/3, 3),
    the distance may be below ``FLOAT_FLOOR`` (every |z| below it, so every
    distance under 2**-60), or a certified pair is too wide (below).

    For coordinates a, b of one sign, log(a/b) = 2 atanh z with z = (a/b -
    1)/(a/b + 1), increasing in a/b; for |z| < 1/2, 2|z| <= |2 atanh z| <=
    2|z| c(z), c(z) = 1 + z^2/(3(1 - z^2)) (the tail of z + z^3/3 + z^5/5 +
    ... is below the geometric series z^3/3 (1 + z^2 + ...)); c increases
    with |z|.  Over the enclosures, a/b runs from p/q = |a|_lo/|b|_hi to
    P/Q = |a|_hi/|b|_lo, all four integers over the sides' denominators, so
    |z| is at most the larger |z| of the two ends and at least the nearer
    one, or 0 when the range holds 1 (a rational gives one end).  So the
    distance D lies in [2 S_lo, 2 c(z_max) S_hi] for S_lo and S_hi the
    Euclidean norms of those least and greatest |z|.

    Float error, for n coordinates and u = 2**-53.  Int true division
    rounds each z correctly, however large the integers: within u
    relative, or 2**-1075 absolute below 2**-1022.  Each float sum of squares
    is then within (n + 3) u of its sum, the absolute terms adding under
    n 2**-954 of it because the largest least |z| is >= 2**-60; its root is
    within (n + 6) u of S, and c and the last products add a few u more.
    The margin m = (n + 16) 2**-48 = 32 (n + 16) u covers all of it and the
    midpoint's offset below.

    Midpoint offset.  ``rel_dist`` returns the midpoint M of an enclosure
    [L, H] of D, so |M - D| <= H - L.  Let w bound the width of each pair's
    enclosure of log(a/b); the squares' sum T is then below 2 w sqrt(n) D +
    n (w**2 + 2**-398) wide (sum |l_i| <= sqrt(n) D), and ``sqrt_iv(T,
    192)`` at 208 bits is below (T_hi - T_lo)/D + 2**-207 wide.  A pair of
    rationals (an Interval's points are rational) has its ratio exactly:
    with it in (1/3, 3), ``log_ends`` at 192 bits (``log_iv``'s enclosure)
    adds at most 3 multiples of ln 2 (below 2**-300 wide) to 2 atanh of a
    reduced |z| < 1/3 at W = 224 bits, whose series has at most 71 terms,
    err <= 9 + 6*71 units and width 4 err < 2**11 units of 2**-224: w =
    2**-212.  A pair with a certified
    real takes ``signed_interval(., 200)`` of each side, which is the
    enclosure at CERT_BITS read here when its sign is certain, and of a
    rational side an enclosure below 2**-200 wide.  Each is required below
    2**-128 relative width: a certified side by its own ends, a rational
    side by being at least 2**-72.  The quotient at 200 bits (ends in (1/4,
    4)) is then below 2**-126 relative width, and ``log_iv`` of its two
    ends (each as above) gives w < 2**-125.  For D >= 2**-60 the offset,
    relative to D, is below 2**-64 sqrt(n) + n 2**-129 + 2**-147, far
    inside the margin's slack of 31 (n + 16) u.
    """
    ss_lo = ss_hi = top_lo = top_hi = 0.0
    n = 0
    for ea, eb in zip(_read(x), _read(y)):
        n += 1
        if ea is None or eb is None or ea[0] != eb[0]:
            return None
        sign, alo, ahi, ad, a_cert = ea
        _, blo, bhi, bd, b_cert = eb
        if not sign:
            continue
        if a_cert or b_cert:
            # rel_dist's certified path: each side below 2**-128 relative width
            for _, c_lo, c_hi, c_den, certified in (ea, eb):
                if certified:
                    wide = (c_hi - c_lo) << 128 > c_lo
                else:  # enclosed at 200 bits: at least 2**-72 in size
                    wide = c_lo << 72 < c_den
                if wide:
                    return None
        p, q, P, Q = alo * bd, bhi * ad, ahi * bd, blo * ad
        z, Z = (p - q) / (p + q), (P - Q) / (P + Q)  # z <= Z
        hi = max(-z, Z)
        lo = z if z > 0 else -Z if Z < 0 else 0.0
        ss_lo += lo * lo
        ss_hi += hi * hi
        if lo > top_lo:
            top_lo = lo
        if hi > top_hi:
            top_hi = hi
    if not (FLOAT_FLOOR <= top_lo and top_hi < 0.5):
        return None
    m = (n + 16) * 2.0**-48
    c = 1 + top_hi * top_hi / (3 - 3 * top_hi * top_hi)
    return 2 * math.sqrt(ss_lo) * (1 - m), 2 * math.sqrt(ss_hi) * c * (1 + m)


def kappa_sampled(
    f: CatalogFunction,
    x: RelPoint,
    radii: Sequence = DEFAULT_RADII,
    n_dirs: int = 200,
    seed: int = 0,
) -> ConditionReport:
    """Estimate kappa by probing the ball of each radius in the schedule.

    For each radius the estimator takes the sup of the measured distance
    ratio over sampled points: coordinate-axis probes, one refined
    direction aligned with the top singular direction of the
    probe-estimated local map, and random directions (all at distance ~r).
    The schedule must be nonempty and strictly decreasing, with positive
    radii (ValueError otherwise); the estimate is accepted when the
    last two levels agree within 1%, otherwise the max is reported with
    ``converged=False``.  Sign-pattern breaks and blow-ups surface as an
    infinite estimate.  Probes step at the width :func:`sample_bits` gives
    each radius, 80 bits below the largest coordinate's magnitude and the
    radius: with a coarser step factor every probe of x = pi*2^k + 1 would
    land on a multiple of pi plus 1, hiding the condition number.

    Only a probe whose ratio exceeds the running sup changes the report,
    and each level's estimate is a max, so the order of the probes does
    not matter: the refined direction reads only the axis probes and runs
    before the random ones, which then meet a sup near its final value.
    Once the sup is positive, a probe is skipped when :func:`dist_bounds`
    bounds both pairs and the upper ratio bound is certainly below the sup
    (or the sup is infinite); its distance to x is then known to be
    nonzero and finite, as the exact path would find.  For a rational x
    with more than one nonzero coordinate, a map defined everywhere and
    r <= 1, a random probe is first decided unbuilt: its distance to x is
    bounded from the enclosures of its step factors (:func:`factor_bounds`
    at BOX_BITS, which hold the factors ``step_factors`` would give) against
    1, and f's from ``f.exact`` on the box of its coordinates
    (:meth:`RelPoint.box`).  A map that does not run on boxes raises
    TypeError, and the call then builds every probe; after BOX_PATIENCE
    undecided boxes in a row, so does the level.  A level whose first
    BOX_PATIENCE tries of the float bounds on built probes all fail
    measures its other probes without them (the ratios of ``sqrt`` tie the
    sup on every probe); once one is decided, every later probe is tried
    (a one-coordinate map such as ``sin`` ties the sup at one of its two
    probe points and not at the other).  Every other probe (flat ratios
    that tie the sup, undecided signs) is built and measured exactly, so
    the report is the exact computation's, bit for bit.

    Each distinct probe point is built, evaluated by ``f.exact`` and
    measured at most once per radius: on one coordinate every random
    direction is +1 or -1, so the random probes repeat a few points.  A
    repeat's ratio is already in the sup; a point where f fails counts in
    ``domain_failures`` at every repeat, as a probe.  The sides that every
    float bound reads again, x, f(x) and the unit factors that the box
    bounds compare with, are read once per call.
    """
    radii = [Fraction(r) for r in radii]
    if not radii or radii[-1] <= 0 or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("the radii must be positive and strictly decreasing")
    fx = RelPoint(f.exact(x.coords))
    chi = x.chi()
    m = len(chi)
    ones = _Magnitudes(map(_magnitude, (Fraction(1),) * m))
    # x and f(x) are read for dist_bounds where it first meets them, after a
    # probe was measured: rel_dist has enclosed x, and f(x) unless f left
    # its sign pattern, at CERT_BITS, so the read adds no enclosure (an
    # earlier one could serve a narrower request on x, as sample_bits', and
    # move the bits it gives)
    side = cache(lambda p: _Magnitudes(map(_magnitude, p)))

    # random probes decided on boxes: f defined everywhere, x rational, and
    # more than one coordinate (a one-coordinate probe costs no more to
    # build than to decide on a box)
    boxes = m > 1 and not f.restricts and all(isinstance(c, Fraction) for c in x.coords)
    failures = 0
    estimates: list[ExtReal] = []
    for level, r in enumerate(radii):
        bits = sample_bits(x, r)
        best: ExtReal = Fraction(0)
        probe_logs: list[list[float]] = []
        # built probes the float bounds left undecided, and whether one was decided
        undecided, decided = 0, False
        # each point this level has built, keyed by its scaled coordinates and
        # step factors: 1 if f failed there, else 0 (its ratio is in best; a
        # later level measures a point again, against its own sup)
        seen: dict[tuple, int] = {}

        def below(bxy: tuple[float, float] | None, fys) -> bool:
            """Whether a probe at a distance within bxy of x, with f-values
            fys, has a ratio certainly below the positive sup (or the sup is
            infinite)."""
            if bxy is None or (bff := dist_bounds(side(fx), fys)) is None:
                return False
            try:
                fb = float(best)  # correctly rounded; inf for an infinite sup
            except OverflowError:  # a finite sup past the floats: measure exactly
                return False
            # a normal fb is within u of best, so a product 2**-40 under
            # fb * bxy[0] is under best * bxy[0]
            return fb == math.inf or (fb > 2.0**-900 and bff[1] < fb * bxy[0] * (1 - 2.0**-40))

        def measure(idx: tuple[int, ...], factors: list[tuple[int, int]]) -> RelPoint | None:
            """Measure the probe x.scaled(idx, factors) into best, and return
            f there (None when f fails or the probe's distance is 0 or
            infinite).  A repeat of a point is neither built nor measured
            again; it counts its failure again and returns None (the axis
            probes, which read f, come first and are distinct)."""
            nonlocal best, failures, undecided, decided
            key = (idx, *factors)
            if key in seen:
                failures += seen[key]
                return None
            y = x.scaled(idx, factors)
            try:
                fy = RelPoint(f.exact(y.coords))
            except (DomainError, ZeroDivisionError):
                failures += 1
                seen[key] = 1
                return None
            seen[key] = 0
            if best > 0 and (decided or undecided < BOX_PATIENCE):
                if below(dist_bounds(side(x), y), fy):
                    decided = True
                    return fy
                undecided += 1
            dxy = rel_dist(x, y)
            if dxy == 0 or dxy == math.inf:
                return None
            dff = rel_dist(fx, fy)
            ratio = math.inf if dff == math.inf else dff / dxy
            if ratio > best:
                best = ratio
            return fy

        # axis probes double as local-map estimation; each scales one
        # coordinate by the step factor exp(r) or exp(-r), taken once
        up, down = step_factors([1], r, bits), step_factors([1], -r, bits)
        for i in chi:
            fy = measure((i,), up)
            if fy is not None and fy.pattern == fx.pattern:
                col = [
                    _float_log_ratio(a, b) / float(r)
                    for a, b in zip(fy.coords, fx.coords)
                ]
                probe_logs.append(col)
            measure((i,), down)
        # refined direction from the probe matrix
        if len(probe_logs) == m and m > 1:
            L = np.array(probe_logs, dtype=float).T  # out_dim x m
            if np.all(np.isfinite(L)) and L.size:
                v = np.ones(m) / math.sqrt(m)
                for _ in range(24):
                    w = L.T @ (L @ v)
                    nw = np.linalg.norm(w)
                    if nw == 0:
                        break
                    v = w / nw
                wfr = [Fraction(float(c)).limit_denominator(10**12) for c in v]
                measure(chi, step_factors(wfr, r, bits))
                measure(chi, step_factors(wfr, -r, bits))
        # an all-zero x has no random probe: each would be x, at distance 0
        n_random = max(8, n_dirs - 2 * m - 1) if m else 0
        misses = 0  # box attempts in a row that did not decide their probe
        for v, rho in step_stream(m, r, n_random, seed + 7919 * level, sphere=True):
            if boxes and misses < BOX_PATIENCE and best > 0 and r <= 1:
                factors = factor_bounds(v, rho, BOX_BITS, bits)
                try:
                    fbox = f.exact(tuple(x.box(chi, factors)))
                except TypeError:  # a map that does not run on boxes
                    boxes = False
                else:
                    if below(dist_bounds(ones, factors), fbox):
                        misses = 0
                        continue
                    misses += 1
            measure(chi, step_factors(v, rho, bits))
        estimates.append(best)

    kappa: ExtReal
    converged = False
    if len(estimates) >= 2:
        a, b = estimates[-2], estimates[-1]
        if a == math.inf or b == math.inf:
            kappa = math.inf
        elif b > 0 and abs(a - b) <= Fraction(1, 100) * b:
            kappa = b
            converged = True
        elif b == 0 and a == 0:
            kappa = Fraction(0)
            converged = True
        else:
            kappa = max(estimates)
    else:
        kappa = estimates[0]
    return ConditionReport.make(kappa, "sampled", x, converged=converged, domain_failures=failures)


def _float_log_ratio(a: ExactReal, b: ExactReal) -> float:
    """Rough log(|a|/|b|) in float precision (direction search only)."""
    try:
        fa, fb = abs(float(a)), abs(float(b))
        if fa == 0.0 or fb == 0.0 or not (math.isfinite(fa) and math.isfinite(fb)):
            return 0.0
        return math.log(fa) - math.log(fb)
    except (OverflowError, ValueError):
        return 0.0


# ---------------------------------------------------------------------------
# Composition and stacking bounds
# ---------------------------------------------------------------------------


def composition_upper_bound(kt_g: ExtReal, kt_h: ExtReal) -> ExtReal:
    """kt_g * kt_h, an upper bound for the composite's kappa-tilde."""
    if kt_g < 1 or kt_h < 1:
        raise ValueError("kappa-tilde values are always >= 1")
    if kt_g == math.inf or kt_h == math.inf:
        return math.inf
    return kt_g * kt_h


def stacking_bounds(per_component: Sequence[ExtReal]) -> tuple[ExtReal, ExtReal]:
    """(max_i kappa_i, sqrt(sum kappa_i^2)) bracketing the stacked kappa."""
    ks = list(per_component)
    if not ks:
        raise ValueError("need at least one component")
    if any(k < 0 for k in ks):
        raise ValueError("condition numbers are nonnegative")
    if any(k == math.inf for k in ks):
        return math.inf, math.inf
    lower = max(ks)
    upper = _sqrt_mid(sum((Fraction(k) ** 2 for k in ks), Fraction(0)))
    return lower, upper
