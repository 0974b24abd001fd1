"""Condition numbers in the coordinatewise relative-error metric.

Three routes are provided and cross-checked against each other:

* closed forms from the catalog,
* the scaled-Jacobian spectral formula (the derivative route), and
* a black-box sampling estimator of the defining limit.

The estimator decides most of its probes from float bounds on the two
distances (:func:`dist_bounds`) and computes the exact 192-bit distances
only for a probe whose ratio could raise the running sup, so its reports
are those of the exact computation.

The spectral norm is certified: the largest eigenvalue of the exact
integer Gram matrix is bracketed by Rayleigh quotients from below and by
exact inertia tests (fraction-free elimination) from above, so condition
values are good to 2**-100 relative, far past the 1e-12 the cross-checks
require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import CatalogFunction, DomainError, _sqrt_mid
from .fpcore import fl, to_exact
from .reals import ExactReal
from .relmetric import RelPoint, rel_dist, rel_sphere_sample, rel_step, sample_bits, step_factors

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
    if lo == 0:
        return Fraction(0)
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


def kappa_from_jacobian(x: RelPoint, fx: RelPoint, jac: Sequence[Sequence]) -> ConditionReport:
    """kappa = || diag(f(x))^+  J  diag(x) ||_2.

    Zero output coordinates drop their rows (Moore-Penrose), zero input
    coordinates null their columns; the caller asserts that the smooth
    case of the derivative formula applies at x.
    """
    m, n = x.dim, fx.dim
    if len(jac) != n or any(len(r) != m for r in jac):
        raise ValueError("jacobian dimensions do not match the points")
    rows = []
    for i in range(n):
        if fx.pattern[i] == 0:
            continue
        row = []
        for j in range(m):
            if x.pattern[j] == 0:
                row.append(Fraction(0))
            else:
                row.append(jac[i][j] * x.coords[j] / fx.coords[i])
        rows.append(row)
    if not rows:
        return ConditionReport.make(Fraction(0), "jacobian", x)
    return ConditionReport.make(spectral_norm(rows), "jacobian", x)


def kappa_jacobian(f: CatalogFunction, x: RelPoint) -> ConditionReport:
    """Derivative-route condition number of a catalog function at x."""
    jac = f.jacobian(x.coords)
    if jac is None:
        raise ValueError(f"{f.id} has no usable jacobian at this point")
    fx = RelPoint(f.exact(x.coords))
    return kappa_from_jacobian(x, fx, jac)


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


def dist_bounds(x: RelPoint, y: RelPoint) -> tuple[float, float] | None:
    """Floats lo <= rel_dist(x, y) <= hi, or None.

    None when the sign patterns differ, a coordinate is a certified real,
    some ratio a/b lies outside (1/3, 3), or the distance may be below
    ``FLOAT_FLOOR`` (every |z| below it, so every distance under 2**-60).

    For Fraction coordinates a, b of one sign let p = |a.num * b.den| and
    q = |b.num * a.den|: log(a/b) = 2 atanh z with z = (p - q)/(p + q), and
    for |z| < 1/2, 2|z| <= |2 atanh z| <= 2|z| c(z), c(z) = 1 + z^2/(3(1 - z^2))
    (the tail of z + z^3/3 + z^5/5 + ... is below the geometric series
    z^3/3 (1 + z^2 + ...)); c increases with |z|.  So the distance D lies in
    [2 S, 2 c(z_max) S] for S the Euclidean norm of z.

    Float error, for n coordinates and u = 2**-53.  Int true division
    rounds each |z| correctly, however large the integers: within u
    relative, or 2**-1075 absolute below 2**-1022.  The float sum of squares
    is then within (n + 3) u of sum z^2, the absolute terms adding under
    n 2**-954 of it because z_max >= 2**-60; its root is within (n + 6) u
    of S, and c and the last products add a few u more.  The margin
    m = (n + 16) 2**-48 = 32 (n + 16) u covers all of it and the midpoint's
    offset below.

    Midpoint offset.  ``rel_dist`` returns the midpoint M of an enclosure
    [L, H] of D, so |M - D| <= H - L.  With a ratio in (1/3, 3),
    ``log_iv(., 192)`` adds at most 3 multiples of ln 2 (below 2**-300
    wide) to 2 atanh of a reduced |z| < 1/3 at W = 224 bits, whose series
    has at most 71 terms, err <= 9 + 6*71 units and width 4 err < 2**11
    units of 2**-224: each log enclosure is below w = 2**-212 wide.  Its
    square is below 2 w |l_i| + 2 w**2 wide plus 2 units of 2**-400 for the
    rescale, so the sum T is below 2 w sqrt(n) D + n 2**-398 wide
    (sum |l_i| <= sqrt(n) D), and ``sqrt_iv(T, 192)`` at 208 bits is below
    (T_hi - T_lo)/D + 2**-207 wide.  For D >= 2**-60 that is, relative to D,
    2**-151 sqrt(n) + n 2**-278 + 2**-147 < 2**-100 for any n below 2**90.
    """
    if x.pattern != y.pattern:
        return None
    ss = top = 0.0
    for a, b in zip(x.coords, y.coords):
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            return None
        p = abs(a.numerator * b.denominator)
        q = abs(b.numerator * a.denominator)
        if p != q:
            z = abs(p - q) / (p + q)
            ss += z * z
            if z > top:
                top = z
    if not FLOAT_FLOOR <= top < 0.5:
        return None
    m = (len(x.coords) + 16) * 2.0**-48
    d = 2 * math.sqrt(ss)
    return d * (1 - m), d * (1 + top * top / (3 - 3 * top * top)) * (1 + m)


def kappa_sampled(
    f: CatalogFunction,
    x: RelPoint,
    radii: Sequence = DEFAULT_RADII,
    n_dirs: int = 200,
    seed: int = 0,
) -> ConditionReport:
    """Estimate kappa by probing the ball of each radius in the schedule.

    For each radius the estimator takes the sup of the measured distance
    ratio over sampled points: coordinate-axis probes, random directions,
    and one refined direction aligned with the top singular direction of
    the probe-estimated local map (all at distance ~r).
    The schedule must be nonempty and strictly decreasing, with positive
    radii (ValueError otherwise); the estimate is accepted when the
    last two levels agree within 1%, otherwise the max is reported with
    ``converged=False``.  Sign-pattern breaks and blow-ups surface as an
    infinite estimate.  Probes step at the width :func:`sample_bits` gives
    each radius, 80 bits below the largest coordinate's magnitude and the
    radius: with a coarser step factor every probe of x = pi*2^k + 1 would
    land on a multiple of pi plus 1, hiding the condition number.

    Only a probe whose ratio exceeds the running sup changes the report.
    Once the sup is positive, a probe with :func:`dist_bounds` for both
    pairs whose upper ratio bound is certainly below the sup (or any probe
    with bounds on x, y once the sup is infinite) skips the exact
    distances; its distance to x is then known to be nonzero and finite,
    as the exact path would find.  Every other probe (flat ratios that tie
    the sup, certified-real coordinates) is measured exactly, so the report
    is the exact computation's, bit for bit.
    """
    radii = [Fraction(r) for r in radii]
    if not radii or radii[-1] <= 0 or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("the radii must be positive and strictly decreasing")
    fx = RelPoint(f.exact(x.coords))
    chi = x.chi()
    m = len(chi)
    failures = 0
    estimates: list[ExtReal] = []
    for level, r in enumerate(radii):
        bits = sample_bits(x, r)
        best: ExtReal = Fraction(0)
        probe_logs: list[list[float]] = []

        def measure(y: RelPoint):
            nonlocal best, failures
            try:
                fy = RelPoint(f.exact(y.coords))
            except (DomainError, ZeroDivisionError):
                failures += 1
                return None
            if best > 0:
                bxy = dist_bounds(x, y)
                if bxy is not None:
                    if best == math.inf:
                        return fy
                    bff = dist_bounds(fx, fy)
                    if bff is not None and bff[1] < best * Fraction(bxy[0]):
                        return fy
            dxy = rel_dist(x, y)
            if dxy == 0 or dxy == math.inf:
                return None
            dff = rel_dist(fx, fy)
            ratio = math.inf if dff == math.inf else dff / dxy
            if ratio > best:
                best = ratio
            return fy

        # axis probes double as local-map estimation; each scales one
        # coordinate by rel_step's factor exp(r) or exp(-r), taken once
        up, down = step_factors([1], r, bits), step_factors([1], -r, bits)
        for i in chi:
            fy = measure(x.scaled((i,), up))
            if fy is not None and fy.pattern == fx.pattern:
                col = [
                    _float_log_ratio(a, b) / float(r)
                    for a, b in zip(fy.coords, fx.coords)
                ]
                probe_logs.append(col)
            measure(x.scaled((i,), down))
        n_random = max(8, n_dirs - 2 * m - 1)
        for y in rel_sphere_sample(x, r, n_random, seed + 7919 * level):
            measure(y)
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
                measure(rel_step(x, wfr, r, chi, bits))
                measure(rel_step(x, wfr, -r, chi, bits))
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
