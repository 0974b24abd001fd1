"""Condition numbers in the coordinatewise relative-error metric.

Three routes are provided and cross-checked against each other:

* closed forms from the catalog,
* the scaled-Jacobian spectral formula (the derivative route), and
* a black-box sampling estimator of the defining limit.

The spectral norm runs a one-sided cyclic Jacobi iteration entirely in the
package's own soft-float arithmetic at extended precision, so condition
values are good to far better than the 1e-12 the cross-checks require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import CatalogFunction, DomainError, babylonian_sqrt, _sqrt_mid
from .fpcore import FpError, FpNumber, Precision, fl, fp_add, fp_div, fp_mul, fp_sub, fp_zero, to_exact
from .reals import ExactReal
from .relmetric import RelPoint, rel_dist, rel_sphere_sample, rel_step

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
# Spectral norm (one-sided Jacobi at extended precision)
# ---------------------------------------------------------------------------

SPECTRAL_T = 192


def spectral_norm(
    rows: Sequence[Sequence], t: int = SPECTRAL_T, tol: Fraction = Fraction(1, 10**30)
) -> Fraction:
    """Largest singular value via one-sided cyclic Jacobi rotations.

    Entries may be exact rationals or certified reals; everything is
    rounded into the extended working precision first, and the rotation
    sweep stops once every column pair is orthogonal to the given
    relative tolerance.
    """
    p = Precision.of(t)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return Fraction(0)
    cols: list[list[FpNumber]] = [
        [fl(rows[i][j], p) for i in range(nrows)] for j in range(ncols)
    ]

    def dot(a: list[FpNumber], b: list[FpNumber]) -> FpNumber:
        acc = fp_zero()
        for u, v in zip(a, b):
            acc = fp_add(acc, fp_mul(u, v, p), p)
        return acc

    one = fl(1, p)
    two = fl(2, p)
    tol_sq = fl(tol * tol, p)
    for _ in range(64):
        rotated = False
        # columns negligible against the largest never affect sigma_max at
        # tolerance; without this cutoff, rank deficiency would keep the
        # sweep rotating noise forever (nothing underflows here)
        norms = [dot(c, c) for c in cols]
        biggest = max(norms)
        if biggest.is_zero:
            return Fraction(0)
        cutoff = fp_mul(tol_sq, biggest, p)
        for i in range(ncols):
            for j in range(i + 1, ncols):
                ci, cj = cols[i], cols[j]
                a = dot(ci, ci)
                b = dot(cj, cj)
                g = dot(ci, cj)
                if g.is_zero or a <= cutoff or b <= cutoff:
                    continue
                # converged pair: g^2 <= tol^2 * a * b
                lhs = fp_mul(g, g, p)
                rhs = fp_mul(tol_sq, fp_mul(a, b, p), p)
                if lhs <= rhs:
                    continue
                rotated = True
                zeta = fp_div(fp_sub(b, a, p), fp_mul(two, g, p), p)
                root = babylonian_sqrt(fp_add(one, fp_mul(zeta, zeta, p), p), p)
                denom = fp_add(abs(zeta), root, p)
                tq = fp_div(one, denom, p)
                if zeta.sign < 0:
                    tq = -tq
                c = fp_div(one, babylonian_sqrt(fp_add(one, fp_mul(tq, tq, p), p), p), p)
                s = fp_mul(c, tq, p)
                ni = [fp_sub(fp_mul(c, u, p), fp_mul(s, v, p), p) for u, v in zip(ci, cj)]
                nj = [fp_add(fp_mul(s, u, p), fp_mul(c, v, p), p) for u, v in zip(ci, cj)]
                cols[i], cols[j] = ni, nj
        if not rotated:
            break
    else:  # pragma: no cover - cyclic Jacobi converges long before this
        raise FpError("jacobi sweep did not converge")
    best = fp_zero()
    for cj in cols:
        nrm = babylonian_sqrt(dot(cj, cj), p)
        if nrm > best:
            best = nrm
    return to_exact(best)


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


def kappa_closed_form(f: CatalogFunction, x: RelPoint, bits: int = 192) -> ConditionReport:
    """Catalog closed form; falls back to the derivative route when absent."""
    if not f.in_domain(x.coords):
        raise DomainError(f"{f.id}: point outside the domain")
    v = f.kappa_closed(x.coords, bits)
    if v is None:
        return kappa_jacobian(f, x)
    return ConditionReport.make(v, "closed_form", x)


# ---------------------------------------------------------------------------
# The black-box sampling estimator
# ---------------------------------------------------------------------------

DEFAULT_RADII = (Fraction(1, 1000), Fraction(1, 10000), Fraction(1, 100000))


def _evaluate(f, coords):
    if hasattr(f, "exact"):
        return f.exact(coords)
    return f(coords)


def kappa_sampled(
    f,
    x: RelPoint,
    radii: Sequence = DEFAULT_RADII,
    n_dirs: int = 200,
    seed: int = 0,
) -> ConditionReport:
    """Estimate kappa by probing the ball of each radius in the schedule.

    For each radius the estimator takes the sup of the measured distance
    ratio over sampled points: coordinate-axis probes, random directions,
    and one refined direction aligned with the top singular direction of
    the probe-estimated local map (all measured exactly at distance ~r).
    The schedule must be decreasing; the estimate is accepted when the
    last two levels agree within 1%, otherwise the max is reported with
    ``converged=False``.  Sign-pattern breaks and blow-ups surface as an
    infinite estimate.
    """
    radii = [Fraction(r) if not isinstance(r, Fraction) else r for r in radii]
    fx_coords = _evaluate(f, x.coords)
    fx = RelPoint(fx_coords)
    chi = x.chi()
    m = len(chi)
    failures = 0
    estimates: list[ExtReal] = []
    for level, r in enumerate(radii):
        best: ExtReal = Fraction(0)
        probe_logs: list[list[float]] = []

        def measure(y: RelPoint):
            nonlocal best, failures
            try:
                fy = RelPoint(_evaluate(f, y.coords))
            except (DomainError, ZeroDivisionError):
                failures += 1
                return None
            dxy = rel_dist(x, y)
            if dxy == 0 or dxy == math.inf:
                return None
            dff = rel_dist(fx, fy)
            ratio = math.inf if dff == math.inf else dff / dxy
            if ratio > best:
                best = ratio
            return fy

        # axis probes double as local-map estimation
        for i in chi:
            fy = measure(rel_step(x, [1], r, (i,)))
            if fy is not None and fy.pattern == fx.pattern:
                col = [
                    _float_log_ratio(a, b) / float(r)
                    for a, b in zip(fy.coords, fx.coords)
                ]
                probe_logs.append(col)
            measure(rel_step(x, [1], -r, (i,)))
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
                measure(rel_step(x, wfr, r, chi))
                measure(rel_step(x, wfr, -r, chi))
        estimates.append(best)

    if not estimates:
        return ConditionReport.make(Fraction(0), "sampled", x, converged=False)
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
