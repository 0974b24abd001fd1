"""Amenability probes, the condition-gradient criterion, and excess factors.

Amenability of a function at a point asks two things of the ball of
radius 1/(a * kappa_tilde) around it: the ball stays inside the domain
(A.1) and the condition number grows by at most the factor a inside it
(A.2).  The probe checks both empirically on sampled points and returns
a self-certifying witness on failure.

The numerical excess factor of a decomposition f = g o h,

    kappa_tilde(g, h(x)) * kappa_tilde(h, x) / kappa_tilde(g o h, x),

is the quantity whose growth predicts unstable compositions; the product
in the numerator always dominates the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .catalog import CatalogFunction, Product, Sin, Summation, _sqrt_mid, _sum_sq, compose
from .condition import ConditionReport, ExtReal, kappa_closed_form
from .reals import Interval, cos_iv, refine, relative_interval, sin_iv, sqrt_iv
from .relmetric import RelPoint, rel_ball_sample, rel_sphere_sample


@dataclass
class AmenabilityVerdict:
    """Outcome of probing the amenability clauses at one point."""

    a_candidate: Fraction
    A1_ok: bool
    A2_ok: bool
    witness: RelPoint | None
    samples_used: int
    kappa_tilde_at_x: ExtReal
    witness_kappa_tilde: ExtReal | None = None

    @property
    def passed(self) -> bool:
        return self.A1_ok and self.A2_ok


def amenability_probe(
    f: CatalogFunction,
    kappa_fn: Callable[[RelPoint], ConditionReport] | None,
    x: RelPoint,
    a,
    n: int,
    seed: int,
) -> AmenabilityVerdict:
    """Sample the radius-1/(a*kt) ball and check clauses A.1 and A.2.

    Half of the points sit at the ball boundary, where the growth clause
    fails first for every function in the catalog.  A.1 is decided by
    ``f.in_domain`` alone, so a point's one evaluation is ``kappa_fn``.  The
    first violation is returned as a witness; re-evaluating the witness
    reproduces it.
    """
    if kappa_fn is None:
        kappa_fn = lambda pt: kappa_closed_form(f, pt)
    a = Fraction(a)
    if a <= 0:
        raise ValueError("the amenability constant must be positive")
    kt_x = kappa_fn(x).kappa_tilde
    if kt_x == math.inf:
        raise ValueError("amenability is probed only where kappa_tilde is finite")
    radius = 1 / (a * Fraction(kt_x))
    n_boundary = n // 2
    points = rel_sphere_sample(x, radius, n_boundary, seed)
    points += rel_ball_sample(x, radius, n - n_boundary, seed)
    bound = a * Fraction(kt_x)
    used = 0
    for y in points:
        used += 1
        if not f.in_domain(y.coords):
            return AmenabilityVerdict(a, False, True, y, used, kt_x)
        kt_y = kappa_fn(y).kappa_tilde
        if kt_y == math.inf or kt_y > bound:
            return AmenabilityVerdict(a, True, False, y, used, kt_x, kt_y)
    return AmenabilityVerdict(a, True, True, None, used, kt_x)


def smallest_passing_constant(
    f: CatalogFunction,
    x: RelPoint,
    n: int = 200,
    seed: int = 0,
    grid: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
) -> Fraction | None:
    """Sweep the constant grid and report the smallest passing value."""
    for a in grid:
        if amenability_probe(f, None, x, Fraction(a), n, seed).passed:
            return Fraction(a)
    return None


# ---------------------------------------------------------------------------
# Gradient criterion
# ---------------------------------------------------------------------------


def _decide_le(lhs: Interval, rhs: Interval) -> bool | None:
    if lhs.upper() <= rhs.lower():
        return True
    if lhs.lower() > rhs.upper():
        return False
    return None


def gradient_criterion(f: CatalogFunction, x: RelPoint, q, bits: int = 160) -> bool:
    """Check  ||(x_i d(kappa)/dx_i)_i||_2  <=  q * kappa_tilde^2  at x.

    Supported for the functions whose condition number has a smooth
    hand-coded formula: product, summation, and sin.  The comparison is
    refined from ``bits`` up; when no width decides it, PrecisionError.
    """
    q = Fraction(q)
    if isinstance(f, Product):
        # kappa is locally constant, so its gradient vanishes
        return q > 0
    if isinstance(f, Summation):
        xs = x.coords
        if any(not isinstance(v, Fraction) for v in xs):
            raise TypeError("summation gradient needs rational coordinates")
        S = sum(xs)
        if S == 0:
            raise ValueError("kappa is infinite at this point")
        Q = _sum_sq(xs)
        if Q == 0:
            return True  # x = 0: kappa locally 0

        def decide_sum(b: int) -> bool | None:
            rQ = sqrt_iv(Q, b)  # ||x||_2
            # x_i d(kappa)/dx_i = x_i^2 / (|S| ||x||) - x_i ||x|| sgn(S)/S^2
            sgn = 1 if S > 0 else -1
            terms_sq = None
            for v in xs:
                t1 = Interval.from_fraction(v * v / abs(S), b + 16).divide(rQ, b + 16)
                t2 = (rQ.mul_int(sgn) * Interval.from_fraction(v / (S * S), b + 16)).rescale(b + 16)
                d = t1 - t2
                sq = (d * d).rescale(2 * b)
                terms_sq = sq if terms_sq is None else (terms_sq + sq).rescale(2 * b)
            lhs = sqrt_iv(terms_sq.clip_nonneg(), b)
            kappa_iv = rQ.divide(Interval.from_fraction(abs(S), b + 16), b + 16)
            kt_iv = kappa_iv + Interval.from_fraction(1, b + 16)
            rhs = ((kt_iv * kt_iv).rescale(b + 16) * Interval.from_fraction(q, b + 16)).rescale(b + 16)
            return _decide_le(lhs, rhs)

        return refine(decide_sum, bits, "the gradient criterion")
    if isinstance(f, Sin):
        xv = x.coords[0]

        def decide_sin(b: int) -> bool | None:
            xi = relative_interval(xv, b)
            s = sin_iv(xi, b)
            if s.sign() not in (-1, 1):
                raise ValueError("kappa is infinite at this point")
            c = cos_iv(xi, b)
            cot = c.divide(s, b)
            kappa_iv = xi * cot
            # x d(kappa)/dx = x cos/sin - x^2/sin^2  (up to the sign of kappa)
            x_over_s = xi.divide(s, b)
            lhs_iv = kappa_iv.rescale(b) - (x_over_s * x_over_s).rescale(b)
            lhs = abs(lhs_iv)
            kt_iv = abs(kappa_iv.rescale(b)) + Interval.from_fraction(1, b)
            rhs = ((kt_iv * kt_iv).rescale(b) * Interval.from_fraction(q, b)).rescale(b)
            return _decide_le(lhs, rhs)

        return refine(decide_sin, bits, "the gradient criterion")
    raise ValueError(f"no smooth condition-number formula registered for {f.id}")


# ---------------------------------------------------------------------------
# Excess factors
# ---------------------------------------------------------------------------


@dataclass
class ExcessFactorReport:
    """Per-factor breakdown of the numerical excess of a decomposition."""

    kt_g_at_hx: ExtReal
    kt_h_at_x: ExtReal
    kt_f_at_x: ExtReal
    excess: ExtReal | None  # None when the composite kappa is infinite

    @property
    def defined(self) -> bool:
        return self.excess is not None


def excess_factor(g: CatalogFunction, h: CatalogFunction, x: RelPoint) -> ExcessFactorReport:
    """kappa_tilde(g, h(x)) * kappa_tilde(h, x) / kappa_tilde(g o h, x)."""
    f = compose(g, h)
    hx = RelPoint(h.exact(x.coords))
    kt_h = kappa_closed_form(h, x).kappa_tilde
    kt_g = kappa_closed_form(g, hx).kappa_tilde
    kt_f = kappa_closed_form(f, x).kappa_tilde
    if kt_f == math.inf:
        return ExcessFactorReport(kt_g, kt_h, kt_f, None)
    if kt_g == math.inf or kt_h == math.inf:
        return ExcessFactorReport(kt_g, kt_h, kt_f, math.inf)
    return ExcessFactorReport(kt_g, kt_h, kt_f, Fraction(kt_g) * Fraction(kt_h) / Fraction(kt_f))


@dataclass
class StrassenExcessForms:
    """Displayed closed forms for the ill-conditioned Strassen family."""

    kappa_g12: Fraction
    kappa_entries: tuple[Fraction, Fraction, Fraction, Fraction]
    lower_bound: Fraction


def strassen_excess_closed_form(eps) -> StrassenExcessForms:
    """Condition values along the A = B = [[1, eps], [eps, 1]] family.

    ``kappa_g12`` is the condition number of the (1,2)-recombination at
    the seven products; the per-entry values treat each output entry as
    the summation of its two product terms (the summation-stage
    condition).  The excess factor of the decomposition is bounded below
    by ``1/(4 eps)``, exactly.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    g12 = _sqrt_mid((1 - eps) ** 2 + (1 + eps) ** 2) / (2 * eps)
    diag = _sqrt_mid(1 + eps**4) / (1 + eps**2)
    off = _sqrt_mid(2 * eps**2) / (2 * eps)
    return StrassenExcessForms(
        kappa_g12=g12,
        kappa_entries=(diag, off, off, diag),
        lower_bound=Fraction(1, 4) / eps,
    )
