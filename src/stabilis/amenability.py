"""Amenability probes, the condition-gradient criterion, and excess factors.

Amenability of a function at a point asks two things of the ball of
radius 1/(a * kappa_tilde) around it: the ball stays inside the domain
(A.1) and the condition number grows by at most the factor a inside it
(A.2).  The probe checks both on sampled points, unless a certified bound
on the condition number over a box holding the ball passes them all, and
returns a self-certifying witness on failure.

The numerical excess factor of a decomposition f = g o h,

    kappa_tilde(g, h(x)) * kappa_tilde(h, x) / kappa_tilde(g o h, x),

is the quantity whose growth predicts unstable compositions; the product
in the numerator always dominates the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

from .catalog import CatalogFunction, Product, Sin, Summation, _rational, _sqrt_mid, compose, sin_enclosures
from .condition import ConditionReport, ExtReal, kappa_closed_form, kappa_inside
from .reals import Interval, PrecisionError, _over_lcm, real_sign, refine
from .relmetric import RelPoint, ball_box, rel_samples, sample_bits


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
    fails first for every function in the catalog: the samples of
    :func:`rel_sphere_sample`, then those of :func:`rel_ball_sample`, drawn
    one at a time from :func:`rel_samples`.  A.1 is decided by
    ``f.in_domain`` alone, so a point's one evaluation is ``kappa_fn``, by
    default the closed form without a second domain check.
    The first violation is returned as a witness; re-evaluating the witness
    reproduces it, and no sample after it is drawn.

    With the default closed form, a rational x, an f defined everywhere and
    a radius of at most 1, the samples are first decided together at low
    width: every one passes, and none is built, when 1 + ``f.kappa_upper``
    of a box holding the whole ball (:func:`ball_box`) is at most a*kt,
    which any such f that runs on boxes can show (``sin`` cannot).
    Otherwise each sample is built and checked exactly, so every verdict,
    witness and count is bit for bit that of checking every point exactly.
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("the amenability constant must be positive")
    if n < 1:
        raise ValueError("the probe needs at least one sample")
    certify = False
    if kappa_fn is None:
        kt_x = kappa_closed_form(f, x).kappa_tilde
        kappa_fn = lambda pt: kappa_inside(f, pt)
        certify = not f.restricts and _rational(x.coords)
    else:
        kt_x = kappa_fn(x).kappa_tilde
    if kt_x == math.inf:
        raise ValueError("amenability is probed only where kappa_tilde is finite")
    bound = a * Fraction(kt_x)
    radius = 1 / bound
    if certify and radius <= 1:
        upper = f.kappa_upper(ball_box(x, radius, sample_bits(x, radius)))
        if upper is not None and 1 + upper <= bound:
            return AmenabilityVerdict(a, True, True, None, n, kt_x)
    n_boundary = n // 2
    samples = chain(rel_samples(x, radius, n_boundary, seed, sphere=True),
                    rel_samples(x, radius, n - n_boundary, seed, sphere=False))
    for used, y in enumerate(samples, 1):
        if not f.in_domain(y.coords):
            return AmenabilityVerdict(a, False, True, y, used, kt_x)
        kt_y = kappa_fn(y).kappa_tilde
        if kt_y == math.inf or kt_y > bound:
            return AmenabilityVerdict(a, True, False, y, used, kt_x, kt_y)
    return AmenabilityVerdict(a, True, True, None, n, kt_x)


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


def gradient_criterion(f: CatalogFunction, x: RelPoint, q) -> bool:
    """Check  ||(x_i d(kappa)/dx_i)_i||_2  <=  q * kappa_tilde^2  at x.

    Supported for the functions whose condition number has a smooth
    hand-coded formula: product, summation, and sin.  Product and
    summation are decided exactly; sin refines enclosures from the width
    at which the sign of sin x is settled (ValueError when none settles
    it: kappa is infinite) until the comparison is decided, and raises
    PrecisionError at a tie.
    """
    q = Fraction(q)
    if isinstance(f, Product):
        # kappa is locally constant, so its gradient vanishes
        return q >= 0
    if isinstance(f, Summation):
        # over one denominator x_i = n_i/D, with s = sum n_i and N = sum n_i^2,
        # x_i d(kappa)/dx_i = sgn(s) n_i (n_i s - N) / (sqrt(N) s^2), so the
        # left side squared is W/(N s^4) and the right side q (sqrt(N)/|s| + 1)^2
        if not _rational(x.coords):
            raise TypeError("the summation gradient requires exact rational coordinates")
        ns, _ = _over_lcm(x.coords)
        s = sum(ns)
        if s == 0:
            raise ValueError("kappa is infinite at this point")
        N = sum(n * n for n in ns)
        W = sum(n * n * (n * s - N) ** 2 for n in ns)
        a, b = q.numerator, q.denominator
        if a <= 0:
            return a == 0 and W == 0
        # squared and times s^4 b^2: L <= 4 N a^2 sqrt(N) |s| (N + s^2), where
        # (sqrt(N) + |s|)^4 = N^2 + 6 N s^2 + s^4 + 4 sqrt(N) |s| (N + s^2)
        L = W * b * b - N * a * a * (N * N + 6 * N * s * s + s**4)
        return L <= 0 or L * L <= 16 * N**3 * a**4 * (N + s * s) ** 2 * s * s
    if isinstance(f, Sin):
        xv = x.coords[0]
        if real_sign(xv) == 0:
            return q >= 0  # kappa is 0 on the component {0}
        try:
            start = sin_enclosures(xv)[0]
        except PrecisionError:
            raise ValueError("kappa is infinite at this point") from None
        if q <= 0:
            # x d(kappa)/dx = x (sin 2x / 2 - x) / sin^2 x is nonzero for x != 0
            return False

        def decide_sin(w: int) -> bool | None:
            b, xi, s, c = sin_enclosures(xv, w)
            kappa_iv = (xi * c).divide(s, b)  # Sin.kappa_closed's enclosure
            # x d(kappa)/dx = x cos/sin - x^2/sin^2  (up to the sign of kappa)
            x_over_s = xi.divide(s, b)
            lhs = abs(kappa_iv - (x_over_s * x_over_s).rescale(b))
            kt_iv = abs(kappa_iv) + Interval.from_fraction(1, b)
            rhs = ((kt_iv * kt_iv).rescale(b) * Interval.from_fraction(q, b)).rescale(b)
            # both at scale b
            if lhs.hi <= rhs.lo:
                return True
            return False if lhs.lo > rhs.hi else None

        return refine(decide_sin, start, "the gradient criterion")
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
