"""Amenability probes, the condition-gradient criterion, and excess factors.

Amenability of a function at a point asks two things of the ball of
radius 1/(a * kappa_tilde) around it: the ball stays inside the domain
(A.1) and the condition number grows by at most the factor a inside it
(A.2).  The probe checks both on sampled points, unless a certified bound
on the condition number over a box holding the ball passes them all, and
returns a self-certifying witness on failure.

The condition-gradient criterion of every map with one output is one pass
on nested dual numbers and a sign test on integers or certified reals.

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

from .catalog import CatalogFunction, _rational, _sqrt_mid, compose, second_order
from .condition import ConditionReport, ExtReal, kappa_closed_form, kappa_inside
from .reals import PrecisionError, _over_lcm, real_sign
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

    With F = f(x), P_i = x_i df/dx_i and H_ik = x_i x_k d2f/dx_i dx_k from
    :func:`second_order`, x_i d(kappa)/dx_i = g_i/(|P| F |F|) for g_i = F
    (P_i^2 + (H P)_i) - P_i S2 and S2 = |P|^2: the criterion W = |g|^2 <= q^2
    S2 (sqrt(S2) + |F|)^4, of degree 6, is decided on integers or by refined
    certified signs (PrecisionError at a tie).  ValueError for several
    outputs (kappa is not smooth where singular values meet), where kappa is
    infinite (F is 0, or not told from 0, and P or H is not) and where it is
    not differentiable (P = 0 and H != 0).
    """
    if f.out_dim != 1:
        raise ValueError(f"{f.id} has several outputs: no smooth condition number")
    out = second_order(f, x.coords, {j: x.coords[j] for j in x.chi()})
    if out is None:
        raise ValueError(f"{f.id} has no derivative at this point")
    (F, p, h), = out
    m, hs = x.dim, [(j, k) for j, row in h.items() for k in row]
    vals = [F, *(p.get(j, Fraction(0)) for j in range(m)), *(h[j][k] for j, k in hs)]
    F, *vals = _over_lcm(vals)[0] if _rational(vals) else vals
    P, HP = vals[:m], [0] * m
    for (j, k), c in zip(hs, vals[m:]):
        HP[j] += c * P[k]
    S2 = sum(v * v for v in P)
    try:
        flat = real_sign(F) == 0
    except PrecisionError:  # f within rounding distance of 0
        flat = True
    s2 = real_sign(S2)
    if (flat and s2) or (not s2 and any(map(real_sign, vals[m:]))):
        raise ValueError("kappa is infinite or not differentiable at this point")
    W = sum((F * (v * v + hp) - v * S2) ** 2 for v, hp in zip(P, HP))
    a, b = Fraction(q).as_integer_ratio()
    if a <= 0:
        return a == 0 and real_sign(W) == 0
    # squared and times b^2: L <= 4 a^2 S2 sqrt(S2) |F| (S2 + F^2), where
    # (sqrt(S2) + |F|)^4 = S2^2 + 6 S2 F^2 + F^4 + 4 sqrt(S2) |F| (S2 + F^2)
    L = W * b * b - a * a * S2 * (S2 * S2 + 6 * S2 * F * F + F ** 4)
    return real_sign(L) <= 0 or real_sign(16 * a ** 4 * S2 ** 3 * (S2 + F * F) ** 2 * F * F - L * L) >= 0


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
