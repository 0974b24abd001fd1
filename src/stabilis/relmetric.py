"""The coordinatewise relative-error metric on R^d.

The metric topology splits R^d into 3^d components indexed by sign
pattern; distance is finite only within a component and equals the
Euclidean combination of per-coordinate |log| ratios.  Distances are
computed from exact coordinate ratios through certified log enclosures
(default resolution 192 bits), so they are never the dominant error
source in stability measurements.

Samples are relative steps (:func:`rel_step`) at :func:`sample_bits`,
drawn lazily and deterministically (:func:`step_stream`): step ``i`` of
a run draws from a Philox stream with ``key=seed`` and ``counter=[0, 0,
kind, i]`` (kind 0 for ball samples, 1 for boundary samples), so runs
parallelize without coordination.  :func:`rel_samples` builds the points;
a caller that can decide a step from its factors' enclosures
(:func:`factor_bounds`, :meth:`RelPoint.box`) need not build it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .fpcore import FpNumber
from .reals import (
    CertifiedReal,
    ExactReal,
    Interval,
    _sum_sq,
    as_interval,
    exp_ends,
    exp_iv,
    log_ends,
    log_iv,
    nth_root_fraction,
    real_sign,
    signed_interval,
    sqrt_iv,
    sqrt_ratio_iv,
    to_real,
)

DIST_BITS = 192
SAMPLE_BITS = 192  # the least width of a sampled step's factors
SPHERE_INSET = Fraction(1, 2**64)  # sphere samples sit this relative fraction inside the radius
BOX_BITS = 80  # the width of ball_box's factor enclosures

SignPattern = tuple[int, ...]
ExtDist = Union[Fraction, float]  # exact-rational midpoint, or math.inf


class DimensionMismatch(ValueError):
    pass


class InfiniteDistanceError(ValueError):
    pass


def _coerce(v) -> ExactReal:
    if isinstance(v, FpNumber):
        return v.to_fraction()
    return to_real(v)


class RelPoint:
    """A point of R^d together with its sign pattern (component label)."""

    __slots__ = ("coords", "pattern")

    def __init__(self, coords: Sequence):
        cs = tuple(_coerce(c) for c in coords)
        self.coords = cs
        self.pattern: SignPattern = tuple(real_sign(c) for c in cs)

    @staticmethod
    def of(*values) -> "RelPoint":
        return RelPoint(values)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def chi(self) -> tuple[int, ...]:
        """Indices of the nonzero coordinates."""
        return tuple(i for i, s in enumerate(self.pattern) if s != 0)

    def scaled(self, chi: Sequence[int], factors: Sequence[tuple[int, int]]) -> "RelPoint":
        """The point with coordinate chi[k] multiplied by factors[k] = (m, e),
        the dyadic m * 2**e > 0, and every other coordinate kept.

        Positive factors keep every sign, so the point has this one's
        pattern and its coordinates need no coercion or sign decision.  A
        rational coordinate is built in one normalisation.
        """
        coords = list(self.coords)
        for i, (m, e) in zip(chi, factors):
            c = coords[i]
            if isinstance(c, Fraction):
                coords[i] = Fraction(c.numerator * m << max(e, 0), c.denominator << max(-e, 0))
            else:
                coords[i] = c * Fraction(m << max(e, 0), 1 << max(-e, 0))
        out = object.__new__(RelPoint)
        out.coords = tuple(coords)
        out.pattern = self.pattern
        return out

    def box(self, chi: Sequence[int], factors: Iterable[Interval]) -> list[Interval]:
        """Enclosures of the coordinates of ``scaled(chi, M)`` for every M with
        each 0 < M[k] in ``factors[k]``, when the coordinates are rational.

        A rational times an Interval is rounded outward at the Interval's
        scale.  Every other coordinate is kept, enclosed at BOX_BITS.
        """
        out: list = list(self.coords)
        for i, factor in zip(chi, factors):  # Fraction.__mul__ would first refuse the Interval
            out[i] = factor.__rmul__(out[i])
        return [c if isinstance(c, Interval) else Interval.from_fraction(c, BOX_BITS) for c in out]

    def same_component(self, other: "RelPoint") -> bool:
        return self.pattern == other.pattern

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        vals = ", ".join(f"{float(c):.6g}" for c in self.coords)
        return f"RelPoint({vals})"


# A squared log, or a sum of them, is an integer pair (lo, hi): the
# enclosure [lo, hi] * 2**-(2 * bits + 16) for the distance's ``bits``.
SqPair = tuple[int, int]


def _log_sq(n: int, d: int, bits: int) -> SqPair | None:
    """Enclosure of log(n/d)**2 for positive integers n, d; None when n == d.

    The ratio is reduced first, as Fraction(n, d) would give it: ``log_ends``
    reduces its argument by the bit lengths of numerator and denominator.
    The square and its outward rounding are those of ``Interval``.
    """
    if n == d:
        return None
    g = math.gcd(n, d)
    lo, hi, s = log_ends(n // g, d // g, bits)
    if lo >= 0:
        a, b = lo * lo, hi * hi
    elif hi <= 0:
        a, b = hi * hi, lo * lo
    else:
        a, b = lo * hi, max(lo * lo, hi * hi)
    k = 2 * (s - bits) - 16
    return a >> k, -(-b >> k)


def _log_ratio_sq(x: ExactReal, y: ExactReal, bits: int) -> SqPair | None:
    """Enclosure of log(x/y)**2 for same-sign nonzero x, y; None if zero."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return _log_sq(abs(x.numerator * y.denominator), abs(y.numerator * x.denominator), bits)
    ix = signed_interval(x, bits + 8)
    iy = signed_interval(y, bits + 8)
    if ix.sign() < 0:
        ix, iy = -ix, -iy
    ratio_iv = ix.divide(iy, bits + 8)
    lg = log_iv(ratio_iv, bits)
    sq = (lg * lg).rescale(2 * bits + 16)
    return sq.lo, sq.hi


def _root_sum(sqs: Iterable[SqPair | None], bits: int) -> Interval | None:
    """sqrt_iv of the pairs' sum (the Nones skipped); None when there is
    nothing to add."""
    lo = hi = 0
    seen = False
    for sq in sqs:
        if sq is not None:
            lo += sq[0]
            hi += sq[1]
            seen = True
    return sqrt_iv(Interval(max(lo, 0), hi, 2 * bits + 16), bits) if seen else None


def rel_dist(x: RelPoint, y: RelPoint, bits: int = DIST_BITS) -> ExtDist:
    """Distance in the coordinatewise relative-error metric.

    Returns an exact-rational midpoint of a certified enclosure (or
    ``math.inf`` across components).  Identical points give exactly 0.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} != {y.dim}")
    if x.pattern != y.pattern:
        return math.inf
    iv = _root_sum((_log_ratio_sq(x.coords[i], y.coords[i], bits) for i in x.chi()), bits)
    return Fraction(0) if iv is None else iv.midpoint()


def abs_dist(x: RelPoint, y: RelPoint) -> Fraction:
    """Euclidean (Frobenius) distance, for absolute-error comparisons; the
    squared differences of rational coordinates are summed exactly."""
    bits = DIST_BITS
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} != {y.dim}")
    exact: list[Fraction] = []
    sqs: list[SqPair] = []
    for a, b in zip(x.coords, y.coords):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            exact.append(a - b)
        else:
            d = as_interval(a, bits + 8) - as_interval(b, bits + 8)
            sq = (d * d).rescale(2 * bits + 16)
            sqs.append((sq.lo, sq.hi))
    q = _sum_sq(exact)
    if not sqs:
        return q if q == 0 else sqrt_ratio_iv(q.numerator, q.denominator, bits).midpoint()
    qiv = Interval.from_fraction(q, 2 * bits + 16)
    sqs.append((qiv.lo, qiv.hi))
    return _root_sum(sqs, bits).midpoint()


def scaled_dists(xs: Sequence[int], ys: Sequence[int], scale: int) -> tuple[Interval | float | None, Interval | None]:
    """The enclosures of :func:`rel_dist` and :func:`abs_dist`, whose midpoints
    those return, for the points xs * 2**scale and ys * 2**scale.

    Integer vectors on one binary scale need no Fraction: the ratios are
    the integers' own, and the squared differences sum to an integer.  The
    relative distance is ``math.inf`` across components; either enclosure
    is None where the distance is exactly 0.
    """
    if len(xs) != len(ys):
        raise DimensionMismatch(f"dimension mismatch: {len(xs)} != {len(ys)}")
    bits = DIST_BITS
    if any((a > 0) - (a < 0) != (b > 0) - (b < 0) for a, b in zip(xs, ys)):
        rel: Interval | float | None = math.inf
    else:
        rel = _root_sum((_log_sq(abs(a), abs(b), bits) for a, b in zip(xs, ys) if a), bits)
    num = sum((a - b) * (a - b) for a, b in zip(xs, ys))
    if not num:
        return rel, None
    k = 2 * scale
    return rel, sqrt_ratio_iv(num << k, 1, bits) if k >= 0 else sqrt_ratio_iv(num, 1 << -k, bits)


def geodesic_point(x: RelPoint, y: RelPoint, s) -> RelPoint:
    """Point at parameter s on the minimizing geodesic from x to y.

    Coordinatewise log-linear interpolation ``z_i = x_i (y_i/x_i)**s``;
    exact rationals are preserved whenever the power is rational.
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dimension mismatch: {x.dim} != {y.dim}")
    if not x.same_component(y):
        raise InfiniteDistanceError("no geodesic between different components")
    sf = to_real(s)
    if not isinstance(sf, Fraction) or not (0 <= sf <= 1):
        raise ValueError("geodesic parameter must be a rational in [0, 1]")
    if sf == 0:
        return x
    if sf == 1:
        return y
    coords = []
    for i, (a, b) in enumerate(zip(x.coords, y.coords)):
        if x.pattern[i] == 0:
            coords.append(Fraction(0))
            continue
        coords.append(_interp(a, b, sf))
    return RelPoint(coords)


def _interp(a: ExactReal, b: ExactReal, s: Fraction) -> ExactReal:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        ratio = b / a
        if ratio == 1:
            return a
        root = nth_root_fraction(abs(ratio), s.denominator)
        if root is not None:
            return a * root**s.numerator

    def fn(nbits: int) -> Interval:
        ia = signed_interval(a, nbits + 16)
        ib = signed_interval(b, nbits + 16)
        neg = ia.sign() < 0
        if neg:
            ia, ib = -ia, -ib
        ratio_iv = ib.divide(ia, nbits + 16)
        lg = log_iv(ratio_iv, nbits + 16)
        w = (lg * Interval.from_fraction(s, nbits + 16)).rescale(nbits + 16)
        e = exp_iv(w, nbits + 16)
        out = ia * e
        return -out if neg else out

    return CertifiedReal(fn)


# ---------------------------------------------------------------------------
# Seeded sampling in metric balls
# ---------------------------------------------------------------------------


def philox_stream(seed: int) -> Callable[[Sequence[int]], np.random.Generator]:
    """``at(counter)``: one shared generator, reset to the state of a new
    ``Philox(key=seed, counter=counter)``, so it draws that stream bit for bit
    (Salmon et al., SC'11) without the cost of building one."""
    bg = np.random.Philox(key=seed & ((1 << 128) - 1))
    gen = np.random.Generator(bg)
    state = bg.state

    def at(counter: Sequence[int]) -> np.random.Generator:
        state["state"]["counter"] = np.array(counter, dtype=np.uint64)
        bg.state = state
        return gen

    return at


def _direction(gen: np.random.Generator, d: int) -> list[float]:
    """A standard-normal direction in R^d, redrawn until it is nonzero."""
    while True:
        v = gen.standard_normal(d).tolist()
        if any(v):
            return v


def step_enclosures(v: Sequence, rho, bits: int) -> list[Interval]:
    """Enclosures of the factors exp(rho * v_i / ||v||) of a relative step of length rho along v.

    Scaling x_i by the factors moves x a relative distance rho along the
    direction v (floats, ints or Fractions, not all zero).  Each enclosure
    is ``exp_iv(w_i, bits)`` for

        w_i = Interval.from_fraction(rho * v_i, bits).divide(sqrt_iv(sum v^2, bits), bits),

    computed in integers with v at one common denominator.  When the
    largest |v_i| lies in [2**top, 2**(top+1)) with top outside [-32, 32],
    v is first divided by 2**top, so that the floors keep their precision:
    only the direction of v matters.  The quotient's two floors are taken
    here, and ``reals.exp_ends`` reduces and sums the series straight from
    them, with no Interval built but its result.
    """
    ratios = [c.as_integer_ratio() for c in v]
    den = math.lcm(*(d for _, d in ratios))
    ns = [a * (den // d) for a, d in ratios]
    if not any(ns):
        raise ValueError("a relative step needs a nonzero direction")
    big = max(abs(a) for a in ns)
    top = big.bit_length() - den.bit_length()
    top -= (big << max(-top, 0)) < (den << max(top, 0))
    if top > 32:
        den <<= top
    elif top < -32:
        ns = [a << -top for a in ns]
    p, q = rho.as_integer_ratio()
    # the norm's enclosure is [r, r + 1] * 2**-(bits + 16); each end of the
    # quotient is floored outward by the divisor's far end, as divide does
    r = sqrt_ratio_iv(sum(a * a for a in ns), den * den, bits).lo
    out = []
    for a in ns:
        lo, rem = divmod((p * a) << bits, q * den)
        hi = lo + (rem != 0)
        out.append(exp_ends((lo << (bits + 16)) // (r + 1 if lo >= 0 else r),
                            -((-hi << (bits + 16)) // (r if hi >= 0 else r + 1)), bits))
    return out


def step_factors(v: Sequence, rho, bits: int) -> list[tuple[int, int]]:
    """The midpoints of :func:`step_enclosures`, each an exact dyadic (m, e)
    of value m * 2**e > 0."""
    return [(e.lo + e.hi, -e.scale - 1) for e in step_enclosures(v, rho, bits)]


def step_midpoint_error(v: Sequence[float], bits: int) -> int:
    """k such that each midpoint of ``step_factors(v, rho, bits)`` lies within
    2**-k of its factor exp(w_i), for float directions v, |rho| <= 1 and
    bits >= 64.

    Let top be the binade of the largest |v_i|, s the norm of v as
    :func:`step_enclosures` rescales it, and b = bits: s >= 2**-lost, with
    lost = -top when -32 <= top < 0 and 0 otherwise.  The enclosure of rho * v_i is 2**-b wide and that of s 2**-(b+16), so
    w_i's is below 2**-b * (2 + 2.001/s) after the two outward floors.
    ``exp_ends`` works at W = b + 32 on those floors: for |w| < 1/4 it sums
    the series at their midpoint, and otherwise it first reduces w by n =
    -1, 0 or 1 multiples of ln 2 (|w| <= 1), whose enclosure is far below
    2**-W wide.  Its error is 1 + 6j + 8 ulps of 2**-W for the j <= 4W
    series terms (below 2**-b in all), plus 3 times the reduced argument's
    half-width, then scaled by 2**n <= 2.  The midpoint's distance, half the
    enclosure's width, is thus below 2**-b * (8 + 6.003/s) < 2**(4 - b + lost);
    k keeps one bit more.
    """
    top = math.frexp(max(abs(c) for c in v))[1] - 1
    return bits - 5 - (-top if -32 <= top < 0 else 0)


def factor_bounds(v: Sequence[float], rho, low: int, full: int) -> list[Interval]:
    """Enclosures at ``low`` bits of the factors M_i that ``step_factors(v, rho,
    full)`` gives, for float directions v, |rho| <= 1, low >= 32 and full >= 64.

    Each is the enclosure of exp(w_i) by ``step_enclosures(v, rho, low)``
    with both ends moved out by 2**-k, k = ``step_midpoint_error(v, full)``
    (by one unit of its scale where that is coarser).  An enclosure holds
    exp(w_i) at any width, and M_i, the midpoint of the one at ``full``
    bits, lies within 2**-k of exp(w_i); so the widened enclosure holds
    M_i.  A decision that holds on all of it holds at M_i, which need not
    be computed.  The factors exceed e**-1, far above the widening, so the
    lower ends stay positive.
    """
    k = step_midpoint_error(v, full)
    out = []
    for e in step_enclosures(v, rho, low):
        pad = 1 << max(e.scale - k, 0)
        out.append(Interval(e.lo - pad, e.hi + pad, e.scale))
    return out


def rel_step(x: RelPoint, v: Sequence, rho, chi: Sequence[int] | None = None,
             bits: int = SAMPLE_BITS) -> RelPoint:
    """x moved a relative distance rho along v, which spans the coordinates chi.

    chi defaults to the nonzero coordinates of x; :meth:`RelPoint.scaled`
    applies the factors of :func:`step_factors` at ``bits``.
    """
    return x.scaled(x.chi() if chi is None else chi, step_factors(v, rho, bits))


def ball_box(x: RelPoint, r: Fraction, bits: int) -> list[Interval]:
    """Enclosures of the coordinates of every ``rel_step(x, v, rho, x.chi(), bits)``
    with float v and |rho| <= r <= 1, for x of rational coordinates.

    Each factor lies within 2**-k of exp(w) for some |w| <= |rho|, k the
    least :func:`step_midpoint_error` at ``bits`` over all directions (the
    one of a largest |v_i| in [2**-32, 2**-31)); so it lies in [exp(-r),
    exp(r)] widened by 2**-k.
    """
    lo, hi = exp_iv(-r, BOX_BITS), exp_iv(r, BOX_BITS)
    s = max(lo.scale, hi.scale)
    pad = 1 << max(s - step_midpoint_error([2.0**-32], bits), 0)
    return x.box(x.chi(), repeat(Interval(lo.rescale(s).lo - pad, hi.rescale(s).hi + pad, s)))


def sample_bits(x: RelPoint, r: Fraction) -> int:
    """The width of the factors that step x by relative distances up to r > 0:
    at least SAMPLE_BITS, and 80 bits below both r and the largest
    certified-real coordinate's magnitude.  A step factor's error is then far
    below r, and a step resolves the low bits of a huge certified coordinate
    (at 192 bits every step of x = pi*2^k + 1 would land on a multiple of pi
    plus 1).  A step of a rational coordinate is an exact product."""
    inv_r = -(-r.denominator // r.numerator)  # ceil(1/r): 2^k >= 1/r exactly when 2^k >= inv_r
    return max([SAMPLE_BITS, 80 + (inv_r - 1).bit_length()]
               + [c.enclosure(0).mag_bits() + 80 for c in x.coords if isinstance(c, CertifiedReal)])


def step_stream(d: int, r: Fraction, n: int, seed: int,
                sphere: bool) -> Iterator[tuple[list[float] | None, Fraction]]:
    """The (direction, length) of each of n relative steps in R^d (d >= 1) of
    at most r, in order and lazily: a reader that stops early draws no further.

    Step i draws from a Philox stream with key ``seed`` at counter [0, 0, 1, i]
    on the sphere, where its length rho is r shrunk by SPHERE_INSET, and at
    [0, 0, 0, i] in the ball, where rho is uniform in [0, r).  Its direction
    is standard normal, drawn only for rho > 0 (None otherwise).
    """
    at = philox_stream(seed)
    inset = r * (1 - SPHERE_INSET)
    for i in range(n):
        gen = at([0, 0, int(sphere), i])
        rho = inset if sphere else r * Fraction(int(gen.integers(0, 2**53)), 2**53)
        yield (_direction(gen, d) if rho else None), rho


def rel_samples(x: RelPoint, r: Fraction, n: int, seed: int, sphere: bool) -> Iterator[RelPoint]:
    """The n points of :func:`rel_sphere_sample` (sphere) or
    :func:`rel_ball_sample` of radius r around x, in order and lazily: x
    stepped by each step of :func:`step_stream` over its nonzero
    coordinates, at :func:`sample_bits` (x itself for a step of length 0).
    Every sample is x when x is all zero or r is 0.
    """
    chi = x.chi()
    if not chi or not r:
        yield from repeat(x, n)
        return
    bits = sample_bits(x, r)
    for v, rho in step_stream(len(chi), r, n, seed, sphere):
        yield rel_step(x, v, rho, chi, bits) if rho else x


def rel_ball_sample(x: RelPoint, r, n: int, seed: int) -> list[RelPoint]:
    """n points of the closed relative-metric ball of radius r around x.

    Construction: a standard-normal direction on the nonzero support, a
    radius uniform in [0, r), and coordinatewise exponential scaling at
    :func:`sample_bits` of the radius r (:func:`rel_samples`).
    Deterministic for a given seed; the ball around an all-zero point is
    the point itself.
    """
    rf = to_real(r)
    if not isinstance(rf, Fraction) or rf < 0:
        raise ValueError("ball radius must be a finite nonnegative rational")
    return list(rel_samples(x, rf, n, seed, sphere=False))


def rel_sphere_sample(x: RelPoint, r, n: int, seed: int) -> list[RelPoint]:
    """n points at relative distance ~r (shrunk by SPHERE_INSET to stay
    inside), stepped at :func:`sample_bits` (:func:`rel_samples`)."""
    rf = to_real(r)
    if not isinstance(rf, Fraction) or rf <= 0:
        raise ValueError("sphere radius must be a positive rational")
    return list(rel_samples(x, rf, n, seed, sphere=True))
