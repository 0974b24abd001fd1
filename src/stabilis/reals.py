"""Exact rationals and certified dyadic enclosures for irrational reals.

Two kinds of "exact real" circulate in this package:

* ``fractions.Fraction`` for values that are exactly rational, and
* :class:`CertifiedReal` for computable irrationals (pi, logs, square
  roots, sines, ...), represented by a generator that produces a dyadic
  interval guaranteed to contain the value at any requested resolution.

All interval arithmetic rounds outward, so enclosures are always valid;
callers that need more resolution simply re-evaluate with more bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, TypeVar, Union

T = TypeVar("T")


class PrecisionError(ArithmeticError):
    """An enclosure could not be refined enough to decide a predicate."""


# Every certified decision (a sign, a rounding, an inequality) doubles its
# working width at most this many times before it gives up.
REFINE_DOUBLINGS = 8


def refine(decide: Callable[[int], T | None], start: int, what: str) -> T:
    """Ziv's strategy: the first ``decide(start << k)`` that is not None.

    ``decide`` gets k = 0, 1, ..., REFINE_DOUBLINGS in turn.  When no width
    settles it, the value is an exact zero, tie or boundary carried as an
    enclosure (or too close to one), and a PrecisionError names ``what``
    could not be decided.
    """
    for k in range(REFINE_DOUBLINGS + 1):
        out = decide(start << k)
        if out is not None:
            return out
    raise PrecisionError(f"cannot decide {what} at {start << REFINE_DOUBLINGS} bits")


def _over_lcm(vals: Sequence[Fraction]) -> tuple[list[int], int]:
    """(numerators, denominator) of ``vals`` over their least common denominator.

    A sum of them is then one Fraction with one gcd, not a gcd per term.
    """
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _sum_sq(vals: Sequence[Fraction]) -> Fraction:
    """Sum of squares over one common denominator, with integer numerators."""
    nums, den = _over_lcm(vals)
    return Fraction(sum(n * n for n in nums), den * den)


# ---------------------------------------------------------------------------
# Dyadic intervals
# ---------------------------------------------------------------------------


def _shr_floor(a: int, k: int) -> int:
    return a >> k if k >= 0 else a << -k


def _shr_ceil(a: int, k: int) -> int:
    return -((-a) >> k) if k >= 0 else a << -k


class Interval:
    """Closed interval [lo, hi] * 2**-scale with integer endpoints."""

    __slots__ = ("lo", "hi", "scale")

    def __init__(self, lo: int, hi: int, scale: int):
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi
        self.scale = scale

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction | int, scale: int) -> "Interval":
        n, d = x.numerator, x.denominator
        if scale >= 0:
            n <<= scale
        else:
            d <<= -scale
        lo = n // d
        hi = lo if n % d == 0 else lo + 1
        return Interval(lo, hi, scale)

    # -- queries ------------------------------------------------------

    def midpoint(self) -> Fraction:
        return Fraction(self.lo + self.hi, 2 ** (self.scale + 1))

    def lower(self) -> Fraction:
        return Fraction(self.lo, 2**self.scale) if self.scale >= 0 else Fraction(self.lo << -self.scale)

    def upper(self) -> Fraction:
        return Fraction(self.hi, 2**self.scale) if self.scale >= 0 else Fraction(self.hi << -self.scale)

    def sign(self) -> int | None:
        """Certain sign of every point in the interval, or None if mixed."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 and self.hi == 0:
            return 0
        return None

    def mag_bits(self) -> int:
        """Upper bound on log2 of the magnitude (0 for the zero interval)."""
        m = max(abs(self.lo), abs(self.hi))
        return m.bit_length() - self.scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval({self.lo}, {self.hi}, 2^-{self.scale})"

    # -- arithmetic (outward) ------------------------------------------

    def rescale(self, scale: int) -> "Interval":
        if scale == self.scale:
            return self
        k = self.scale - scale
        return Interval(_shr_floor(self.lo, k), _shr_ceil(self.hi, k), scale)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.scale)

    # An int or Fraction operand c is rounded outward at this interval's own
    # scale, so ``exact`` of a rational map encloses the map over a box of
    # Intervals.  In ``__add__`` and ``__mul__`` the operand's kind is told by
    # the AttributeError alone, since an isinstance test would slow
    # Interval-with-Interval, the hot path; the reflected operators only
    # ever see other kinds.

    def __add__(self, other: "Interval | Fraction | int") -> "Interval":
        try:
            s = max(self.scale, other.scale)
        except AttributeError:
            return self.__radd__(other)
        a, b = self.rescale(s), other.rescale(s)
        return Interval(a.lo + b.lo, a.hi + b.hi, s)

    def __radd__(self, c: Fraction | int) -> "Interval":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return self + Interval.from_fraction(c, self.scale)

    def __sub__(self, other: "Interval | Fraction | int") -> "Interval":
        return self + (-other)

    def __rsub__(self, c: Fraction | int) -> "Interval":
        return (-self).__radd__(c)

    def __mul__(self, other: "Interval | Fraction | int") -> "Interval":
        try:
            cands = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
        except AttributeError:
            return self.__rmul__(other)
        return Interval(min(cands), max(cands), self.scale + other.scale)

    def __rmul__(self, c: Fraction | int) -> "Interval":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        p, q = c.numerator, c.denominator
        lo, hi = (self.lo * p, self.hi * p) if p >= 0 else (self.hi * p, self.lo * p)
        return Interval(lo // q, -(-hi // q), self.scale)

    def divide(self, other: "Interval", scale: int) -> "Interval":
        """self / other at the given result scale; other must exclude zero."""
        if other.hi < 0:
            return (-self).divide(-other, scale)
        if other.lo <= 0:
            raise ZeroDivisionError("interval divisor straddles zero")
        sh = scale + other.scale - self.scale
        lo, hi, dlo, dhi = self.lo, self.hi, other.lo, other.hi
        if sh >= 0:
            lo, hi = lo << sh, hi << sh
        else:
            dlo, dhi = dlo << -sh, dhi << -sh
        # the quotient is monotone in each endpoint: two divisions suffice
        return Interval(lo // (dhi if lo >= 0 else dlo), -((-hi) // (dlo if hi >= 0 else dhi)), scale)

    def scalb(self, k: int) -> "Interval":
        """Multiply by 2**k exactly."""
        return Interval(self.lo, self.hi, self.scale - k)

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi), self.scale)

    def clip_nonneg(self) -> "Interval":
        """Intersection with [0, oo), for enclosures of nonnegative values."""
        if self.lo < 0:
            return Interval(0, max(self.hi, 0), self.scale)
        return self

    def intersect(self, other: "Interval") -> "Interval":
        s = max(self.scale, other.scale)
        a, b = self.rescale(s), other.rescale(s)
        return Interval(max(a.lo, b.lo), min(a.hi, b.hi), s)


# ---------------------------------------------------------------------------
# Integer series cores
# ---------------------------------------------------------------------------
# Each core returns (S, E, scale) with |value * 2**scale - S| <= E.  They
# work on a dyadic midpoint plus an explicit half-width margin so interval
# inputs are handled by a single evaluation path.


def _arccot(k: int, scale: int, alternate: bool) -> tuple[int, int]:
    """(S, E) with |atan(1/k) * 2**scale - S| <= E, or the same for atanh(1/k)
    when not ``alternate``: the series sum (+-1)**j / ((2j + 1) k**(2j + 1)).

    E is 4 ulps per term: 4 for the floors of each term after the first, 2
    for the first, and 2 for the tail, which the first omitted term bounds.
    """
    k2 = k * k
    num = (1 << scale) // k
    total = num
    j = 1
    while num:
        num //= k2
        term = num // (2 * j + 1)
        total += -term if alternate and j % 2 else term
        j += 1
    return total, 4 * j


@lru_cache(maxsize=64)
def _pi_core(scale: int) -> tuple[int, int]:
    """Machin's formula: pi = 16 atan(1/5) - 4 atan(1/239)."""
    s5, e5 = _arccot(5, scale, True)
    s239, e239 = _arccot(239, scale, True)
    return 16 * s5 - 4 * s239, 16 * e5 + 4 * e239


@lru_cache(maxsize=64)
def _ln2_core(scale: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3)."""
    s, e = _arccot(3, scale, False)
    return 2 * s, 2 * e


def _constant_scale(bits: int) -> int:
    """The scale a constant is taken at for ``bits``: the first multiple of 64 >= ``bits`` + 64."""
    return ((bits + 63) // 64 + 1) * 64


def _constant_iv(core: Callable[[int], tuple[int, int]], bits: int) -> Interval:
    """A constant from its memoised core, at :func:`_constant_scale` of ``bits``."""
    scale = _constant_scale(bits)
    s, e = core(scale)
    return Interval(s - e, s + e, scale)


def pi_iv(bits: int) -> Interval:
    """Enclosure of pi with width below 2**-bits."""
    return _constant_iv(_pi_core, bits)


def ln2_iv(bits: int) -> Interval:
    return _constant_iv(_ln2_core, bits)


def _atanh_core(Z: int, W: int, hw: int) -> tuple[int, int]:
    """Enclosure of atanh(z) for z in [Z-hw, Z+hw] * 2**-W, |z| <= 0.4.

    Returns (S, E) at scale W.  The derivative of atanh on that range is
    below 1.2, so input uncertainty enters with a factor-2 margin.
    """
    absZ = abs(Z)
    if 5 * (absZ + hw) >= (1 << (W + 1)):
        raise ValueError("atanh argument out of range")
    Z2 = (absZ * absZ) >> W  # z^2 with <= 1 ulp slack, covered by err
    term = absZ
    total = absZ
    err = 1
    j = 1
    while term:
        term = (term * Z2) >> W
        total += term // (2 * j + 1)
        err += 6
        j += 1
    err += 4          # tail: ratio z^2 <= 0.16, so tail < remaining term
    err += 2 * hw + 2  # input half-width through the derivative bound
    return (total if Z >= 0 else -total), err


def log_iv(x: Union[Fraction, int, Interval], bits: int) -> Interval:
    """Enclosure of the natural logarithm of a positive value."""
    if isinstance(x, Interval):
        if x.sign() != 1:
            raise ValueError("log of a non-positive enclosure")
        lo = log_iv(x.lower(), bits)
        hi = log_iv(x.upper(), bits)
        s = max(lo.scale, hi.scale)
        lo, hi = lo.rescale(s), hi.rescale(s)
        return Interval(lo.lo, hi.hi, s)
    if x.numerator <= 0:
        raise ValueError("log of a non-positive value")
    return Interval(*log_ends(x.numerator, x.denominator, bits))


def log_ends(num: int, den: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, scale) of ``log_iv(Fraction(num, den), bits)``, for coprime
    positive integers num and den, in integers alone.

    With W = bits + 32, x = num/den is m * 2**e for m in (1/2, 4/3], and
    log x = 2 atanh((m - 1)/(m + 1)) + e ln 2: the atanh series at scale W,
    and e times the enclosure of ln 2 that ``ln2_iv(W + e.bit_length() + 4)``
    gives, added at that enclosure's finer scale.
    """
    W = bits + 32
    e = num.bit_length() - den.bit_length()
    # the bit lengths give m = x / 2**e in (1/2, 2); one more step where
    # m > 4/3 leaves m in (1/2, 4/3] (4/7 keeps e = 0), so the atanh
    # argument z = (m-1)/(m+1) has |z| < 1/3, inside _atanh_core's 0.4
    if e >= 0:
        if 3 * num > 4 * (den << e):
            e += 1
    else:
        if 3 * (num << -e) > 4 * den:
            e += 1
    if e >= 0:
        mn, md = num, den << e
    else:
        mn, md = num << -e, den
    s, err = _atanh_core(((mn - md) << W) // (mn + md), W, 1)
    lo, hi = 2 * (s - err), 2 * (s + err)
    if e == 0:
        return lo, hi, W
    scale = _constant_scale(W + e.bit_length() + 4)
    c, ce = _ln2_core(scale)
    k = scale - W
    if e > 0:
        return (lo << k) + e * (c - ce), (hi << k) + e * (c + ce), scale
    return (lo << k) + e * (c + ce), (hi << k) + e * (c - ce), scale


# ln 2 * 2**128 to within a few units: picks the reduction multiple of ln 2
_LN2_Q128 = _ln2_core(128)[0]


def _exp_enclosure(M: int, hw: int, W: int) -> Interval:
    """exp on [M - hw, M + hw] * 2**-W at scale W, for |M| + hw <= 0.75 * 2**W.

    The Taylor series at M, each term truncated from the last: 6 ulps per
    term, 8 for the tail (the remaining ratio is < 1/2), and the half-width
    via exp(y) <= e^0.75 < 2.2.  The package's one exp series.
    """
    term = total = 1 << W
    for j in range(1, 4 * W):
        term = ((term * M) >> W) // j
        if not term:
            break
        total += term
    else:  # pragma: no cover - safety net
        raise PrecisionError("exp series failed to converge")
    err = 1 + 6 * j + 8 + 3 * hw
    return Interval(total - err, total + err, W)


def _exp_reduced(lo: int, hi: int, scale: int, bits: int) -> Interval | None:
    """exp on [lo, hi] * 2**-scale with W = bits + 32, in integers; None when
    the reduced argument is too wide for the series (|y| > 0.75).

    x is reduced to y = x - n ln 2 for n = round(x / ln 2), taken from the
    midpoint against ln 2 to 128 bits (to 64 bits past x's magnitude beyond
    2**60).  n ln 2 is n times the enclosure ``ln2_iv(W + n.bit_length() +
    8)`` gives, and y is rounded outward to scale W.  When |x| < 1/4
    (``mag_bits`` <= -2), n is 0 by construction, since |x / ln 2| < 0.37,
    so the reduction is skipped: y is x at scale W.  exp(y) is summed by
    :func:`_exp_enclosure` and scaled by 2**n.
    """
    W = bits + 32
    mag = max(-lo, hi).bit_length() - scale
    n = 0
    if mag > -2:
        if mag <= 60:
            c, cs = _LN2_Q128, 128  # ln 2 ~ c * 2**-cs
        else:
            cs = _constant_scale(mag + 64)
            c = _ln2_core(cs)[0]
        k = cs - scale - 1  # mid / ln 2 ~ (lo + hi) * 2**k / c
        num, den = (lo + hi) << max(k, 0), c << max(-k, 0)
        n = (2 * num + den) // (2 * den)
    if n:
        cs = _constant_scale(W + n.bit_length() + 8)
        c, ce = _ln2_core(cs)
        nlo, nhi = (n * (c - ce), n * (c + ce)) if n > 0 else (n * (c + ce), n * (c - ce))
        top = max(scale, cs)
        lo = (lo << (top - scale)) - (nhi << (top - cs))
        hi = (hi << (top - scale)) - (nlo << (top - cs))
        scale = top
    lo, hi = _shr_floor(lo, scale - W), _shr_ceil(hi, scale - W)
    if lo < -(3 << (W - 2)) or hi > (3 << (W - 2)):
        return None
    out = _exp_enclosure((lo + hi) // 2, (hi - lo) // 2 + 1, W)
    return out.scalb(n) if n else out


def exp_iv(x: Union[Fraction, int, Interval], bits: int) -> Interval:
    """Enclosure of exp(x), by :func:`_exp_reduced` on x's endpoint integers.

    A rational x is first enclosed at bits + 32.  Where the reduced argument
    is too wide for the series, each endpoint is enclosed on its own.
    """
    if not isinstance(x, Interval):
        x = Interval.from_fraction(x, bits + 32)
    out = _exp_reduced(x.lo, x.hi, x.scale, bits)
    if out is None:
        lo = exp_iv(x.lower(), bits)
        hi = exp_iv(x.upper(), bits)
        s = max(lo.scale, hi.scale)
        return Interval(lo.rescale(s).lo, hi.rescale(s).hi, s)
    return out


def exp_ends(lo: int, hi: int, bits: int) -> Interval:
    """``exp_iv(Interval(lo, hi, bits), bits)``, with no Interval built but
    the result: :func:`_exp_reduced` works on the integers.  Only a reduced
    argument too wide for the series goes through exp_iv, for its endpoint
    split."""
    return _exp_reduced(lo, hi, bits, bits) or exp_iv(Interval(lo, hi, bits), bits)


def _sincos_taylor(M: int, W: int, kind: str) -> tuple[int, int]:
    """Taylor enclosure of sin or cos at the dyadic point M * 2**-W, |M*2^-W| <= 1.7."""
    M2 = (M * M) >> W
    odd = kind == "sin"  # sin sums the odd powers of the point, cos the even ones
    term = total = M if odd else 1 << W
    j = int(odd)
    err = 2
    while term:
        k = 2 * j + 1 - odd  # the term's power is k + 1
        term = -(((term * M2) >> W) // (k * (k + 1)))
        total += term
        err += 8
        j += 1
        if j > 4 * W:  # pragma: no cover
            raise PrecisionError("sin/cos series failed to converge")
    err += 8  # tail: next term ratio is below 1/2 for |M*2^-W| <= 1.7
    return total, err


def _sincos_iv(x: Union[Fraction, int, Interval], bits: int, kind: str) -> Interval:
    if not isinstance(x, Interval):
        x = Interval.from_fraction(x, bits + 32)
    xb = max(x.mag_bits(), 1)
    W = bits + xb + 48
    x = x.rescale(W)
    pi = pi_iv(W + 16)
    q = x.divide(pi, 64)
    n = (q.lo + q.hi + (1 << 64)) >> 65  # round midpoint of x/pi to nearest int
    piW = pi_iv(W + max(1, abs(n).bit_length()) + 16)
    r = (x - n * piW).rescale(W)
    hw = (r.hi - r.lo) // 2 + 1
    mid = (r.lo + r.hi) // 2
    if abs(mid) + hw > (27 << W) // 16:  # |r| should be < pi/2 + slack
        # very wide input; sin/cos are still bounded by 1
        return Interval(-(1 << W), 1 << W, W)
    total, err = _sincos_taylor(mid, W, kind)
    err += hw + 2  # |sin'|, |cos'| <= 1
    if n % 2:
        total = -total
    res = Interval(total - err, total + err, W)
    return res.intersect(Interval(-(1 << W), 1 << W, W))


def sin_iv(x: Union[Fraction, int, Interval], bits: int) -> Interval:
    return _sincos_iv(x, bits, "sin")


def cos_iv(x: Union[Fraction, int, Interval], bits: int) -> Interval:
    return _sincos_iv(x, bits, "cos")


def sqrt_iv(x: Union[Fraction, int, Interval], bits: int) -> Interval:
    """Enclosure of the square root of a nonnegative value."""
    W = bits + 16
    if isinstance(x, Interval):
        if x.hi < 0:
            raise ValueError("sqrt of a negative enclosure")
        k = 2 * W - x.scale  # floor of each endpoint times 2**(2W)
        lo, hi = max(x.lo, 0), x.hi
        lo, hi = (lo << k, hi << k) if k >= 0 else (lo >> -k, hi >> -k)
        return Interval(math.isqrt(lo), math.isqrt(hi) + 1, W)
    if x.numerator < 0:
        raise ValueError("sqrt of a negative value")
    return sqrt_ratio_iv(x.numerator, x.denominator, bits)


def sqrt_ratio_iv(num: int, den: int, bits: int) -> Interval:
    """``sqrt_iv(Fraction(num, den), bits)`` for integers num >= 0, den > 0,
    which need not be reduced: the floor of the root depends on the value."""
    W = bits + 16
    lo = math.isqrt((num << (2 * W)) // den)
    return Interval(lo, lo + 1, W)


# ---------------------------------------------------------------------------
# Certified reals
# ---------------------------------------------------------------------------


# The bits beyond a width b at which each operation asks its operands: a sum
# 4, a quotient 8, a j-th power 8|j|, and a product 8 to measure its factors,
# then product_bits; the closures of CertifiedReal ask them, price adds them.
SUM_BITS, QUOTIENT_BITS, MEASURE_BITS = 4, 8, 8


def power_bits(j: int) -> int:
    return 8 * abs(j)


def product_bits(ma: int, mc: int) -> int:
    return MEASURE_BITS + max(ma, 1) + max(mc, 1)


class CertifiedReal:
    """A computable real carried as a refinable certified enclosure.

    ``fn(bits)`` must return an :class:`Interval` containing the value whose
    width shrinks (at least roughly like ``2**-bits``) as ``bits`` grows.
    ``op``, for :func:`price`, is the operation and operands that built it.

    ``enclosure(bits)`` caches its result under that width: the widest
    evaluation so far serves every narrower request.
    """

    __slots__ = ("_fn", "_cache_bits", "_cache", "op")

    def __init__(self, fn: Callable[[int], Interval], op: tuple | None = None):
        self._fn = fn
        self._cache_bits = -1
        self._cache: Interval | None = None
        self.op = op

    def enclosure(self, bits: int) -> Interval:
        if self._cache is not None and bits <= self._cache_bits:
            return self._cache
        iv = self._fn(bits)
        self._cache_bits = bits
        self._cache = iv
        return iv

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(lambda b: -self.enclosure(b), ("neg", self))

    def __add__(self, other) -> "CertifiedReal":
        o = to_real(other)
        return CertifiedReal(lambda b: self.enclosure(b + SUM_BITS) + as_interval(o, b + SUM_BITS), ("add", self, o))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-to_real(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "CertifiedReal":
        o = to_real(other)

        def fn(b: int) -> Interval:
            w = b + product_bits(self.enclosure(b + MEASURE_BITS).mag_bits(),
                                 as_interval(o, b + MEASURE_BITS).mag_bits())
            return self.enclosure(w) * as_interval(o, w)

        return CertifiedReal(fn, ("mul", self, o))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CertifiedReal":
        o = to_real(other)
        return CertifiedReal(lambda b: self.enclosure(b + QUOTIENT_BITS).divide(
            signed_interval(o, b + QUOTIENT_BITS), b), ("div", self, o))

    def __rtruediv__(self, other) -> "CertifiedReal":
        o = to_real(other)
        return CertifiedReal(lambda b: as_interval(o, b + QUOTIENT_BITS).divide(
            signed_interval(self, b + QUOTIENT_BITS), b), ("div", o, self))

    def __pow__(self, j: int) -> "CertifiedReal | Fraction":
        if not isinstance(j, int):
            raise TypeError("only integer powers of enclosures are supported")
        if j == 0:
            return Fraction(1)

        def fn(b: int) -> Interval:
            # a reciprocal needs its base's sign, so that is refined until certain
            w = b + power_bits(j)
            iv = signed_interval(self, w) if j < 0 else self.enclosure(w)
            lo, hi = iv.lower(), iv.upper()
            cands = [lo ** abs(j), hi ** abs(j)]
            vlo, vhi = min(cands), max(cands)
            if j % 2 == 0 and lo < 0 < hi:
                vlo = Fraction(0)
            if j < 0:
                if vlo <= 0 <= vhi:
                    raise ZeroDivisionError("negative power of an enclosure touching zero")
                vlo, vhi = 1 / vhi, 1 / vlo
            a = Interval.from_fraction(vlo, b)
            c = Interval.from_fraction(vhi, b)
            return Interval(a.lo, c.hi, b)

        return CertifiedReal(fn, ("pow", self, j))

    def scalb(self, k: int) -> "CertifiedReal":
        return CertifiedReal(lambda b: self.enclosure(b).scalb(k))

    # -- predicates ------------------------------------------------------

    def sign(self) -> int:
        """Certain sign; exact zeros must be passed as rationals."""
        return signed_interval(self, 64).sign()

    def __float__(self) -> float:
        return float(self.enclosure(96).midpoint())

    def __repr__(self) -> str:  # pragma: no cover
        return f"CertifiedReal(~{float(self):.9g})"


ExactReal = Union[Fraction, CertifiedReal]


def to_real(v) -> ExactReal:
    """Coerce plain numbers to an ExactReal (floats convert exactly)."""
    if isinstance(v, (Fraction, CertifiedReal)):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError("cannot convert a non-finite float")
        return Fraction(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as an exact real")


def as_interval(x: ExactReal, bits: int) -> Interval:
    if isinstance(x, CertifiedReal):
        return x.enclosure(bits)
    return Interval.from_fraction(x, bits)


def signed_interval(x: ExactReal, bits: int) -> Interval:
    """An enclosure of x at ``bits`` or a doubling of it whose sign is certain."""

    def decide(b: int) -> Interval | None:
        iv = as_interval(x, b)
        return iv if iv.sign() is not None else None

    return refine(decide, bits, "the sign of an enclosure")


def relative_interval(x: ExactReal, bits: int) -> Interval:
    """An enclosure of x resolved to ``bits`` + 16 bits below its leading bit.

    A first enclosure at ``bits`` + 16 measures the magnitude; the second
    adds that many bits, so huge arguments keep their fractional part.
    """
    xi = as_interval(x, bits + 16)
    return as_interval(x, bits + max(xi.mag_bits(), 1) + 16)


def real_sign(x: ExactReal) -> int:
    if isinstance(x, CertifiedReal):
        return x.sign()
    if isinstance(x, Fraction):
        x = x.numerator
    return (x > 0) - (x < 0)


def pi_real() -> CertifiedReal:
    return CertifiedReal(pi_iv, ("pi",))


class Price(NamedTuple):
    """What a value's enclosures at a width b ask beyond b.  ``mag`` is an m
    with |value| < 2**m, None for a quotient or negative power; ``weight``
    the cost of each bit it is asked deeper: 1 per pi in it, plus |j| per
    j-th power; ``depth`` the bits beyond b it asks of pi; ``charges`` what
    its operation costs: a j-th power raises (power_bits(j) + m)-bit endpoints
    to |j|, m its base's magnitude, and it or a product pays the bits it asks
    its operands deeper."""

    mag: int | None
    weight: int
    depth: int
    charges: tuple[int, ...] = ()


def price(v: ExactReal, known: dict) -> Price:
    """The Price of a rational or of a value certified arithmetic built,
    memoised in ``known``.  A product or power reads a magnitude its operand's
    price lacks from the operand's enclosure at MEASURE_BITS, the least
    width it asks of it."""
    if isinstance(v, Fraction):
        return Price(v.numerator.bit_length() - v.denominator.bit_length() + 1, 0, 0)
    if v in known:
        return known[v]

    def measured(x: ExactReal, p: Price) -> int:
        return x.enclosure(MEASURE_BITS).mag_bits() if p.mag is None else p.mag

    kind, *args = v.op
    if kind == "pi":
        out = Price(2, 1, 0)
    elif kind == "neg":
        out = price(args[0], known)._replace(charges=())
    elif kind == "pow":
        a, j = args
        pa = price(a, known)
        m, d = measured(a, pa), power_bits(j)
        out = Price(j * m if j > 0 else None, pa.weight + abs(j), pa.depth + d,
                    (abs(j) * (d + max(m, 0)), d * pa.weight))
    else:
        a, c = args
        pa, pc = price(a, known), price(c, known)
        w, depth = pa.weight + pc.weight, max(pa.depth, pc.depth)
        if kind == "mul":
            ma, mc = measured(a, pa), measured(c, pc)
            d = product_bits(ma, mc)
            out = Price(ma + mc, w, depth + d, (d * w,))
        elif kind == "add":
            out = Price(None if pa.mag is None or pc.mag is None else max(pa.mag, pc.mag) + 1, w, depth + SUM_BITS)
        else:
            out = Price(None, w, depth + QUOTIENT_BITS)
    known[v] = out
    return out


def nth_root_fraction(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    if x < 0 or k <= 0:
        return None
    if x == 0:
        return Fraction(0)

    def iroot(n: int) -> int | None:
        if k == 2:
            r = math.isqrt(n)
        elif n.bit_length() <= k:
            r = 1  # n < 2^k
        else:
            # integer Newton descends from an overestimate to the floor of the root
            r = 1 << -(-n.bit_length() // k)
            while (nr := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
                r = nr
        return r if r**k == n else None

    rn = iroot(x.numerator)
    if rn is None:
        return None
    rd = iroot(x.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)
