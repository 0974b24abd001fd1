"""Idealized binary floating-point arithmetic with unbounded exponents.

Numbers are sign/mantissa/exponent triples over arbitrary-size integers;
a value is ``sign * mantissa * 2**(exponent - mantissa.bit_length())``, so
the exponent names the binade: ``2**(e-1) <= |value| < 2**e``.  There are
no exponent bounds, subnormals, infinities or NaNs: every rounding is the
mathematical round-to-nearest (ties to even) onto the precision-t grid.

The arithmetic here is a genuine soft-float implementation (aligned
addition with a sticky path, double-width multiplication, division by
integer quotient and remainder).  Every result goes through one rounding
rule, ``_nearest``, on an integer: an exact value as it is, and an inexact
one (a quotient, or a sum whose low operand lies far below the rounding
bits) as an odd integer one binary place lower, its guard bits followed by
a sticky bit.  ``_round_range`` rounds sign*(n/d)*m*2**e for every m in
an integer range by that rule at the two ends, and gives their common
value or None: an enclosure's rounding, and the Strassen experiment's
inputs.  The test-suite checks every operation bit-for-bit against the
independent compute-exactly-then-round oracle.

The catalog's runners take their operations from an arithmetic object:
:class:`SoftFloat` at any precision, or :data:`BINARY64`, hardware floats
accepted only where they give the soft float's bits at t = 53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .reals import CertifiedReal, refine, to_real


class FpError(ArithmeticError):
    """Base class for floating-point evaluation failures."""


class FpDivisionByZero(FpError):
    """Division by zero; the harness treats the run as non-halting."""


@dataclass(frozen=True)
class Precision:
    """Working precision: t mantissa bits, unit roundoff u = 2**-t."""

    t: int

    def __post_init__(self):
        if not isinstance(self.t, int) or self.t <= 2:
            raise ValueError("precision requires an integer t > 2")

    @property
    def u(self) -> Fraction:
        return Fraction(1, 1 << self.t)

    @staticmethod
    def of(p: "Precision | int") -> "Precision":
        return p if isinstance(p, Precision) else Precision(int(p))


class FpNumber:
    """An element of the unbounded-exponent floating-point system.

    Instances are immutable after construction (they are hashable and
    safe to share across workers).
    """

    __slots__ = ("sign", "mantissa", "exponent")

    def __init__(self, sign: int, mantissa: int, exponent: int):
        if mantissa < 0:
            raise ValueError("mantissa must be nonnegative")
        if mantissa == 0:
            sign, exponent = 1, 0
        elif sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        _set_sign(self, sign)
        _set_mantissa(self, mantissa)
        _set_exponent(self, exponent)

    def __setattr__(self, name, value):
        raise AttributeError("FpNumber is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def precision_bits(self) -> int:
        """Mantissa width; equals t for values produced at precision t."""
        return self.mantissa.bit_length()

    def to_fraction(self) -> Fraction:
        if self.mantissa == 0:
            return Fraction(0)
        k = self.exponent - self.mantissa.bit_length()
        if k >= 0:
            return Fraction(self.sign * (self.mantissa << k))
        return Fraction(self.sign * self.mantissa, 1 << -k)

    def __float__(self) -> float:
        return float(self.to_fraction())

    def as_exact_string(self) -> str:
        """Exact `m*2^e` form (used for bit-exact serialization)."""
        if self.mantissa == 0:
            return "0"
        k = self.exponent - self.mantissa.bit_length()
        return f"{self.sign * self.mantissa}*2^{k}"

    def _key(self) -> tuple[int, int, int]:
        if self.mantissa == 0:
            return (0, 0, 0)
        m = self.mantissa
        tz = (m & -m).bit_length() - 1
        return (self.sign, m >> tz, self.exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpNumber):
            return NotImplemented
        if self.mantissa.bit_length() == other.mantissa.bit_length():
            # equal widths: equal values have equal triples
            return (self.mantissa == other.mantissa and self.exponent == other.exponent
                    and self.sign == other.sign)
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _cmp(self, other: "FpNumber") -> int:
        a, b = self, other
        sa = 0 if a.is_zero else a.sign
        sb = 0 if b.is_zero else b.sign
        if sa != sb:
            return -1 if sa < sb else 1
        # same sign: compare magnitudes (two zeros are equal)
        if a.exponent != b.exponent:
            c = -1 if a.exponent < b.exponent else 1
        else:
            la, lb = a.mantissa.bit_length(), b.mantissa.bit_length()
            x, y = a.mantissa << lb, b.mantissa << la
            c = -1 if x < y else (0 if x == y else 1)
        return c if sa > 0 else -c

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __neg__(self) -> "FpNumber":
        if self.is_zero:
            return self
        return _fp(-self.sign, self.mantissa, self.exponent)

    def __abs__(self) -> "FpNumber":
        if self.is_zero or self.sign > 0:
            return self
        return _fp(1, self.mantissa, self.exponent)

    def __repr__(self) -> str:
        if self.is_zero:
            return "FpNumber(0)"
        return f"FpNumber({self.as_exact_string()})"


_set_sign = FpNumber.sign.__set__
_set_mantissa = FpNumber.mantissa.__set__
_set_exponent = FpNumber.exponent.__set__
_new = object.__new__


def _fp(sign: int, m: int, e: int) -> FpNumber:
    """A result already normalised (m > 0, or the zero 1, 0, 0), without ``__init__``'s checks."""
    x = _new(FpNumber)
    _set_sign(x, sign)
    _set_mantissa(x, m)
    _set_exponent(x, e)
    return x


def fp_zero() -> FpNumber:
    return _fp(1, 0, 0)


def dyadic(m: int, e: int) -> FpNumber:
    """The exact value m * 2**e, as an FpNumber as wide as m."""
    if not m:
        return fp_zero()
    return _fp(1 if m > 0 else -1, abs(m), e + m.bit_length())


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------


def _nearest(m: int, t: int) -> tuple[int, int]:
    """(keep, L): the integer m > 0 rounded to nearest, ties to even, is the
    t-bit mantissa keep in the binade [2**(L-1), 2**L).

    This is the one rounding rule onto the t-grid: sign*m*2**e rounds to
    ``_fp(sign, keep, e + L)``.  A value strictly between the integers m and
    m + 1, for m of t + 1 bits or more, enters with a sticky bit, as 2m + 1
    one binary place lower: no rounding boundary lies strictly between m and
    m + 1, and an odd integer of t + 2 bits or more is no tie, so 2m + 1
    rounds as the value does.
    """
    L = m.bit_length()
    drop = L - t
    if drop <= 0:
        return m << -drop, L
    keep = m >> drop
    rem = m - (keep << drop)
    half = 1 << (drop - 1)
    if rem > half or (rem == half and keep & 1):
        keep += 1
        if keep >> t:  # carried to 2**t: the next binade
            return keep >> 1, L + 1
    return keep, L


def _quotient(n: int, d: int, t: int) -> tuple[int, int]:
    """(m, k): n/d for positive integers n and d as m * 2**-k for the rule,
    m = 2q + (r != 0) from the quotient q of t + 2 or t + 3 bits and its
    remainder r, a sticky bit below two guard bits."""
    k = t + 2 - n.bit_length() + d.bit_length()
    q, r = divmod(n << k, d) if k >= 0 else divmod(n, d << -k)
    return 2 * q + (r != 0), k + 1


def _round_range(n: int, d: int, lo: int, hi: int, e: int, t: int) -> FpNumber | None:
    """The t-bit value that (n/d)*m*2**e rounds to for every integer m in
    [lo, hi] (0 < lo <= hi, d > 0), or None when the two ends round apart.
    Rounding is monotone, so the ends decide every m between them; only the
    common result is built.  A dyadic d scales the ends exactly, and any
    other gives each end as a :func:`_quotient`.
    """
    if not n:
        return fp_zero()
    if n != 1:
        lo, hi = abs(n) * lo, abs(n) * hi
    if d & (d - 1):
        lo, kl = _quotient(lo, d, t)
        hi, kh = _quotient(hi, d, t)
    else:
        kl = kh = d.bit_length() - 1
    keep, L = _nearest(hi, t)
    if _nearest(lo, t) != (keep, L - kh + kl):
        return None
    return _fp(1 if n > 0 else -1, keep, e + L - kh)


def round_to_nearest(x, p: Precision | int) -> FpNumber:
    """The roundoff map onto the precision-t grid (ties to even).

    Accepts integers, exact Fractions, finite floats (converted exactly;
    others raise ValueError), FpNumbers, and certified enclosures of
    irrational reals.  Enclosures are refined by :func:`~stabilis.reals.refine`
    from t + 64 bits until both endpoints round to the same grid point; a
    value no width can round (an exact tie, or too close to zero for that
    absolute resolution) raises a PrecisionError.
    """
    t = p.t if isinstance(p, Precision) else Precision.of(p).t
    if isinstance(x, FpNumber):
        m = x.mantissa
        L = m.bit_length()
        if L <= t:  # zero too
            return x
        keep, E = _nearest(m, t)
        return _fp(x.sign, keep, x.exponent - L + E)
    if isinstance(x, int):
        if x == 0:
            return fp_zero()
        keep, L = _nearest(abs(x), t)
        return _fp(1 if x > 0 else -1, keep, L)
    if isinstance(x, float):
        x = to_real(x)
    if isinstance(x, Fraction):
        n = x.numerator
        if n == 0:
            return fp_zero()
        m, k = _quotient(abs(n), x.denominator, t)
        keep, L = _nearest(m, t)
        return _fp(1 if n > 0 else -1, keep, L - k)
    if isinstance(x, CertifiedReal):

        def decide(bits: int) -> FpNumber | None:
            iv = x.enclosure(bits)
            s = iv.sign()
            if s == 0:
                return fp_zero()
            if s is None:
                return None
            lo, hi = (iv.lo, iv.hi) if s > 0 else (-iv.hi, -iv.lo)
            return _round_range(s, 1, lo, hi, -iv.scale, t)

        return refine(decide, t + 64, "a rounding: the value is an exact tie, or too close to one")
    raise TypeError(f"cannot round a {type(x).__name__}")


fl = round_to_nearest


def to_exact(a: FpNumber) -> Fraction:
    """Exact rational value of a floating-point number."""
    return a.to_fraction()


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def fp_add(a: FpNumber, b: FpNumber, p: Precision | int) -> FpNumber:
    t = p.t if isinstance(p, Precision) else Precision.of(p).t
    ma, mb = a.mantissa, b.mantissa
    if not ma:
        return round_to_nearest(b, p)
    if not mb:
        return round_to_nearest(a, p)
    la, lb = ma.bit_length(), mb.bit_length()
    ea, eb = a.exponent - la, b.exponent - lb
    if ea >= eb:
        shi, mhi, ehi, slo, mlo, elo, llo = a.sign, ma, ea, b.sign, mb, eb, lb
    else:
        shi, mhi, ehi, slo, mlo, elo, llo = b.sign, mb, eb, a.sign, ma, ea, la
    shift = ehi - elo
    G = t + 4
    if shift <= G + llo:
        v = shi * (mhi << shift) + slo * mlo
        if not v:
            return fp_zero()
        keep, L = _nearest(abs(v), t)
        return _fp(1 if v > 0 else -1, keep, elo + L)
    # the low operand is far below the rounding bits: the sum lies strictly
    # inside (m, m+1) * 2**(ehi - G), so it rounds as the sticky 2m + 1
    m = mhi << G if shi == slo else (mhi << G) - 1
    keep, L = _nearest(2 * m + 1, t)
    return _fp(shi, keep, ehi - G - 1 + L)


def fp_sub(a: FpNumber, b: FpNumber, p: Precision | int) -> FpNumber:
    return fp_add(a, -b, p)


def fp_mul(a: FpNumber, b: FpNumber, p: Precision | int) -> FpNumber:
    t = p.t if isinstance(p, Precision) else Precision.of(p).t
    ma, mb = a.mantissa, b.mantissa
    if not ma or not mb:
        return fp_zero()
    twoexp = a.exponent - ma.bit_length() + b.exponent - mb.bit_length()
    keep, L = _nearest(ma * mb, t)
    return _fp(a.sign * b.sign, keep, twoexp + L)


def fp_div(a: FpNumber, b: FpNumber, p: Precision | int) -> FpNumber:
    t = p.t if isinstance(p, Precision) else Precision.of(p).t
    ma, mb = a.mantissa, b.mantissa
    if not mb:
        raise FpDivisionByZero("floating-point division by zero")
    if not ma:
        return fp_zero()
    twoexp = a.exponent - ma.bit_length() - (b.exponent - mb.bit_length())
    m, k = _quotient(ma, mb, t)
    keep, L = _nearest(m, t)
    return _fp(a.sign * b.sign, keep, twoexp - k + L)


# ---------------------------------------------------------------------------
# Arithmetic objects: one runner, the soft float or binary64
# ---------------------------------------------------------------------------


class SoftFloat:
    """The soft float at precision p, as the arithmetic a runner is handed:
    ``add``, ``sub``, ``mul`` and ``div`` of FpNumbers, and ``round`` of an
    exact constant.  Each looks its operation up among the module globals at
    call time, so a wrapper installed over ``fp_add`` sees every call.
    """

    __slots__ = ("p",)

    def __init__(self, p: Precision | int):
        self.p = Precision.of(p)

    def add(self, a: FpNumber, b: FpNumber) -> FpNumber:
        return fp_add(a, b, self.p)

    def sub(self, a: FpNumber, b: FpNumber) -> FpNumber:
        return fp_sub(a, b, self.p)

    def mul(self, a: FpNumber, b: FpNumber) -> FpNumber:
        return fp_mul(a, b, self.p)

    def div(self, a: FpNumber, b: FpNumber) -> FpNumber:
        return fp_div(a, b, self.p)

    def round(self, c) -> FpNumber:
        return round_to_nearest(c, self.p)


class Binary64Refusal(Exception):
    """Binary64 cannot show that an operation gives the soft float's bits."""


_TINY = 2.0 ** -1022  # the least positive normal binary64 value
_INF = math.inf
_TWO53 = 2.0 ** 53
_frexp, _ldexp = math.frexp, math.ldexp


class Binary64:
    """IEEE 754 binary64 through Python floats, accepted where it is the soft
    float at t = 53.

    Python's float ``+ - * /`` round to nearest, ties to even, onto the 53-bit
    grid, as the soft float does; the two part only where binary64's exponent
    range ends.  So a result r is accepted when it is finite with
    |r| > 2**-1022 (an exact value below 2**-1022 rounds to at most 2**-1022
    in magnitude), or is zero from exact operands: a sum of normal values is
    zero only when it is exactly zero, and a product or quotient only when an
    operand is.  Anything else (underflow, overflow, division by zero, a
    constant out of range) raises :class:`Binary64Refusal`, and so does a
    runner that asks for the soft float's precision ``p``.

    Values enter by :meth:`enter` and leave by :meth:`leave`; zero is the one
    float zero, since the soft float has no signed zero and a zero's sign
    never reaches a nonzero result here.
    """

    __slots__ = ()
    t = 53

    @property
    def p(self) -> Precision:
        raise Binary64Refusal("a soft-float loop has no binary64 version")

    @staticmethod
    def enter(x: FpNumber) -> float:
        """x exactly, when its mantissa is t bits wide and it is normal.

        A narrower mantissa is refused too: a runner may pass an input through
        unchanged, and the soft float then keeps its width.
        """
        m = x.mantissa
        if m >> 52 != 1 or not -1021 <= x.exponent <= 1024:
            if not m:
                return 0.0
            raise Binary64Refusal("input out of binary64's normal range or width")
        return _ldexp(x.sign * m, x.exponent - 53)

    @staticmethod
    def leave(r: float) -> FpNumber:
        if not r:
            return fp_zero()
        m, e = _frexp(r)
        return _fp(1, int(m * _TWO53), e) if m > 0 else _fp(-1, int(-m * _TWO53), e)

    @staticmethod
    def add(a: float, b: float) -> float:
        r = a + b
        if r and not _TINY < abs(r) < _INF:
            raise Binary64Refusal("sum out of range")
        return r

    @staticmethod
    def sub(a: float, b: float) -> float:
        return Binary64.add(a, -b)  # float negation is exact

    @staticmethod
    def mul(a: float, b: float) -> float:
        r = a * b
        if a and b and not _TINY < abs(r) < _INF:
            raise Binary64Refusal("product out of range")
        return r

    @staticmethod
    def div(a: float, b: float) -> float:
        if not b:
            raise Binary64Refusal("division by zero")
        r = a / b
        if a and not _TINY < abs(r) < _INF:
            raise Binary64Refusal("quotient out of range")
        return r

    @staticmethod
    def round(c: int | Fraction) -> float:
        """float(c), correctly rounded (CPython rounds an int or an integer
        quotient to nearest, ties to even)."""
        try:
            r = float(c)
        except OverflowError:
            raise Binary64Refusal("constant out of range") from None
        if c and not _TINY < abs(r) < _INF:
            raise Binary64Refusal("constant out of range")
        return r


BINARY64 = Binary64()
