"""Certified enclosures checked against an independent implementation (mpmath)."""

import math
import operator
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from stabilis import reals
from stabilis.reals import (
    _LN2_Q128,
    CertifiedReal,
    Interval,
    REFINE_DOUBLINGS,
    PrecisionError,
    cos_iv,
    exp_ends,
    exp_iv,
    ln2_iv,
    log_iv,
    nth_root_fraction,
    pi_iv,
    pi_real,
    price,
    real_sign,
    refine,
    sin_iv,
    sqrt_iv,
)

mp.mp.prec = 600


def to_mp(fr: Fraction) -> mp.mpf:
    return mp.mpf(fr.numerator) / fr.denominator


def contains(iv: Interval, ref) -> bool:
    return to_mp(iv.lower()) <= ref <= to_mp(iv.upper())


def width(iv: Interval) -> Fraction:
    return iv.upper() - iv.lower()


small_fracs = st.fractions(
    min_value=Fraction(-10**4), max_value=Fraction(10**4), max_denominator=10**4
)
pos_fracs = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
)


class TestConstants:
    def test_pi(self):
        for bits in (64, 200, 1100):
            iv = pi_iv(bits)
            assert contains(iv, mp.pi)
            assert width(iv) < Fraction(1, 2**bits)

    def test_ln2(self):
        iv = ln2_iv(300)
        assert contains(iv, mp.log(2))
        assert width(iv) < Fraction(1, 2**300)


class TestElementary:
    @given(pos_fracs)
    @settings(max_examples=150)
    def test_log(self, q):
        iv = log_iv(q, 160)
        assert contains(iv, mp.log(to_mp(q)))
        assert width(iv) < Fraction(1, 2**150)

    @pytest.mark.parametrize("q", [Fraction(4, 7), Fraction(2**64, 2**65 - 1), Fraction(4, 3)])
    def test_log_at_the_ends_of_the_reduction_range(self, q):
        # these keep e = 0: the reduced m reaches down towards 1/2 and up to 4/3
        iv = log_iv(q, 200)
        assert contains(iv, mp.log(to_mp(q)))
        assert width(iv) < Fraction(1, 2**190)

    @given(st.fractions(min_value=Fraction(-80), max_value=Fraction(80), max_denominator=10**5))
    @settings(max_examples=150)
    def test_exp(self, q):
        iv = exp_iv(q, 160)
        ref = mp.exp(to_mp(q))
        assert contains(iv, ref)
        # relative width shrinks with the requested bits
        assert float(width(iv)) < 2.0 ** -140 * max(1.0, float(ref))

    @given(small_fracs)
    @settings(max_examples=150)
    def test_sin_cos(self, q):
        assert contains(sin_iv(q, 160), mp.sin(to_mp(q)))
        assert contains(cos_iv(q, 160), mp.cos(to_mp(q)))

    def test_sin_huge_argument(self):
        x = Fraction(2**100 * 355, 113)
        iv = sin_iv(x, 200)
        assert contains(iv, mp.sin(mp.mpf(2**100 * 355) / 113))
        assert width(iv) < Fraction(1, 2**190)

    @given(pos_fracs)
    @settings(max_examples=150)
    def test_sqrt(self, q):
        iv = sqrt_iv(q, 160)
        assert contains(iv, mp.sqrt(to_mp(q)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exp_of_huge_argument(self, sign):
        # exp(+-10^400) lies near 2^(+-1.4e400): compare the mantissas at the
        # common binary exponent instead of materialising either endpoint
        iv = exp_iv(Fraction(sign * 10**400), 64)
        with mp.workprec(2000):
            man, exp = mp.exp(mp.mpf(sign * 10**400)).man_exp
        d = exp + iv.scale  # reference = (man * 2**d) * 2**-scale
        if d >= 0:
            assert iv.lo <= man << d <= iv.hi
        else:
            assert iv.lo << -d <= man <= iv.hi << -d
        assert (iv.hi - iv.lo) << 60 < iv.lo

    def test_interval_inputs_respect_endpoints(self):
        x = Interval.from_fraction(Fraction(3, 7), 100)
        assert contains(log_iv(x, 90), mp.log(mp.mpf(3) / 7))
        assert contains(exp_iv(x, 90), mp.exp(mp.mpf(3) / 7))


def reference_exp_iv(x, bits):
    """``exp_iv`` as it stood before the shared series core and the skipped
    reduction for |x| < 1/4, kept verbatim as the oracle for both."""
    if not isinstance(x, Interval):
        x = Interval.from_fraction(x, bits + 32)
    W = bits + 32
    # range-reduce by n = round(mid / ln 2), in integers at any magnitude
    mag = x.mag_bits()
    if mag <= 60:
        c, c_scale = _LN2_Q128, 128  # ln 2 ~ c * 2**-c_scale
    else:
        c_iv = ln2_iv(mag + 64)
        c, c_scale = (c_iv.lo + c_iv.hi) >> 1, c_iv.scale
    k = c_scale - x.scale - 1  # mid / ln 2 ~ (lo + hi) * 2**k / c
    num, den = (x.lo + x.hi) << max(k, 0), c << max(-k, 0)
    n = (2 * num + den) // (2 * den)
    if n != 0:
        l2 = ln2_iv(W + n.bit_length() + 8)
        y = x - n * l2
    else:
        y = x
    y = y.rescale(W)
    if y.lo < -(3 << (W - 2)) or y.hi > (3 << (W - 2)):
        # |y| should be <= ~0.75; fall back on endpoint splitting
        lo = reference_exp_iv(x.lower(), bits)
        hi = reference_exp_iv(x.upper(), bits)
        s = max(lo.scale, hi.scale)
        return Interval(lo.rescale(s).lo, hi.rescale(s).hi, s)
    M = (y.lo + y.hi) // 2
    hw = (y.hi - y.lo) // 2 + 1
    term = total = 1 << W
    for j in range(1, 4 * W):
        term = ((term * M) >> W) // j
        if not term:
            break
        total += term
    else:  # pragma: no cover - safety net
        raise PrecisionError("exp series failed to converge")
    # 6 ulps per term, 8 for the tail (|y| <= 0.75, so the remaining ratio
    # is < 1/2), and the input half-width via exp(y) <= e^0.75 < 2.2
    err = 1 + 6 * j + 8 + 3 * hw
    res = Interval(total - err, total + err, W)
    return res.scalb(n)


# ln 2 / 2 to 300 bits: the midpoint where round(x / ln 2) turns from 0 to 1
HALF_LN2 = Fraction(int(mp.log(2) * 2**300), 2**301)
# the existing huge-argument cases
HUGE = st.sampled_from([10**400, -10**400])
near = st.builds(
    lambda c, sign, k, j: sign * c + Fraction(k, 2**j),
    st.sampled_from([Fraction(1, 4), Fraction(1, 3), HALF_LN2]),
    st.sampled_from([1, -1]),
    st.integers(-8, 8),
    st.integers(20, 280),
)
unit = near | st.fractions(min_value=-1, max_value=1, max_denominator=10**12)


def _interval_of(a, b, scale):
    lo, hi = sorted((a, b))
    return Interval(math.floor(lo * 2**scale), math.ceil(hi * 2**scale), scale)


exp_args = st.one_of(
    unit,
    st.integers(-1, 1),
    HUGE,
    HUGE.map(Fraction),
    st.builds(_interval_of, unit, unit, st.sampled_from([24, 60, 128, 200, 260, 300])),
    st.builds(lambda a, w, scale: _interval_of(a, a + Fraction(w, 2**scale), scale),
              near, st.integers(0, 4), st.sampled_from([56, 85, 145, 176, 192, 256])),
)


class TestExpAgainstReference:
    @given(exp_args, st.sampled_from([24, 56, 64, 85, 145, 176, 192, 256]))
    @settings(max_examples=400)
    def test_equals_the_reference_bit_for_bit(self, x, bits):
        got, ref = exp_iv(x, bits), reference_exp_iv(x, bits)
        assert (got.lo, got.hi, got.scale) == (ref.lo, ref.hi, ref.scale)

    @pytest.mark.parametrize("bits", [24, 85, 192])
    @pytest.mark.parametrize("x", [Fraction(1, 4), -Fraction(1, 4), Fraction(1, 4) - Fraction(1, 2**300),
                                   HALF_LN2, -HALF_LN2, Fraction(1), -1, 0])
    def test_at_the_reduction_thresholds(self, x, bits):
        got, ref = exp_iv(x, bits), reference_exp_iv(x, bits)
        assert (got.lo, got.hi, got.scale) == (ref.lo, ref.hi, ref.scale)

    @given(st.sampled_from([56, 85, 145, 192]), st.integers(-7, 7), st.integers(-3, 3), st.integers(0, 8))
    @settings(max_examples=300)
    def test_ends_equal_the_reference(self, bits, eighths, k, w):
        """exp_ends(lo, hi, bits) within a few ulps of each multiple of 1/8 in
        (-1, 1), +-1/4 among them, is exp_iv(Interval(lo, hi, bits), bits)."""
        lo = (eighths << (bits - 3)) + k
        got, ref = exp_ends(lo, lo + w, bits), reference_exp_iv(Interval(lo, lo + w, bits), bits)
        assert (got.lo, got.hi, got.scale) == (ref.lo, ref.hi, ref.scale)


class TestIntervalArithmetic:
    @given(small_fracs, small_fracs)
    @settings(max_examples=150)
    def test_mul_encloses(self, a, b):
        ia = Interval.from_fraction(a, 120)
        ib = Interval.from_fraction(b, 120)
        prod = ia * ib
        assert prod.lower() <= a * b <= prod.upper()

    @given(small_fracs, pos_fracs)
    @settings(max_examples=150)
    def test_divide_encloses(self, a, b):
        ia = Interval.from_fraction(a, 120)
        ib = Interval.from_fraction(b, 120)
        q = ia.divide(ib, 120)
        assert q.lower() <= a / b <= q.upper()

    @given(st.tuples(st.integers(-2**70, 2**70), st.integers(0, 2**20)),
           st.tuples(st.integers(-2**70, 2**70), st.integers(0, 2**20)),
           st.integers(-40, 160), st.integers(-40, 160), st.integers(-40, 160))
    @settings(max_examples=300)
    def test_divide_matches_four_candidate_reference(self, a, b, sa, sb, scale):
        ia, ib = Interval(a[0], a[0] + a[1], sa), Interval(b[0], b[0] + b[1], sb)
        if ib.sign() not in (-1, 1):
            with pytest.raises(ZeroDivisionError):
                ia.divide(ib, scale)
            return
        quotients = [Fraction(n, d) * Fraction(2) ** (scale + sb - sa) for n in (ia.lo, ia.hi) for d in (ib.lo, ib.hi)]
        q = ia.divide(ib, scale)
        assert (q.lo, q.hi) == (math.floor(min(quotients)), math.ceil(max(quotients)))

    @given(st.integers(-2**80, 2**80), st.integers(0, 2**40), st.integers(-60, 300), st.sampled_from([53, 160]))
    @settings(max_examples=200)
    def test_sqrt_of_interval_matches_fraction_endpoints(self, lo, w, scale, bits):
        iv = Interval(lo, lo + w, scale)
        if iv.hi < 0:
            return
        root = lambda fr: math.isqrt((fr.numerator << 2 * (bits + 16)) // fr.denominator)  # noqa: E731
        got = sqrt_iv(iv, bits)
        assert (got.lo, got.hi) == (root(max(iv.lower(), Fraction(0))), root(iv.upper()) + 1)

    @given(st.integers(-2**80, 2**80), st.integers(0, 2**40), st.integers(-40, 200),
           st.fractions(-10**6, 10**6, max_denominator=10**9) | st.integers(-2**70, 2**70))
    @settings(max_examples=300)
    def test_mixed_operators_enclose_at_the_interval_scale(self, lo, w, scale, c):
        iv = Interval(lo, lo + w, scale)
        a, b, unit = iv.lower(), iv.upper(), Fraction(1, 2**scale) if scale >= 0 else Fraction(2**-scale)
        for got, ends in ((iv + c, (a + c, b + c)), (c + iv, (a + c, b + c)), (iv - c, (a - c, b - c)),
                          (c - iv, (c - b, c - a)), (iv * c, (a * c, b * c)), (c * iv, (a * c, b * c))):
            # every value of the interval combined with c, rounded outward by under a unit
            assert got.scale == scale
            assert min(ends) - unit < got.lower() <= min(ends)
            assert max(ends) <= got.upper() < max(ends) + unit

    def test_mixed_operators_take_only_rationals(self):
        iv = Interval(3, 5, 4)
        for other in (1.5, pi_real()):
            for op in (lambda: iv + other, lambda: other + iv, lambda: iv * other, lambda: other * iv,
                       lambda: iv - other, lambda: other - iv):
                with pytest.raises(TypeError):
                    op()

    def test_divide_through_zero_rejected(self):
        ia = Interval.from_fraction(Fraction(1), 64)
        with pytest.raises(ZeroDivisionError):
            ia.divide(Interval(-1, 1, 64), 64)

    def test_abs_and_clip(self):
        assert (abs(Interval(-3, -1, 10)).lo, abs(Interval(-3, -1, 10)).hi) == (1, 3)
        assert (abs(Interval(-3, 2, 10)).lo, abs(Interval(-3, 2, 10)).hi) == (0, 3)
        assert (Interval(-3, 2, 10).clip_nonneg().lo, Interval(-3, 2, 10).clip_nonneg().hi) == (0, 2)
        assert (Interval(-3, -1, 10).clip_nonneg().lo, Interval(-3, -1, 10).clip_nonneg().hi) == (0, 0)
        iv = Interval(1, 4, 10)
        assert abs(iv) is iv and iv.clip_nonneg() is iv

    def test_midpoint_and_signs(self):
        iv = Interval.from_fraction(Fraction(5, 3), 96)
        assert abs(iv.midpoint() - Fraction(5, 3)) < Fraction(1, 2**90)
        assert iv.sign() == 1
        assert Interval(-3, -1, 10).sign() == -1
        assert Interval(-1, 1, 10).sign() is None
        assert Interval(0, 0, 10).sign() == 0


class TestCertifiedReal:
    def test_combinators_track_mpmath(self):
        x = pi_real().scalb(5) + 1  # 32 pi + 1
        ref = 32 * mp.pi + 1
        assert contains(x.enclosure(300), ref)
        y = (x * Fraction(3, 7)).enclosure(250)
        assert contains(y, ref * 3 / 7)
        z = (x - Fraction(100)).enclosure(250)
        assert contains(z, ref - 100)
        w = (x / Fraction(13)).enclosure(250)
        assert contains(w, ref / 13)
        v = (pi_real() ** 3).enclosure(250)
        assert contains(v, mp.pi**3)

    def test_sign_refinement(self):
        tiny = pi_real() - Fraction(
            31415926535897932384626433832795028841971693993751,
            10**49,
        )
        assert tiny.sign() in (-1, 1)

    @pytest.mark.parametrize("base, j", [(Fraction(355, 113), -1), (Fraction(355, 113), -2), (4, -3), (3, -5)])
    def test_negative_powers_refine_the_base_at_any_width(self, base, j):
        # pi - 355/113 is about -2.7e-7, so its enclosures at low widths hold 0
        x = (pi_real() - base) ** j
        ref = (mp.pi - mp.mpf(base.numerator) / base.denominator if isinstance(base, Fraction) else mp.pi - base) ** j
        for bits in (0, 8, 200):
            assert contains(x.enclosure(bits), ref)

    @settings(max_examples=300)
    @given(st.integers(-2**90, 2**90), st.integers(0, 2**80), st.integers(-40, 120),
           st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 7]), st.integers(-10, 200))
    def test_powers_round_the_ends_outward(self, lo, w, scale, j, bits):
        """A power's enclosure is the exact power of the base's enclosure,
        floored and ceiled at the asked scale (computed here in Fractions)."""
        base = Interval(lo, lo + w, scale)
        x = CertifiedReal(lambda b: base) ** j
        ends = sorted(e ** abs(j) for e in (base.lower(), base.upper()))
        if j % 2 == 0 and base.lo < 0 < base.hi:
            ends[0] = Fraction(0)
        if j < 0 and base.lo <= 0 <= base.hi:  # no width settles the sign, or the base is 0
            with pytest.raises((PrecisionError, ZeroDivisionError)):
                x.enclosure(bits)
            return
        if j < 0:
            ends = [1 / ends[1], 1 / ends[0]]
        iv, unit = x.enclosure(bits), Fraction(2) ** bits
        assert (iv.lo, iv.hi, iv.scale) == (math.floor(ends[0] * unit), math.ceil(ends[1] * unit), bits)

    def test_sign_of_exact_zero_rejected(self):
        z = CertifiedReal(lambda b: Interval(-1, 1, b))
        with pytest.raises(PrecisionError):
            z.sign()

    def test_widest_evaluation_serves_narrower_requests(self):
        asked = []

        def fn(bits):
            asked.append(bits)
            return Interval(-1, 1, bits)

        x = CertifiedReal(fn)
        wide = x.enclosure(1024)
        assert x.enclosure(512) is wide and x.enclosure(1024) is wide
        assert asked == [1024]
        x.enclosure(1025)
        assert asked == [1024, 1025]

    def test_real_sign(self):
        assert real_sign(Fraction(-2, 7)) == -1
        assert real_sign(Fraction(0)) == 0
        assert real_sign(pi_real()) == 1


# Point expressions as trees: ("pi",), ("q", rational), (op, operand, ...).
# Divisors and negative-power bases are "safe": products and powers of pi
# and of rationals in [1/8, 8], so no sign refinement widens what they ask.
_EXPONENTS = st.integers(-3, 3).filter(bool)
_LEAVES = st.just(("pi",)) | st.fractions(Fraction(1, 8), Fraction(8), max_denominator=64).map(lambda q: ("q", q))
_SAFE = st.recursive(_LEAVES, lambda t: st.tuples(st.just("mul"), t, t) | st.tuples(st.just("pow"), t, _EXPONENTS),
                     max_leaves=4)
_TREES = st.recursive(
    _LEAVES | st.fractions(-100, 100, max_denominator=1000).map(lambda q: ("q", q)),
    lambda t: (st.tuples(st.sampled_from(["add", "sub", "mul"]), t, t) | st.tuples(st.just("neg"), t)
               | st.tuples(st.just("div"), t, _SAFE) | st.tuples(st.just("pow"), t, st.integers(0, 3))
               | st.tuples(st.just("pow"), _SAFE, st.integers(-3, -1))),
    max_leaves=8)


def _build(tree):
    kind, *args = tree
    if kind == "pi":
        return pi_real()
    if kind == "q":
        return args[0]
    if kind == "neg":
        return -_build(args[0])
    if kind == "pow":
        return _build(args[0]) ** args[1]
    return {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}[kind](
        _build(args[0]), _build(args[1]))


class TestPrice:
    @settings(derandomize=True, max_examples=150)
    @given(_TREES)
    def test_price_bounds_the_widths_asked_of_pi(self, tree):
        """An enclosure at b asks pi at most b + depth bits, the price's depth,
        when no divisor or negative-power base is near zero."""
        v = _build(tree)
        if not isinstance(v, CertifiedReal):
            return
        depth = price(v, {}).depth
        for b in (8, 64, 256):
            asked = []

            def recording(bits):
                asked.append(bits)
                return pi_iv(bits)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(reals, "pi_iv", recording)
                fresh = _build(tree)
            fresh.enclosure(b)
            assert max(asked) <= b + depth

    def test_operations_are_recorded(self):
        x = pi_real()
        assert x.op == ("pi",)
        assert (-x).op == ("neg", x)
        assert (4 - x).op[0] == "add" and (4 - x).op[1].op == ("neg", x)
        assert (x * 3).op == ("mul", x, 3) and (x ** -2).op == ("pow", x, -2)
        assert (3 / x).op == ("div", 3, x)
        assert price(x ** 2, {}) == (4, 3, 16, (2 * 18, 16))
        assert price(1 / x, {}).mag is None


class TestRefine:
    """The one refinement loop: its schedule, and every caller's way out."""

    def test_schedule_and_budget(self):
        asked = []
        assert refine(lambda b: asked.append(b) or (b if b >= 40 else None), 5, "x") == 40
        assert asked == [5, 10, 20, 40]
        asked.clear()
        with pytest.raises(PrecisionError):
            refine(lambda b: asked.append(b), 3, "x")
        assert asked == [3 << k for k in range(REFINE_DOUBLINGS + 1)]

    def test_false_is_a_decision(self):
        assert refine(lambda b: False, 64, "x") is False

    def test_sign_of_disguised_zero_gives_up_promptly(self):
        t0 = time.perf_counter()
        with pytest.raises(PrecisionError):
            (pi_real() - pi_real()).sign()
        assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("side", ["num", "den"])
    def test_division_by_disguised_zero_gives_up_promptly(self, side):
        zero = pi_real() - pi_real()
        q = pi_real() / zero if side == "num" else Fraction(1) / zero
        t0 = time.perf_counter()
        with pytest.raises(PrecisionError):
            q.enclosure(64)
        assert time.perf_counter() - t0 < 5

    def test_division_by_decided_zero_still_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            (pi_real() / Fraction(0)).enclosure(64)
        with pytest.raises(ZeroDivisionError):
            ((pi_real() * Fraction(0)) ** -1).enclosure(64)


class TestNthRoot:
    def test_exact_roots(self):
        assert nth_root_fraction(Fraction(27, 64), 3) == Fraction(3, 4)
        assert nth_root_fraction(Fraction(1024), 10) == 2
        assert nth_root_fraction(Fraction(0), 5) == 0

    def test_irrational_returns_none(self):
        assert nth_root_fraction(Fraction(2), 2) is None
        assert nth_root_fraction(Fraction(10), 3) is None

    @pytest.mark.parametrize("bits", [16, 128, 40_000, 1_000_000])
    def test_square_roots_exact_iff_perfect(self, bits):
        r = (1 << (bits // 2)) - 3  # r*r has about ``bits`` bits; r is odd and prime to 3
        assert nth_root_fraction(Fraction(r * r), 2) == r
        assert nth_root_fraction(Fraction(9, r * r), 2) == Fraction(3, r)
        assert nth_root_fraction(Fraction(r * r + 1), 2) is None
        assert nth_root_fraction(Fraction(r * r - 1), 2) is None
        assert nth_root_fraction(Fraction(r * r, 2), 2) is None

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("bits", [16, 128, 3_000, 100_000])
    def test_kth_roots_exact_iff_perfect(self, k, bits):
        r = (1 << (bits // k)) + 1  # r**k has about ``bits`` bits; r is odd
        n = r**k
        t0 = time.perf_counter()
        assert nth_root_fraction(Fraction(n), k) == r
        assert nth_root_fraction(Fraction(2**k, n), k) == Fraction(2, r)
        assert nth_root_fraction(Fraction(n + 1), k) is None
        assert nth_root_fraction(Fraction(n - 1), k) is None
        assert nth_root_fraction(Fraction(1, n - 1), k) is None
        assert time.perf_counter() - t0 < 5

    def test_root_below_two_is_prompt(self):
        # with n < 2^k the root is 1 or irrational; 2**k is never formed
        t0 = time.perf_counter()
        assert nth_root_fraction(Fraction(1), 10**9) == 1
        assert nth_root_fraction(Fraction(3, 2), 10**9) is None
        assert time.perf_counter() - t0 < 1

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=2, max_value=6))
    @settings(max_examples=100)
    def test_roundtrip(self, base, k):
        q = Fraction(base, 7) ** k
        assert nth_root_fraction(q, k) == Fraction(base, 7)
