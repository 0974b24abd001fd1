"""Unit tests for the soft-float core.

The rounding oracle here is deliberately independent of the implementation:
it locates the binade by repeated exact comparisons and enumerates the two
neighbouring grid points as Fractions.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from stabilis.fpcore import (
    FpDivisionByZero,
    FpNumber,
    Precision,
    _round_range,
    dyadic,
    fl,
    fp_add,
    fp_div,
    fp_mul,
    fp_sub,
    fp_zero,
    to_exact,
)
from stabilis.reals import PrecisionError, pi_real


def oracle_round(x: Fraction, t: int) -> Fraction:
    """Round-to-nearest-even by explicit candidate enumeration."""
    if x == 0:
        return Fraction(0)
    s = 1 if x > 0 else -1
    v = abs(x)
    # find E with 2**(E-1) <= v < 2**E by exact comparisons
    E = 0
    while v >= Fraction(2) ** E:
        E += 1
    while v < Fraction(2) ** (E - 1):
        E -= 1
    spacing = Fraction(2) ** (E - t)
    lo = (v / spacing).__floor__() * spacing
    hi = lo + spacing
    dlo, dhi = v - lo, hi - v
    if dlo < dhi:
        r = lo
    elif dhi < dlo:
        r = hi
    else:  # tie: pick the candidate with an even mantissa
        r = lo if (lo / spacing).__floor__() % 2 == 0 else hi
    return s * r


rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**9
).filter(lambda q: q != 0)
precisions = st.integers(min_value=3, max_value=256)


class TestRounding:
    def test_tenth_at_t3(self):
        r = fl(Fraction(1, 10), 3)
        assert r.mantissa == 6 and r.exponent == -3
        assert to_exact(r) == Fraction(3, 32)

    def test_representable_fixed_points(self):
        for t in (3, 11, 24, 53):
            one = fl(1, t)
            assert to_exact(one) == 1
            assert fl(one, t) == one

    @given(rationals, precisions)
    @settings(max_examples=300)
    def test_matches_enumeration_oracle(self, x, t):
        assert to_exact(fl(x, t)) == oracle_round(x, t)

    @given(rationals, precisions)
    @settings(max_examples=200)
    def test_relative_error_bound(self, x, t):
        u = Precision(t).u
        assert abs(to_exact(fl(x, t)) - x) <= u * abs(x)

    @given(rationals, precisions)
    @settings(max_examples=200)
    def test_sign_symmetry(self, x, t):
        assert fl(-x, t) == -fl(x, t)

    @given(rationals, rationals, precisions)
    @settings(max_examples=200)
    def test_monotone(self, x, y, t):
        if x > y:
            x, y = y, x
        assert to_exact(fl(x, t)) <= to_exact(fl(y, t))

    @given(rationals, precisions, st.integers(min_value=0, max_value=64))
    @settings(max_examples=200)
    def test_idempotent_at_finer_precision(self, x, t, extra):
        a = fl(x, t)
        assert fl(to_exact(a), t + extra) == a

    def test_huge_exponents(self):
        x = Fraction(3, 2) * Fraction(2) ** (2**20)
        r = fl(x, 24)
        assert to_exact(r) == x
        y = Fraction(5, 4) / Fraction(2) ** (2**20)
        assert to_exact(fl(y, 24)) == y

    @pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_float_is_a_value_error(self, x):
        with pytest.raises(ValueError):
            fl(x, 53)

    def test_bool_rounds_as_int(self):
        assert fl(True, 53) == fl(1, 53)
        assert fl(False, 53) == fl(0, 53)

    @given(
        st.integers(min_value=3, max_value=256),
        st.integers(min_value=0, max_value=2**255),
        st.sampled_from([0, 1]),
        st.integers(min_value=-300, max_value=300),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=300)
    def test_exact_ties_round_to_even(self, t, offset, parity, j, sign):
        # (2m+1)/2^j with m of t bits lies halfway between m and m+1 ulps
        m = (1 << (t - 1)) + (2 * offset + parity) % (1 << (t - 1))
        x = sign * Fraction(2 * m + 1) / Fraction(2) ** j
        r = fl(x, t)
        assert to_exact(r) == oracle_round(x, t)
        assert r.mantissa % 2 == 0

    def test_mantissa_normalized(self):
        for t in (3, 24, 53):
            for x in (Fraction(1, 10), Fraction(7, 3), Fraction(-355, 113)):
                assert fl(x, t).precision_bits == t


def _two_end_cases(rng: random.Random, t: int) -> list[tuple[int, int]]:
    """(lo, hi) pairs, 0 < lo <= hi, at the places two-ended rounding can
    slip: exact ties of either parity, mantissas of t ones that carry to
    2**t, pairs across a binade edge, zero-width ends, and ends with no
    more than t bits."""
    drop = rng.randint(1, 40)
    keep = rng.getrandbits(t - 1) | (1 << (t - 1))
    half = 1 << (drop - 1)
    tie = (keep << drop) | half
    carry = (((1 << t) - 1) << drop) | rng.choice((half - 1, half, half + 1, (1 << drop) - 1))
    edge = 1 << rng.randint(t - 3, t + 40)
    small = rng.getrandbits(rng.randint(1, t)) | 1
    wide = rng.getrandbits(t + drop) | (1 << (t + drop - 1))
    out = [(tie, tie), (tie - 1, tie), (tie, tie + 1), (tie - 1, tie + 1), (carry, carry),
           (carry, carry + rng.randint(0, 2 * half)), (small, small), (small, small + rng.randint(0, 3)),
           (wide, wide + rng.randint(0, 1 << max(drop - 2, 0))), (wide, wide + rng.getrandbits(drop + 2))]
    for a, b in ((rng.randint(1, half), rng.randint(0, half)), (1, 0), (0, 1), (rng.getrandbits(drop), 0)):
        if edge - a > 0:
            out.append((edge - a, edge + b))
    return out


# non-dyadic multipliers n/d for the range rounding, as the Strassen inputs use it
_MULTIPLIERS = ((1, 3), (1, 10), (7, 5), (-2, 3))


def _oracle_near(x: Fraction, t: int) -> Fraction:
    """oracle_round(x, t) with x first scaled near 1 by a power of two, which
    rounding onto the t-grid commutes with; its binade search is then short."""
    s = Fraction(2) ** (abs(x.numerator).bit_length() - x.denominator.bit_length())
    return oracle_round(x / s, t) * s


class TestTwoEndedRounding:
    """``_round_range`` against the oracle's rounding of each end, for the
    multiplier 1 and for non-dyadic ones (over the same ends, and over ends
    scaled by the denominator, which keep the exact ties of 1/d and -2/d)."""

    @pytest.mark.parametrize("t", [3, 11, 24, 53, 113, 256])
    def test_agrees_with_two_roundings(self, t):
        rng = random.Random(f"two-ends-{t}")
        pick = random.Random(f"multipliers-{t}")
        decided, undecided = [0, 0], [0, 0]  # multiplier 1, non-dyadic
        for _ in range(400):
            sign, twoexp = rng.choice((1, -1)), rng.randint(-400, 400)
            scale = Fraction(2) ** twoexp
            for lo, hi in _two_end_cases(rng, t):
                bn, bd = pick.choice(_MULTIPLIERS)
                c = pick.choice((1, bd))
                for n, d, lo, hi in ((sign, 1, lo, hi), (sign * bn, bd, c * lo, c * hi)):
                    a = _oracle_near(Fraction(n * lo, d) * scale, t)
                    b = _oracle_near(Fraction(n * hi, d) * scale, t)
                    got = _round_range(n, d, lo, hi, twoexp, t)
                    if a == b:
                        assert got.precision_bits == t and to_exact(got) == a
                        decided[d > 1] += 1
                    else:
                        assert got is None
                        undecided[d > 1] += 1
        assert min(decided) > 1000 and min(undecided) > 1000


class TestZivBudget:
    def test_exact_tie_enclosure_raises_promptly(self):
        # (pi - pi) + 1 + 2^-53 is the exact tie 1 + u/2 carried as an
        # enclosure: no width can round it, so the loop must give up
        x = (pi_real() - pi_real()) + 1 + Fraction(1, 2**53)
        t0 = time.perf_counter()
        with pytest.raises(PrecisionError):
            fl(x, 53)
        assert time.perf_counter() - t0 < 5

    @given(
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=-136, max_value=136),
        st.sampled_from([1, -1]),
        st.sampled_from([3, 11, 24, 53, 113, 256]),
    )
    @settings(max_examples=150)
    def test_rational_disguised_as_enclosure(self, n, d, e, sign, t):
        # the Ziv loop rounds the enclosure's endpoints; each must agree
        # with the oracle on the exact rational it encloses
        r = sign * Fraction(n, d) * Fraction(2) ** e
        assume(not (oracle_round(r, t + 1) == r != oracle_round(r, t)))  # no ties
        x = (pi_real() - pi_real()) + r
        assert to_exact(fl(x, t)) == oracle_round(r, t)

    def test_near_tie_enclosure_still_rounds(self):
        x = (pi_real() - pi_real()) + 1 + Fraction(1, 2**53) + Fraction(1, 2**2000)
        assert to_exact(fl(x, 53)) == 1 + Fraction(1, 2**52)


class TestToExact:
    def test_roundtrip(self):
        a = fl(3, 11)
        assert to_exact(a) == 3

    def test_tenth(self):
        assert to_exact(fl(Fraction(1, 10), 3)) == Fraction(3, 32)

    @given(rationals, precisions)
    @settings(max_examples=100)
    def test_round_of_exact_is_identity(self, x, t):
        a = fl(x, t)
        assert fl(to_exact(a), t) == a


class TestArithmetic:
    def test_add_rounds_down(self):
        a, b = fl(1, 3), fl(Fraction(1, 16), 3)
        assert to_exact(fp_add(a, b, 3)) == 1

    def test_mul_by_one(self):
        for x in (Fraction(7, 8), Fraction(-3), Fraction(13, 4)):
            a = fl(x, 5)
            assert fp_mul(a, fl(1, 5), 5) == a

    def test_division_by_zero(self):
        with pytest.raises(FpDivisionByZero):
            fp_div(fl(1, 8), fp_zero(), 8)

    def test_powers_of_two_exact(self):
        p = 4
        a = fl(2, p)
        r = fp_mul(fp_mul(a, a, p), a, p)
        assert to_exact(r) == 8

    @given(rationals, rationals, precisions)
    @settings(max_examples=300)
    def test_ops_match_exact_then_round(self, x, y, t):
        a, b = fl(x, t), fl(y, t)
        va, vb = to_exact(a), to_exact(b)
        assert fp_add(a, b, t) == fl(va + vb, t)
        assert fp_sub(a, b, t) == fl(va - vb, t)
        assert fp_mul(a, b, t) == fl(va * vb, t)
        if not b.is_zero:
            assert fp_div(a, b, t) == fl(va / vb, t)

    @given(
        rationals,
        rationals,
        st.sampled_from([3, 256]),
        st.sampled_from([-(2**20), 0, 2**20]),
        st.sampled_from([-(2**20), 0, 2**20]),
    )
    @settings(max_examples=200)
    def test_div_at_extreme_exponents(self, x, y, t, sa, sb):
        # scaling by powers of two commutes with rounding when exponents
        # are unbounded, so the oracle runs on the unscaled quotient
        a, b = fl(x, t), fl(y, t)
        big_a = FpNumber(a.sign, a.mantissa, a.exponent + sa)
        big_b = FpNumber(b.sign, b.mantissa, b.exponent + sb)
        q = fp_div(big_a, big_b, t)
        unscaled = FpNumber(q.sign, q.mantissa, q.exponent - (sa - sb))
        assert to_exact(unscaled) == oracle_round(to_exact(a) / to_exact(b), t)

    @given(
        st.integers(min_value=-(2**600), max_value=2**600).filter(bool),
        st.integers(min_value=1, max_value=2**300),
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=-500, max_value=500),
        precisions,
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_div_mixed_widths(self, ma, mb, ea, eb, t, exact_quotient):
        # operands of any width; with exact_quotient the division has no
        # remainder, and a quotient wider than t bits may be an exact tie
        if exact_quotient:
            ma *= mb
        a, b = dyadic(ma, ea), dyadic(mb, eb)
        assert to_exact(fp_div(a, b, t)) == oracle_round(to_exact(a) / to_exact(b), t)

    @given(rationals, precisions, st.integers(min_value=-400, max_value=400))
    @settings(max_examples=200)
    def test_add_far_apart_operands(self, x, t, shift):
        # exercises the sticky path with arbitrary exponent gaps
        a = fl(x, t)
        b = fl(x * Fraction(2) ** shift + Fraction(1, 3), t)
        va, vb = to_exact(a), to_exact(b)
        assert fp_add(a, b, t) == fl(va + vb, t)
        assert fp_sub(a, b, t) == fl(va - vb, t)

    @pytest.mark.parametrize("t", [3, 53, 256])
    def test_far_operand_decides_a_wide_tie(self, t):
        # a is t + 1 bits wide and an exact tie on its own, which rounds to
        # even (down); a far tiny b moves the sum off the tie, either way
        a = dyadic((1 << t) + 1, 0)
        b = dyadic(1, -t - 300)
        va, vb = to_exact(a), to_exact(b)
        assert to_exact(fp_add(a, b, t)) == oracle_round(va + vb, t) == (1 << t) + 2
        assert to_exact(fp_sub(a, b, t)) == oracle_round(va - vb, t) == 1 << t

    def test_cancellation_is_exact(self):
        t = 6
        a = fl(Fraction(33, 32), t)
        b = fl(1, t)
        assert to_exact(fp_sub(a, b, t)) == to_exact(a) - 1

    def test_power_of_two_minus_tiny(self):
        t = 8
        a = fl(1, t)
        b = fl(Fraction(1, 2**200), t)
        assert to_exact(fp_sub(a, b, t)) == 1
        # just below the tie with the largest number under 1
        c = fl(Fraction(1, 2**9) + Fraction(1, 2**80), t)
        assert fp_sub(a, c, t) == fl(1 - to_exact(c), t)


class TestComparisons:
    @given(rationals, rationals, precisions)
    @settings(max_examples=200)
    def test_order_agrees_with_exact(self, x, y, t):
        a, b = fl(x, t), fl(y, t)
        assert (a < b) == (to_exact(a) < to_exact(b))
        assert (a == b) == (to_exact(a) == to_exact(b))

    def test_equality_across_precisions(self):
        assert fl(1, 3) == fl(1, 53)
        assert hash(fl(1, 3)) == hash(fl(1, 53))


class TestPrecision:
    def test_u_value(self):
        assert Precision(3).u == Fraction(1, 8)
        assert Precision(53).u == Fraction(1, 2**53)

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            Precision(2)


wide_mantissas = st.integers(min_value=-(2**400), max_value=2**400)
exponents = st.integers(min_value=-1100, max_value=1100)


class TestKernel:
    """The arithmetic builds its results without the constructor's checks;
    these pin the results bit-for-bit and the checks the public API keeps."""

    @given(wide_mantissas, exponents, wide_mantissas, exponents, precisions, st.booleans())
    @settings(max_examples=300)
    def test_wide_operands_match_oracle(self, ma, ea, mb, eb, t, as_precision):
        # operands wider than t, as dyadic and the Strassen inputs build them
        a, b = dyadic(ma, ea), dyadic(mb, eb)
        va, vb = to_exact(a), to_exact(b)
        p = Precision(t) if as_precision else t
        assert to_exact(fl(a, p)) == oracle_round(va, t)
        assert to_exact(fp_add(a, b, p)) == oracle_round(va + vb, t)
        assert to_exact(fp_sub(a, b, p)) == oracle_round(va - vb, t)
        assert to_exact(fp_mul(a, b, p)) == oracle_round(va * vb, t)
        if vb:
            assert to_exact(fp_div(a, b, p)) == oracle_round(va / vb, t)
        for r in (fl(a, p), fp_add(a, b, p), fp_mul(a, b, p)):
            assert r.mantissa.bit_length() <= t
            assert r == FpNumber(r.sign, r.mantissa, r.exponent)

    @pytest.mark.parametrize("p", [3, 53, Precision(53), Precision(256)])
    def test_zeros(self, p):
        z = fp_zero()
        a = dyadic(-(3**70), -5)
        for r in (dyadic(0, 9), -z, abs(z), fp_add(z, z, p), fp_sub(a, a, p),
                  fp_mul(z, a, p), fp_mul(a, z, p), fp_div(z, a, p), fl(z, p)):
            assert (r.sign, r.mantissa, r.exponent) == (1, 0, 0)
            assert r == z and hash(r) == hash(z)
        assert fp_add(z, a, p) == fl(a, p) == fp_add(a, z, p)
        with pytest.raises(FpDivisionByZero):
            fp_div(a, z, p)

    def test_equal_values_of_different_widths(self):
        a, b = FpNumber(1, 6, 3), FpNumber(1, 3, 3)  # both 6, mantissa widths 3 and 2
        assert to_exact(a) == to_exact(b) == 6
        assert a == b and hash(a) == hash(b)
        assert FpNumber(1, 6, 3) != FpNumber(-1, 6, 3) and FpNumber(1, 6, 3) != FpNumber(1, 6, 4)
        assert FpNumber(1, 6, 3) != FpNumber(1, 7, 3)

    def test_results_are_immutable(self):
        a = fl(Fraction(1, 3), 53)
        for r in (a, -a, abs(-a), fp_add(a, a, 53), fp_mul(a, a, 53), dyadic(5, 2), fp_zero()):
            with pytest.raises(AttributeError):
                r.sign = -1
            with pytest.raises(AttributeError):
                setattr(r, "mantissa", 1)

    def test_public_checks_kept(self):
        with pytest.raises(ValueError):
            FpNumber(-1, -1, 0)
        with pytest.raises(ValueError):
            FpNumber(2, 1, 0)
        a = fl(1, 8)
        for op in (fp_add, fp_sub, fp_mul, fp_div):
            with pytest.raises(ValueError):
                op(a, a, 2)
        with pytest.raises(ValueError):
            fl(a, 2)
