import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabilis.fpcore import Precision, fl, to_exact
from stabilis.reals import CertifiedReal, Interval, exp_iv, log_iv, pi_real, sqrt_iv
from stabilis.relmetric import (
    BOX_BITS,
    DimensionMismatch,
    InfiniteDistanceError,
    RelPoint,
    abs_dist,
    ball_box,
    factor_bounds,
    geodesic_point,
    philox_stream,
    rel_ball_sample,
    rel_dist,
    rel_sphere_sample,
    rel_step,
    sample_bits,
    scaled_dists,
    step_enclosures,
    step_factors,
    step_midpoint_error,
)

LOG2 = 0.6931471805599453


def coords(min_dim=1, max_dim=4):
    nonzero = st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
    )
    signed = st.tuples(nonzero, st.sampled_from([-1, 1])).map(lambda p: p[0] * p[1])
    return st.lists(signed, min_size=min_dim, max_size=max_dim)


class TestRelDist:
    def test_unit_to_e(self):
        e = CertifiedReal(lambda b: exp_iv(Fraction(1), b))
        d = rel_dist(RelPoint.of(1), RelPoint.of(e))
        assert abs(d - 1) < Fraction(1, 10**40)

    def test_product_metric_of_doublings(self):
        d = rel_dist(RelPoint.of(1, 2), RelPoint.of(2, 4))
        assert abs(float(d) - math.sqrt(2) * LOG2) < 1e-15

    def test_opposite_signs_infinite(self):
        assert rel_dist(RelPoint.of(1), RelPoint.of(-1)) == math.inf

    def test_zero_coordinate_matching(self):
        assert rel_dist(RelPoint.of(0, 1), RelPoint.of(0, 1)) == 0
        assert rel_dist(RelPoint.of(0, 1), RelPoint.of(1, 1)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rel_dist(RelPoint.of(1), RelPoint.of(1, 2))

    @given(coords(), coords(), coords())
    @settings(max_examples=100)
    def test_metric_axioms(self, a, b, c):
        n = min(len(a), len(b), len(c))
        x, y, z = RelPoint(a[:n]), RelPoint(b[:n]), RelPoint(c[:n])
        # force one component by matching signs to x
        y = RelPoint([v if sx == (1 if v > 0 else -1) else -v for v, sx in zip(y.coords, x.pattern)])
        z = RelPoint([v if sx == (1 if v > 0 else -1) else -v for v, sx in zip(z.coords, x.pattern)])
        dxy, dyx = rel_dist(x, y), rel_dist(y, x)
        assert abs(dxy - dyx) < Fraction(1, 2**100)
        assert rel_dist(x, x) == 0
        if x.coords != y.coords:
            assert dxy > 0
        slack = Fraction(1, 2**100)
        assert rel_dist(x, z) <= dxy + rel_dist(y, z) + slack

    @given(coords(min_dim=2, max_dim=5))
    @settings(max_examples=50)
    def test_product_metric_identity(self, a):
        b = [v * Fraction(3, 2) if i % 2 == 0 else v for i, v in enumerate(a)]
        x, y = RelPoint(a), RelPoint(b)
        total = sum(rel_dist(RelPoint.of(p), RelPoint.of(q)) ** 2 for p, q in zip(a, b))
        d = rel_dist(x, y)
        assert abs(d * d - total) < Fraction(1, 2**80)

    @given(coords(min_dim=1, max_dim=6), st.sampled_from([3, 11, 24, 53]))
    @settings(max_examples=60)
    def test_rounding_stays_within_metric_bound(self, a, t):
        # dist(x, fl(x)) < 2 sqrt(d) u, compared in squared (exact) form
        x = RelPoint(a)
        rounded = RelPoint([to_exact(fl(c, t)) for c in a])
        u = Precision(t).u
        d = rel_dist(x, rounded)
        assert d * d < 4 * len(a) * u * u


class TestGeodesic:
    def test_log_midpoint(self):
        z = geodesic_point(RelPoint.of(1), RelPoint.of(4), Fraction(1, 2))
        assert z.coords[0] == 2

    def test_endpoint_parameters(self):
        x, y = RelPoint.of(3, 5), RelPoint.of(6, 5)
        assert geodesic_point(x, y, 0) is x
        assert geodesic_point(x, y, 1) is y

    def test_infinite_pair_rejected(self):
        with pytest.raises(InfiniteDistanceError):
            geodesic_point(RelPoint.of(1), RelPoint.of(-1), Fraction(1, 2))

    @given(coords(min_dim=1, max_dim=3), st.fractions(min_value=0, max_value=1, max_denominator=64))
    @settings(max_examples=50)
    def test_proportional_distance(self, a, s):
        x = RelPoint(a)
        y = RelPoint([v * Fraction(7, 3) for v in a])
        z = geodesic_point(x, y, s)
        dxz, dxy = rel_dist(x, z), rel_dist(x, y)
        assert abs(dxz - s * dxy) < Fraction(1, 2**60)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=32))
    @settings(max_examples=30)
    def test_additivity_along_the_curve(self, s):
        x, y = RelPoint.of(2, 9), RelPoint.of(5, 1)
        z = geodesic_point(x, y, s)
        lhs = rel_dist(x, z) + rel_dist(z, y)
        assert abs(lhs - rel_dist(x, y)) < Fraction(1, 2**60)


class TestIntegerPaths:
    """The integer paths of the distances against their Fraction formulas."""

    @given(coords(min_dim=3, max_dim=3), coords(min_dim=3, max_dim=3), st.booleans())
    @settings(max_examples=100)
    def test_rational_distances_match_fraction_reference(self, a, b, mixed):
        x = RelPoint(a)
        y = RelPoint([abs(v) if sx > 0 else -abs(v) for v, sx in zip(b, x.pattern)])
        sq = [log_iv(abs(p / q), 192) for p, q in zip(x.coords, y.coords) if p != q]
        total = sq and sum(((lg * lg).rescale(400) for lg in sq[1:]), (sq[0] * sq[0]).rescale(400))
        ref = sqrt_iv(total.rescale(400).clip_nonneg(), 192).midpoint() if sq else 0
        assert rel_dist(x, y) == ref
        exact = sum(((p - q) ** 2 for p, q in zip(x.coords, y.coords)), Fraction(0))
        assert abs_dist(x, y) == (sqrt_iv(exact, 192).midpoint() if exact else 0)
        if mixed:  # one enclosure among the coordinates: the sums meet at interval scale
            yc = RelPoint([CertifiedReal(lambda bits, v=y.coords[0]: Interval.from_fraction(v, bits))]
                          + list(y.coords[1:]))
            d = x.coords[0] - y.coords[0]
            iv = Interval.from_fraction(d * d, 400) + Interval.from_fraction(exact - d * d, 400)
            assert abs(abs_dist(x, yc) - sqrt_iv(iv, 192).midpoint()) < Fraction(1, 2**180)

    @given(st.lists(st.tuples(st.integers(-2**80, 2**80), st.integers(-2**80, 2**80)), min_size=1, max_size=5),
           st.integers(-300, 300), st.booleans())
    @settings(max_examples=150)
    def test_scaled_integers_match_the_distances(self, pairs, scale, same):
        xs = [a for a, _ in pairs]
        # same: y's coordinates take x's signs, mostly one component
        ys = [((a > 0) - (a < 0)) * abs(b) if same else b for a, b in pairs]
        x, y = (RelPoint([Fraction(v) * Fraction(2) ** scale for v in vs]) for vs in (xs, ys))
        rel, dist = scaled_dists(xs, ys, scale)
        want = rel_dist(x, y)
        assert rel == want if want == math.inf else (0 if rel is None else rel.midpoint()) == want
        assert abs_dist(x, y) == (0 if dist is None else dist.midpoint())


class TestAbsDist:
    def test_unit_square_diagonal(self):
        assert abs(abs_dist(RelPoint.of(1, 0), RelPoint.of(0, 1)) ** 2 - 2) < Fraction(1, 2**100)

    def test_identity(self):
        assert abs_dist(RelPoint.of(3, 4), RelPoint.of(3, 4)) == 0

    def test_strassen_matrices_at_eps_tenth(self):
        eps = Fraction(1, 10)
        a = RelPoint.of(1, eps, eps, 1)
        c = RelPoint.of(1 + eps**2, 2 * eps, 2 * eps, 1 + eps**2)
        expected = 2 * eps**2 + 2 * eps**4
        d = abs_dist(a, c)
        assert abs(d * d - expected) < Fraction(1, 2**100)
        assert abs(float(d) - 0.14212670403551895) < 1e-15


class TestPhiloxStream:
    @staticmethod
    def fresh(seed, counter):
        return np.random.Generator(np.random.Philox(key=seed, counter=counter))

    def test_draws_match_fresh_generators(self):
        rng = random.Random(7)
        seed = rng.getrandbits(128)
        at = philox_stream(seed)
        for i in range(1000):
            for kind in (0, 1, 2):
                # words below 2**63: numpy reads a larger one through a float
                counter = [0, rng.getrandbits(62) if i % 2 else i % 5, kind, i]
                got = at(counter).standard_normal(8)
                assert np.array_equal(got, self.fresh(seed, counter).standard_normal(8))

    def test_ball_sample_order_with_a_redraw(self):
        at = philox_stream(42)
        for i in range(50):
            counter = [0, 0, 0, i]
            a, b = at(counter), self.fresh(42, counter)
            # rel_ball_sample: the radius ticks, a direction, then a redrawn direction
            assert int(a.integers(0, 2**53)) == int(b.integers(0, 2**53))
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))

    def test_reset_discards_buffered_output(self):
        at = philox_stream(5)
        gen = at([0, 0, 1, 3])
        gen.random(dtype=np.float32)  # leaves half a 64-bit word buffered
        assert gen.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(at([0, 0, 1, 4]).random(5, dtype=np.float32),
                              self.fresh(5, [0, 0, 1, 4]).random(5, dtype=np.float32))


class TestBallSampling:
    def test_within_radius_and_component(self):
        x = RelPoint.of(2, -3, Fraction(1, 7))
        r = Fraction(1, 4)
        pts = rel_ball_sample(x, r, 24, seed=11)
        assert len(pts) == 24
        for y in pts:
            assert y.pattern == x.pattern
            assert rel_dist(x, y) <= r

    def test_zero_point_ball_is_trivial(self):
        z = RelPoint.of(0, 0)
        pts = rel_ball_sample(z, Fraction(1, 2), 5, seed=3)
        assert all(p.coords == z.coords for p in pts)

    def test_deterministic(self):
        x = RelPoint.of(1, 5)
        a = rel_ball_sample(x, Fraction(1, 8), 6, seed=42)
        b = rel_ball_sample(x, Fraction(1, 8), 6, seed=42)
        assert [p.coords for p in a] == [q.coords for q in b]
        c = rel_ball_sample(x, Fraction(1, 8), 6, seed=43)
        assert [p.coords for p in a] != [q.coords for q in c]

    def test_sphere_sample_hits_radius(self):
        x = RelPoint.of(1, 1, 1)
        r = Fraction(1, 10)
        for y in rel_sphere_sample(x, r, 8, seed=5):
            d = rel_dist(x, y)
            assert d <= r
            assert d > r * Fraction(999, 1000)

    @pytest.mark.parametrize("x", [RelPoint.of(pi_real() * 2**200 + 1), RelPoint.of(3, Fraction(-5, 7))],
                             ids=["certified", "rational"])
    def test_tiny_radius_stays_in_the_ball(self, x):
        # at a fixed 192 bits a step factor's own error exceeds r by far;
        # DIST_BITS = 192 cannot resolve distances near r, hence 800 bits
        r = Fraction(1, 2**250)
        for y in rel_sphere_sample(x, r, 8, seed=3):
            assert r * (1 - Fraction(1, 2**60)) <= rel_dist(x, y, bits=800) <= r
        for y in rel_ball_sample(x, r, 8, seed=3):
            assert rel_dist(x, y, bits=800) <= r

    def test_sample_bits(self):
        F = Fraction
        small = RelPoint.of(F(-7, 2), 2**111, pi_real() * 2**100)
        for r in (F(1), F(1, 2**112), F(3, 2**113)):
            assert sample_bits(small, r) == 192
        assert sample_bits(small, F(1, 2**112 + 1)) == 193
        assert sample_bits(small, F(1, 2**250)) == 330
        assert sample_bits(RelPoint.of(F(1, 3), F(2**150 + 1, 2)), F(1, 8)) == 192  # a rational steps exactly
        assert sample_bits(RelPoint.of(pi_real() * 2**200 + 1, 0), F(1, 8)) == 80 + 202


def spec_factors(v, rho, bits):
    """The relative step written out in Fractions, exactly as it is specified."""
    vf = [Fraction(c) for c in v]
    nrm = sqrt_iv(sum(c * c for c in vf), bits)
    return [
        exp_iv(Interval.from_fraction(rho * c, bits).divide(nrm, bits), bits).midpoint()
        for c in vf
    ]


def binade(q: Fraction) -> int:
    """k with 2**k <= q < 2**(k+1), for q > 0."""
    k = q.numerator.bit_length() - q.denominator.bit_length()
    return k - 1 if q < Fraction(2) ** k else k


finite = st.floats(allow_nan=False, allow_infinity=False)
tiny = st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False)
huge = st.floats(min_value=1e200, max_value=1e300) | st.floats(min_value=-1e300, max_value=-1e200)
directions = st.one_of(
    st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=1, max_size=6),
    st.lists(finite, min_size=1, max_size=6),
    st.lists(tiny, min_size=1, max_size=6),  # subnormal scale
    st.tuples(huge, tiny, finite).map(list),  # mixed magnitudes
    st.tuples(st.lists(st.floats(-8, 8), min_size=1, max_size=4), st.integers(-40, 40)).map(
        lambda p: [c * 2.0 ** p[1] for c in p[0]]  # around the rescaling threshold
    ),
).filter(any)
radii = st.one_of(
    st.just(Fraction(1, 2)),
    st.fractions(min_value=Fraction(1, 10**6), max_value=2, max_denominator=10**6).map(
        lambda r: r * (1 - Fraction(1, 2**64))
    ),
    st.fractions(min_value=Fraction(-2), max_value=2, max_denominator=10**9),
)


class TestRelStep:
    @given(directions, radii, st.sampled_from([64, 176, 192]))
    @settings(max_examples=300)
    def test_factors_match_the_spec_bit_for_bit(self, v, rho, bits):
        got = [Fraction(m) * Fraction(2) ** e for m, e in step_factors(v, rho, bits)]
        k = binade(max(abs(Fraction(c)) for c in v))
        # far from 1, the direction is taken at the binade of its largest entry
        scaled = v if -32 <= k <= 32 else [Fraction(c) / Fraction(2) ** k for c in v]
        assert got == spec_factors(scaled, rho, bits)

    @given(directions, radii.filter(lambda r: abs(r) <= 1), st.sampled_from([64, 176, 192]))
    @settings(max_examples=200)
    def test_midpoints_lie_within_the_error_bound(self, v, rho, bits):
        # each midpoint lies within half its enclosure's width of the factor
        k = step_midpoint_error(v, bits)
        for e in step_enclosures(v, rho, bits):
            assert Fraction(e.hi - e.lo, 2 ** (e.scale + 1)) <= Fraction(1, 2**k)
        # so the low-width bounds widened by 2**-k hold each midpoint: at the
        # probe's BOX_BITS and at Strassen's t + 32 for t = 24, 53, 113
        mids = [Fraction(m) * Fraction(2) ** e for m, e in step_factors(v, rho, bits)]
        for low in (BOX_BITS, 24 + 32, 53 + 32, 113 + 32):
            for mid, b in zip(mids, factor_bounds(v, rho, low, bits)):
                assert 0 < b.lower() <= mid <= b.upper()

    @given(st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=3, max_size=3).filter(any)
           | st.lists(tiny, min_size=3, max_size=3).filter(any),
           radii.filter(lambda r: abs(r) <= 1), st.sampled_from([176, 240]))
    @settings(max_examples=100)
    def test_ball_box_holds_the_stepped_point(self, v, rho, bits):
        x = RelPoint.of(Fraction(-3, 7), 5, 0, Fraction(1, 2**40))
        y = rel_step(x, v, rho, None, bits)
        box = ball_box(x, abs(rho), bits)
        for iv, c in zip(box, y.coords):
            assert iv.lower() <= c <= iv.upper()
        assert box[2].lo == box[2].hi == 0

    def test_direction_length_does_not_matter_far_from_one(self):
        v = [3e-310, -1e-311, 2e-309]
        ref = step_factors(v, Fraction(1, 3), 176)
        for k in (1, 40, 900):
            assert step_factors([c * 2.0**k for c in v], Fraction(1, 3), 176) == ref

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            step_factors([0.0, -0.0], Fraction(1, 2), 176)

    @given(st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=5, max_size=5).filter(any),
           st.fractions(min_value=Fraction(1, 10**6), max_value=1, max_denominator=10**6))
    @settings(max_examples=40)
    def test_step_has_length_rho(self, v, rho):
        x = RelPoint.of(Fraction(-3, 7), 5, pi_real(), -(pi_real() / 3), Fraction(1, 2**40))
        d = rel_dist(x, rel_step(x, v, rho))
        assert abs(d - rho) < Fraction(1, 2**150)

    def test_step_on_a_support(self):
        x = RelPoint.of(2, 0, -1)
        y = rel_step(x, [1], Fraction(1, 8), chi=(2,))
        assert y.coords[:2] == x.coords[:2] and y.coords[2] < -1
        assert abs(rel_dist(x, y) - Fraction(1, 8)) < Fraction(1, 2**150)


class TestRelStepSigns:
    """rel_step keeps x's sign pattern without deciding any sign."""

    @staticmethod
    def point():
        return RelPoint.of(Fraction(-3, 7), 5, pi_real(), -(pi_real() / 3), Fraction(1, 2**40), 0)

    @pytest.mark.parametrize("chi", [None, (2,), (0, 3), (1, 2, 4), (3, 5), (0, 1, 2, 3, 4, 5)])
    @given(st.lists(st.floats(min_value=-8, max_value=8, allow_nan=False), min_size=6, max_size=6).filter(any),
           radii)
    @settings(max_examples=25)
    def test_pattern_and_coordinates(self, chi, v, rho):
        x = self.point()
        idx = x.chi() if chi is None else chi
        v = v[:len(idx)]
        assume(any(v))
        y = rel_step(x, v, rho, chi)
        assert y.pattern == x.pattern == RelPoint(y.coords).pattern
        factors = dict(zip(idx, step_factors(v, rho, 176 + 16)))
        for i, (c, got) in enumerate(zip(x.coords, y.coords)):
            if i not in factors:
                assert got is c
                continue
            m, e = factors[i]
            want = c * (Fraction(m) * Fraction(2) ** e)
            if isinstance(c, Fraction):
                assert got == want
            else:
                a, b = got.enclosure(256), want.enclosure(256)
                assert (a.lo, a.hi, a.scale) == (b.lo, b.hi, b.scale)

    @pytest.mark.parametrize("chi", [None, (2,), (2, 3)])
    def test_no_enclosure_is_requested(self, chi, monkeypatch):
        x = self.point()
        asked = []
        enclosure = CertifiedReal.enclosure
        monkeypatch.setattr(CertifiedReal, "enclosure", lambda self, bits: asked.append(bits) or enclosure(self, bits))
        y = rel_step(x, [0.5, -1.25, 2.0, 0.75][:len(x.chi() if chi is None else chi)], Fraction(1, 8), chi)
        assert asked == []
        assert RelPoint(y.coords).pattern == x.pattern
        assert asked  # the check above decides the certified-real signs
