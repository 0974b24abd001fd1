import math
import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_point
from stabilis import condition
from stabilis.catalog import CatalogFunction, DomainError, catalog_function, compose, sqrt_real, strassen_input
from stabilis.condition import (
    FLOAT_FLOOR,
    _dominates,
    composition_upper_bound,
    dist_bounds,
    kappa_closed_form,
    kappa_from_jacobian,
    kappa_jacobian,
    kappa_sampled,
    spectral_norm,
    stacking_bounds,
)
from stabilis.fpcore import fl, to_exact
from stabilis.reals import CertifiedReal, Interval, pi_real
from stabilis.relmetric import (
    BOX_BITS,
    RelPoint,
    factor_bounds,
    rel_dist,
    rel_step,
    sample_bits,
    step_factors,
    step_stream,
)
from test_acceptance import CATALOG_FOR_CROSSCHECK

rng = random.Random(91)
rand_point = partial(random_point, rng, lo=0.2, hi=6.0)


def charpoly_sigma_max(rows: list[list[Fraction]]) -> Fraction:
    """Oracle: sqrt of the largest eigenvalue of M^T M via exact
    characteristic polynomial (Faddeev-LeVerrier) and rational bisection."""
    m = len(rows[0])
    # A = M^T M, exact
    A = [[sum(rows[r][i] * rows[r][j] for r in range(len(rows))) for j in range(m)] for i in range(m)]

    def mat_mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

    def trace(X):
        return sum(X[i][i] for i in range(m))

    # Faddeev-LeVerrier: p(x) = x^m + c1 x^(m-1) + ... + cm
    cs = []
    Mk = [[Fraction(0)] * m for _ in range(m)]
    I = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        if k == 1:
            Mk = I
        else:
            AM = mat_mul(A, Mk)
            Mk = [[AM[i][j] + (cs[-1] if i == j else 0) for j in range(m)] for i in range(m)]
        AM = mat_mul(A, Mk)
        ck = -trace(AM) / k
        cs.append(ck)

    coeffs = [Fraction(1)] + cs  # monic, highest degree first

    def beyond_all_roots(x: Fraction) -> bool:
        # the charpoly of a symmetric matrix is real-rooted: x exceeds every
        # root iff p and all of its derivatives are positive at x
        cur = coeffs
        while len(cur) > 1:
            acc = Fraction(0)
            for c in cur:
                acc = acc * x + c
            if acc <= 0:
                return False
            n = len(cur) - 1
            cur = [c * (n - i) for i, c in enumerate(cur[:-1])]
        return True

    hi = 1 + max(sum(abs(v) for v in row) for row in A)
    lo = Fraction(0)
    assert beyond_all_roots(hi)
    for _ in range(90):
        mid = (lo + hi) / 2
        if beyond_all_roots(mid):
            hi = mid
        else:
            lo = mid
    from stabilis.catalog import _sqrt_mid

    return _sqrt_mid((lo + hi) / 2)


def mpmath_sigma_max(rows) -> mpmath.mpf:
    """Reference: 400-bit SVD of the entries as rounded to 192 bits."""
    with mpmath.workprec(400):
        exact = [[to_exact(fl(v, 192)) for v in row] for row in rows]
        M = mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator for v in row] for row in exact])
        return max(mpmath.svd_r(M, compute_uv=False))


_ratios = st.fractions(min_value=-4, max_value=4, max_denominator=10**15)
_entries = st.one_of(
    _ratios,
    st.builds(lambda q, e: q * Fraction(10) ** e, _ratios, st.sampled_from([-300, 300])),
    st.builds(lambda c, q: c * q, st.sampled_from([pi_real(), sqrt_real(Fraction(2))]),
              st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)),
)


@st.composite
def _matrices(draw):
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    if draw(st.booleans()):  # rank one: an outer product
        u = draw(st.lists(_entries, min_size=n, max_size=n))
        w = draw(st.lists(_entries, min_size=m, max_size=m))
        return [[a * b for b in w] for a in u]
    return draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=n, max_size=n))


class TestSpectralNorm:
    @given(_matrices())
    @example([[Fraction(k, 3) for k in range(-4, 4)]])
    @example([[Fraction(k, 3)] for k in range(-3, 4)])
    @example([[Fraction(i + 1, 7) * (j - 3) for j in range(8)] for i in range(7)])
    @example([[Fraction(10) ** 300, Fraction(-1, 3)], [Fraction(10) ** -300, Fraction(10) ** 300]])
    @example([[pi_real(), sqrt_real(Fraction(2))], [-sqrt_real(Fraction(2)), pi_real() * Fraction(1, 3)]])
    # the off-diagonal of the Gram matrix is lost in float64, so the seed is
    # off by 2**-69 relative and the upward search and the bisection both run
    @example([[1, Fraction(1, 2**70)], [Fraction(1, 2**70), 1]])
    @settings(max_examples=60)
    def test_within_2_pow_minus_100_of_mpmath_svd(self, rows):
        sigma = mpmath_sigma_max(rows)
        got = spectral_norm(rows)
        with mpmath.workprec(400):
            assert abs(mpmath.mpf(got.numerator) / got.denominator - sigma) <= sigma * mpmath.mpf(2) ** -100

    @pytest.mark.parametrize("s,G,psd", [
        (1, [[1, 1], [1, 1]], False),  # zero diagonal, nonzero off-diagonal
        (2, [[1, 1], [1, 1]], True),
        (2 - Fraction(1, 2**100), [[1, 1], [1, 1]], False),
        (4, [[4, 0], [0, 0]], True),
        (0, [[4, 0], [0, 0]], False),
        (0, [[0, 0], [0, 0]], True),
        (3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], False),  # eigenvalues 2 - sqrt 2, 2, 2 + sqrt 2
        (Fraction(3414213563, 10**9), [[2, 1, 0], [1, 2, 1], [0, 1, 2]], True),
        (Fraction(3414213562, 10**9), [[2, 1, 0], [1, 2, 1], [0, 1, 2]], False),
    ])
    def test_dominance_is_decided_exactly(self, s, G, psd):
        assert _dominates(s, G) is psd

    def test_identity(self):
        assert spectral_norm([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_nilpotent(self):
        assert spectral_norm([[0, 2], [0, 0]]) == 2

    def test_zero_matrix(self):
        assert spectral_norm([[0, 0], [0, 0]]) == 0

    def test_against_charpoly_oracle_5x5(self):
        for _ in range(3):
            rows = [[Fraction(rng.uniform(-2, 2)).limit_denominator(997) for _ in range(5)] for _ in range(5)]
            got = spectral_norm(rows)
            ref = charpoly_sigma_max(rows)
            assert abs(got - ref) <= Fraction(1, 10**12) * max(ref, 1)


class TestClosedForms:
    def test_product_sqrt_k(self):
        f = catalog_function("product", k=3)
        r = kappa_closed_form(f, RelPoint.of(1, 2, 3))
        assert abs(r.kappa ** 2 - 3) < Fraction(1, 2**100)

    def test_product_with_zero_coordinate(self):
        f = catalog_function("product", k=3)
        assert kappa_closed_form(f, RelPoint.of(1, 0, 3)).kappa == 0

    def test_sum_at_ones(self):
        f = catalog_function("sum", k=2)
        r = kappa_closed_form(f, RelPoint.of(1, 1))
        assert abs(r.kappa ** 2 - Fraction(1, 2)) < Fraction(1, 2**100)

    def test_sum_singular(self):
        f = catalog_function("sum", k=2)
        r = kappa_closed_form(f, RelPoint.of(1, -1))
        assert r.kappa == math.inf and r.kappa_tilde == math.inf

    def test_sum_permutation_invariant(self):
        f = catalog_function("sum", k=4)
        vals = [Fraction(3), Fraction(-1), Fraction(7), Fraction(2)]
        base = kappa_closed_form(f, RelPoint(vals)).kappa
        perm = vals[::-1]
        assert kappa_closed_form(f, RelPoint(perm)).kappa == base

    def test_sqrt_is_half(self):
        f = catalog_function("sqrt")
        assert kappa_closed_form(f, RelPoint.of(Fraction(7, 3))).kappa == Fraction(1, 2)

    def test_sin_at_half_pi_vanishes(self):
        from stabilis.reals import pi_real

        f = catalog_function("sin")
        r = kappa_closed_form(f, RelPoint.of(pi_real() * Fraction(1, 2)))
        assert abs(r.kappa) < Fraction(1, 10**30)

    def test_univariate_square(self):
        f = catalog_function("power", exponent=2)
        assert kappa_closed_form(f, RelPoint.of(3)).kappa == 2

    def test_identity_map(self):
        f = catalog_function("linear_map", rows=[[1]])
        assert kappa_jacobian(f, RelPoint.of(5)).kappa == 1


class TestJacobianAgreesWithClosedForm:
    FUNCTIONS = [
        ("product", dict(k=4), 4, True),
        ("sum", dict(k=4), 4, True),
        ("hadamard", dict(k=3), 6, True),
        ("tensor_product", dict(k=2, l=3), 5, True),
        ("inner_product", dict(k=3), 6, True),
        ("copy", dict(k=3), 3, True),
        ("squared_norm", dict(k=4), 4, True),
        ("norm2", dict(k=4), 4, False),
        ("power", dict(exponent=3), 1, True),
        ("affine", dict(op="add", alpha=Fraction(5, 3)), 1, True),
        ("matmul_entry", dict(i=2, j=1), 8, True),
    ]

    @pytest.mark.parametrize("fid,kw,dim,signed", FUNCTIONS)
    def test_agreement(self, fid, kw, dim, signed):
        f = catalog_function(fid, **kw)
        for _ in range(10):
            x = rand_point(dim, signed=signed)
            kc = kappa_closed_form(f, x).kappa
            kj = kappa_jacobian(f, x).kappa
            if kc == math.inf:
                continue
            assert abs(kc - kj) <= Fraction(1, 10**12) * max(1, kc), f.id


class TestZeroOutputs:
    """Where an output is an exact 0, the derivative route agrees with the
    closed form: a row constant to first order drops, and a nonzero
    partial makes kappa infinite."""

    MAPS = [
        ("product", dict(k=3)),
        ("sum", dict(k=3)),
        ("hadamard", dict(k=2)),
        ("tensor_product", dict(k=2, l=2)),
        ("linear_map", dict(rows=[[1, -2, 3]])),
        ("inner_product", dict(k=2)),
        ("copy", dict(k=2)),
        ("squared_norm", dict(k=2)),
        ("power", dict(exponent=3)),
        ("affine", dict(op="add", alpha=-2)),
        ("affine", dict(op="mul", alpha=3)),
        ("matmul_entry", dict(i=1, j=2)),
    ]

    @pytest.mark.parametrize("fid,kw", MAPS)
    def test_derivative_route_matches_the_closed_form(self, fid, kw):
        f = catalog_function(fid, **kw)
        draw = random.Random(5)
        seen = 0
        for _ in range(300):
            xs = tuple(Fraction(draw.randint(-2, 3)) for _ in range(f.in_dim))
            if all(f.exact(xs)):
                continue
            seen += 1
            kc, kj = f.kappa_closed(xs), kappa_jacobian(f, RelPoint(xs)).kappa
            if kc in (0, math.inf):
                assert kj == kc, xs
            else:
                assert abs(kc - kj) <= Fraction(1, 10**12) * kc, xs
        assert seen

    def test_zeros_of_second_order(self):
        # outputs 0 with no first partial but a nonzero second one leave 0
        # in every neighbourhood: m_1 = (a11 + a22)(b11 + b22), and (x + y)^2
        h, x = catalog_function("strassen_h"), RelPoint(tuple(map(Fraction, (1, 0, 0, -1) * 2)))
        assert kappa_jacobian(h, x).kappa == math.inf == kappa_sampled(h, x, n_dirs=16).kappa
        square = compose(catalog_function("power", exponent=2), catalog_function("sum", k=2))
        assert kappa_jacobian(square, RelPoint.of(3, -3)).kappa == math.inf


class TestSampledEstimator:
    def test_product_within_two_percent(self):
        f = catalog_function("product", k=3)
        rep = kappa_sampled(f, RelPoint.of(1, 2, 3), n_dirs=200, seed=11)
        ref = kappa_closed_form(f, RelPoint.of(1, 2, 3)).kappa
        assert abs(rep.kappa - ref) <= Fraction(2, 100) * ref
        assert rep.method == "sampled"

    def test_constant_function_is_zero(self):
        f = catalog_function("affine", op="mul", alpha=0)
        rep = kappa_sampled(f, RelPoint.of(5), seed=3)
        assert rep.kappa == 0

    def test_near_singular_sum_diverges(self):
        f = catalog_function("sum", k=2)
        x = RelPoint.of(1, Fraction(-1) + Fraction(1, 10**9))
        rep = kappa_sampled(f, x, seed=5)
        assert rep.kappa == math.inf or rep.kappa > 10**8

    def test_matches_closed_form_on_catalog(self):
        for fid, kw, dim in [
            ("sum", dict(k=3), 3),
            ("norm2", dict(k=3), 3),
            ("inner_product", dict(k=2), 4),
        ]:
            f = catalog_function(fid, **kw)
            x = rand_point(dim)
            ref = kappa_closed_form(f, x).kappa
            rep = kappa_sampled(f, x, n_dirs=120, seed=7)
            assert abs(rep.kappa - ref) <= Fraction(5, 100) * max(ref, Fraction(1, 100)), fid


class TestSchedule:
    """kappa_sampled rejects a schedule it cannot converge on, before sampling."""

    @staticmethod
    def _reject(radii, monkeypatch):
        f = catalog_function("product", k=2)

        def unreachable(xs):
            raise AssertionError("sampled before the schedule was checked")

        monkeypatch.setattr(f, "exact", unreachable)
        with pytest.raises(ValueError, match="radii"):
            kappa_sampled(f, RelPoint.of(1, 2), radii=radii, n_dirs=16)

    def test_empty_schedule(self, monkeypatch):
        self._reject((), monkeypatch)

    def test_nonpositive_radius(self, monkeypatch):
        self._reject((Fraction(1, 1000), Fraction(0)), monkeypatch)
        self._reject((Fraction(-1, 1000),), monkeypatch)

    def test_schedule_not_strictly_decreasing(self, monkeypatch):
        self._reject((Fraction(1, 10000), Fraction(1, 1000)), monkeypatch)
        self._reject((Fraction(1, 1000), Fraction(1, 1000)), monkeypatch)


def _sampled(f, x, seed):
    return kappa_sampled(f, x, radii=(Fraction(1, 1000), Fraction(1, 10000)), n_dirs=32, seed=seed)


class TestFloatDecisions:
    """Probes decided from ``dist_bounds`` leave every report as the exact path makes it."""

    @pytest.mark.parametrize("fid,kw,dim,signed,span", CATALOG_FOR_CROSSCHECK,
                             ids=[c[0] for c in CATALOG_FOR_CROSSCHECK])
    def test_reports_equal_the_exact_path(self, fid, kw, dim, signed, span, monkeypatch):
        f = catalog_function(fid, **kw)
        pick = random.Random(fid)
        for seed in (1, 2):
            x = RelPoint([Fraction(pick.uniform(*span)).limit_denominator(10**6)
                          * (-1 if signed and pick.random() < 0.5 else 1) for _ in range(dim)])
            fast = _sampled(f, x, seed)
            with monkeypatch.context() as m:
                m.setattr(condition, "dist_bounds", lambda x, y: None)
                exact = _sampled(f, x, seed)
            assert repr(fast) == repr(exact)

    def test_skip_fires_on_strassen_h(self, monkeypatch):
        f = catalog_function("strassen_h")
        x = RelPoint.of(1, 2, 3, 4, 5, 6, 7, 8)
        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return rel_dist(x, y)

        monkeypatch.setattr(condition, "rel_dist", counted)
        fast = _sampled(f, x, 3)
        n_fast, calls[0] = calls[0], 0
        monkeypatch.setattr(condition, "dist_bounds", lambda x, y: None)
        exact = _sampled(f, x, 3)
        assert repr(fast) == repr(exact)
        assert 2 * n_fast < calls[0]

    def test_random_probes_are_decided_unbuilt(self, monkeypatch):
        """On strassen_h the built random probes fall 4-fold against the exact
        path; on norm2, whose outputs are certified reals, the exact distances
        fall 2-fold.  A random probe is built from its step factors, which
        one decided on its box never takes."""
        built, calls = [0], [0]
        factors, dist = condition.step_factors, condition.rel_dist

        def counted_factors(v, *args):
            built[0] += isinstance(v[0], float)  # random directions are floats, the axis and refined ones not
            return factors(v, *args)

        def counted_dist(x, y):
            calls[0] += 1
            return dist(x, y)

        monkeypatch.setattr(condition, "step_factors", counted_factors)
        monkeypatch.setattr(condition, "rel_dist", counted_dist)
        h, n2 = catalog_function("strassen_h"), catalog_function("norm2", k=3)
        xh, xn = RelPoint.of(1, 2, 3, 4, 5, 6, 7, 8), RelPoint.of(Fraction(3, 2), -2, Fraction(17, 5))

        def run():
            built[0] = 0
            rh = _sampled(h, xh, 3)
            n_built, calls[0] = built[0], 0
            rn = _sampled(n2, xn, 3)
            return repr((rh, rn)), n_built, calls[0]

        fast, built_fast, dists_fast = run()
        monkeypatch.setattr(condition, "dist_bounds", lambda x, y: None)
        exact, built_exact, dists_exact = run()
        assert fast == exact
        assert 4 * built_fast <= built_exact
        assert 2 * dists_fast <= dists_exact


class TestRepeatedProbes:
    """On one coordinate every random direction is +1 or -1, so a call's
    probes repeat a few points; each distinct point is measured once."""

    RADII = (Fraction(1, 1000), Fraction(1, 10000))

    @classmethod
    def _probes(cls, x: RelPoint, n_dirs: int, seed: int) -> list[list[Fraction]]:
        """Per level, the coordinate of every probe of a one-coordinate call,
        repeats included: the two axis probes, then the random ones."""
        out = []
        for level, r in enumerate(cls.RADII):
            bits = sample_bits(x, r)
            steps = [([1], r), ([1], -r)] + list(step_stream(1, r, n_dirs - 3, seed + 7919 * level, sphere=True))
            out.append([x.coords[0] * m * Fraction(2) ** e
                        for v, rho in steps for m, e in step_factors(v, rho, bits)])
        return out

    def test_each_distinct_probe_is_measured_once(self, monkeypatch):
        f, x = catalog_function("power", exponent=3), RelPoint.of(Fraction(13, 7))
        pairs = []

        def counted(a, b):
            pairs.append((a.coords, b.coords))
            return rel_dist(a, b)

        monkeypatch.setattr(condition, "rel_dist", counted)
        rep = kappa_sampled(f, x, radii=self.RADII, n_dirs=64, seed=1)
        distinct = sum(len(set(level)) for level in self._probes(x, 64, 1))
        # every probe ties the sup, so each distinct point is measured exactly;
        # measuring each of the 126 probes took 252 distances on these 78 pairs
        assert len(pairs) == len(set(pairs)) == 2 * distinct == 78
        assert repr(rep) == ("ConditionReport(kappa=Fraction(3, 1), kappa_tilde=Fraction(4, 1), "
                             "method='sampled', at=RelPoint(1.85714), converged=True, domain_failures=0)")

    def test_domain_failures_count_repeated_probes(self):
        top = Fraction(13, 7)

        class UpTo(CatalogFunction):
            """x -> x^2 + 1 on (0, top]."""

            id, in_dim, out_dim = "up_to", 1, 1

            def exact(self, xs):
                if xs[0] > top:
                    raise DomainError("above the top")
                return (xs[0] ** 2 + 1,)

            def in_domain(self, xs):
                return xs[0] <= top

        x = RelPoint.of(top)
        rep = kappa_sampled(UpTo(), x, radii=self.RADII, n_dirs=64, seed=1)
        above = [[c for c in level if c > top] for level in self._probes(x, 64, 1)]
        assert sum(len(set(level)) for level in above) < sum(map(len, above))  # repeats fail again
        assert rep.domain_failures == sum(map(len, above))
        assert rep.kappa > 0


def _ratios():
    """Ratios b/a: equal, within the floor, near 1, near 3 and 1/3 (|z| near 1/2), far."""
    tiny = st.integers(62, 90).map(lambda j: Fraction(1, 2**j))
    small = st.fractions(Fraction(-1, 10), Fraction(1, 10)).filter(lambda v: v != 0)
    return st.one_of(
        st.just(Fraction(1)),
        tiny.map(lambda e: 1 + e),
        small.map(lambda e: 1 + e),
        st.integers(1, 60).map(lambda j: 3 - Fraction(1, 2**j)),
        st.integers(1, 60).map(lambda j: 3 + Fraction(1, 2**j)),
        st.integers(1, 60).map(lambda j: Fraction(1, 3) + Fraction(1, 2**j)),
        st.sampled_from([Fraction(3), Fraction(1, 3), Fraction(10), Fraction(1, 1000)]),
    )


@st.composite
def _pairs(draw):
    """Points x, y of one sign pattern; coordinates up to 2,100 bits."""
    dim = draw(st.integers(1, 4))
    width = st.sampled_from([8, 60, 2100])
    xs, ys = [], []
    for _ in range(dim):
        n = draw(st.integers(0, 2**draw(width)))
        d = draw(st.integers(1, 2**draw(width)))
        a = Fraction(n, d) * draw(st.sampled_from([1, -1]))
        xs.append(a)
        ys.append(a * draw(_ratios()))
    if draw(st.booleans()):  # one coordinate differs
        ys = list(xs)
        ys[-1] = xs[-1] * draw(_ratios())
    return RelPoint(xs), RelPoint(ys)


def _actual(draw, q: Fraction):
    """q, or a certified real of about its size: a multiple of pi or a root."""
    kind = draw(st.sampled_from(["rational", "pi", "root"]))
    if kind == "pi":
        return pi_real() * (q / 3)
    if kind == "root":
        r = sqrt_real(abs(q) * Fraction(2, 3))
        return r if q > 0 else -r
    return q


def _seen(draw, t):
    """How dist_bounds is shown the coordinate t: t itself, or, for a rational,
    an Interval of 64 to 200 bits around it, each end moved out up to 3 units."""
    if isinstance(t, Fraction) and t and draw(st.booleans()):
        s = draw(st.integers(64, 200)) - (t.numerator.bit_length() - t.denominator.bit_length())
        iv = Interval.from_fraction(t, s)
        return Interval(iv.lo - draw(st.integers(0, 3)), iv.hi + draw(st.integers(0, 3)), s)
    return t


@st.composite
def _enclosed_pairs(draw):
    """(x, y, what dist_bounds sees of x, of y): points of one sign pattern
    with rational and certified coordinates, some rationals seen as Intervals."""
    dim = draw(st.integers(1, 4))
    xs, ys = [], []
    for _ in range(dim):
        q = Fraction(draw(st.integers(1, 2**62)), draw(st.integers(1, 2**62))) * draw(st.sampled_from([1, -1]))
        a = _actual(draw, q)
        b = a * draw(_ratios()) if draw(st.booleans()) else _actual(draw, q * draw(_ratios()))
        xs.append(a)
        ys.append(b)
    return xs, ys, [_seen(draw, a) for a in xs], [_seen(draw, b) for b in ys]


class TestDistBounds:
    @settings(max_examples=300)
    @given(_pairs())
    def test_bounds_enclose_rel_dist(self, pair):
        x, y = pair
        d = rel_dist(x, y)
        b = dist_bounds(x, y)
        if b is None:
            return
        lo, hi = b
        assert Fraction(lo) <= d <= Fraction(hi)
        assert d >= FLOAT_FLOOR  # a distance under the floor gives None

    @settings(max_examples=300, deadline=None)
    @given(_enclosed_pairs())
    def test_bounds_hold_over_enclosures(self, pair):
        xs, ys, seen_x, seen_y = pair
        x, y = RelPoint(xs), RelPoint(ys)
        b = dist_bounds(seen_x, seen_y)
        if b is None:
            return
        d = rel_dist(x, y)
        assert Fraction(b[0]) <= d <= Fraction(b[1])
        assert d >= FLOAT_FLOOR

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(Fraction(-8), Fraction(8), max_denominator=10**6), min_size=1, max_size=6),
           st.lists(st.floats(-8, 8, allow_nan=False), min_size=6, max_size=6).filter(any),
           st.sampled_from([Fraction(1, 2), Fraction(1, 10**3), Fraction(1, 10**6)]))
    def test_bounds_hold_over_step_boxes(self, coords, v, r):
        x = RelPoint(coords)
        chi = x.chi()
        if not chi or not any(v[:len(chi)]):
            return
        v, rho, bits = v[:len(chi)], r * (1 - Fraction(1, 2**64)), sample_bits(x, r)
        factors = factor_bounds(v, rho, BOX_BITS, bits)
        d = rel_dist(x, rel_step(x, v, rho, chi, bits))
        for b in (dist_bounds(x, x.box(chi, factors)), dist_bounds([Fraction(1)] * len(chi), factors)):
            assert b is not None and Fraction(b[0]) <= d <= Fraction(b[1])

    def test_overflowing_coordinates(self):
        a = Fraction(3**1400 + 1, 2**3 + 5)
        for e in (Fraction(1, 10**6), Fraction(1, 2), Fraction(-1, 3)):
            x, y = RelPoint.of(a, -a), RelPoint.of(a * (1 + e), -a)
            lo, hi = dist_bounds(x, y)
            assert Fraction(lo) <= rel_dist(x, y) <= Fraction(hi)
            assert hi - lo <= 0.05 * lo

    def test_none_cases(self):
        x = RelPoint.of(1, 2)
        assert dist_bounds(x, x) is None  # equal points: distance 0
        assert dist_bounds(x, RelPoint.of(1, -2)) is None  # across components
        assert dist_bounds(x, RelPoint.of(3, 2)) is None  # |z| = 1/2
        assert dist_bounds(x, RelPoint.of(1, 2 + Fraction(1, 2**70))) is None  # under the floor
        # a certified coordinate is bounded through its enclosure
        x, y = RelPoint.of(sqrt_real(Fraction(2)), 2), RelPoint.of(1, 2)
        lo, hi = dist_bounds(x, y)
        assert Fraction(lo) <= rel_dist(x, y) <= Fraction(hi)
        # ... unless the enclosure leaves the sign open, is too wide, or the
        # rational beside it is below 2**-72 (rel_dist's width at 200 bits)
        open_sign = CertifiedReal(lambda b: Interval(-1, 1, b))
        assert dist_bounds([open_sign, 2], [1, 2]) is None
        wide = CertifiedReal(lambda b: Interval(2**60, 2**60 + 2**b, b + 60))
        assert dist_bounds([wide, Fraction(2)], [Fraction(1), Fraction(2)]) is None
        tiny = Fraction(1, 2**80)
        assert dist_bounds([pi_real() * tiny], [3 * tiny]) is None
        assert dist_bounds([pi_real() * tiny], [pi_real() * (tiny * Fraction(11, 10))]) is not None



class TestBounds:
    def test_composition_bound_trivial(self):
        assert composition_upper_bound(Fraction(1), Fraction(1)) == 1

    def test_composition_bound_inner_product_budget(self):
        # plugging catalog values in gives an upper budget for the composite
        kt_sigma = 1 + Fraction(7071, 10000)
        kt_had = Fraction(3)
        assert composition_upper_bound(kt_sigma, kt_had) == kt_sigma * 3

    def test_composition_bound_dominates_composites(self):
        g = catalog_function("sum", k=2)
        h = catalog_function("hadamard", k=2)
        comp = catalog_function("inner_product", k=2)
        for _ in range(20):
            x = rand_point(4)
            hx = RelPoint(h.exact(x.coords))
            ub = composition_upper_bound(
                kappa_closed_form(g, hx).kappa_tilde, kappa_closed_form(h, x).kappa_tilde
            )
            kt_f = kappa_closed_form(comp, x).kappa_tilde
            assert ub >= kt_f * (1 - Fraction(1, 2**64))

    def test_stacking_examples(self):
        assert stacking_bounds([Fraction(3), Fraction(4)]) == (4, 5)
        lo, hi = stacking_bounds([Fraction(7)])
        assert lo == hi == 7

    def test_stacking_brackets_true_kappa(self):
        f = catalog_function("matmul_2x2")
        entries = [catalog_function("matmul_entry", i=i, j=j) for i in (1, 2) for j in (1, 2)]
        for _ in range(5):
            x = rand_point(8)
            ks = [kappa_closed_form(e, x).kappa for e in entries]
            lo, hi = stacking_bounds(ks)
            kf = kappa_jacobian(f, x).kappa
            slack = Fraction(1, 10**12)
            assert lo <= kf + slack
            assert kf <= hi + slack

    def test_stacking_strassen_eps_budget(self):
        eps = Fraction(1, 1000)
        x = RelPoint(strassen_input(eps))
        entries = [catalog_function("matmul_entry", i=i, j=j) for i in (1, 2) for j in (1, 2)]
        ks = [kappa_closed_form(e, x).kappa for e in entries]
        lo, hi = stacking_bounds(ks)
        kf = kappa_jacobian(catalog_function("matmul_2x2"), x).kappa
        assert lo <= kf <= hi

    def test_infinite_component(self):
        lo, hi = stacking_bounds([Fraction(1), math.inf])
        assert lo == math.inf and hi == math.inf


class TestReportInvariants:
    def test_kappa_tilde_relationship(self):
        f = catalog_function("sum", k=2)
        r = kappa_closed_form(f, RelPoint.of(2, 3))
        assert r.kappa_tilde == 1 + r.kappa
        r2 = kappa_closed_form(f, RelPoint.of(1, -1))
        assert r2.kappa == math.inf and r2.kappa_tilde == math.inf

    def test_dimension_mismatch_rejected(self):
        f = catalog_function("sum", k=3)
        x = RelPoint.of(1, 2, 3)
        fx = RelPoint.of(6)
        with pytest.raises(ValueError):
            kappa_from_jacobian(x, fx, [{0: 1}, {1: 2}])
