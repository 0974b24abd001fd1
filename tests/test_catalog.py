import hashlib
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabilis.catalog import (
    ALGORITHMS,
    FUNCTIONS,
    CatalogFunction,
    Composite,
    DomainError,
    Hadamard,
    LinearMap,
    Norm2,
    NumericalAlgorithm,
    Power,
    Sin,
    Sqrt,
    Summation,
    _sqrt_mid,
    _sum_kappa,
    _sum_sq,
    _then,
    algorithm,
    babylonian_sqrt,
    catalog_function,
    compose,
    high_precision_sin,
    second_order,
    sin_in_precision,
    sqrt_real,
    strassen_input,
)
from stabilis.cli import _resolve_function
from stabilis.condition import kappa_inside, kappa_jacobian
from stabilis import fpcore
from stabilis.fpcore import (
    BINARY64,
    Binary64Refusal,
    FpDivisionByZero,
    FpNumber,
    Precision,
    SoftFloat,
    fl,
    fp_add,
    fp_mul,
    fp_sub,
    fp_zero,
    to_exact,
)
from stabilis.reals import CertifiedReal, Interval, pi_real, real_sign
from stabilis.relmetric import (
    BOX_BITS,
    RelPoint,
    ball_box,
    factor_bounds,
    rel_dist,
    rel_sphere_sample,
    rel_step,
    sample_bits,
    step_stream,
)
from test_acceptance import CATALOG_FOR_CROSSCHECK

mp.mp.prec = 700

rng = random.Random(20240817)


def rand_fracs(k, lo=0.1, hi=10.0, signed=False):
    out = []
    for _ in range(k):
        v = Fraction(rng.uniform(lo, hi)).limit_denominator(10**9)
        if signed and rng.random() < 0.5:
            v = -v
        out.append(v)
    return out


class TestNaiveProduct:
    def test_powers_of_two_exact(self):
        alg = algorithm("naive_product", k=3)
        for t in (3, 11, 53):
            out = alg.evaluate([fl(2, t)] * 3, t)[0]
            assert to_exact(out) == 8

    def test_error_within_chain_bound(self):
        k, t = 10, 24
        u = Precision(t).u
        alg = algorithm("naive_product", k=k)
        for _ in range(20):
            xs = rand_fracs(k, signed=True)
            got = alg.evaluate([fl(c, t) for c in xs], t)
            ref = RelPoint(alg.exact_reference(tuple(to_exact(fl(c, t)) for c in xs)))
            d = rel_dist(ref, RelPoint(got))
            assert d <= 2 * (2 * k - 1) * u

    def test_backward_witness_identity(self):
        k, t = 6, 24
        alg = algorithm("naive_product", k=k)
        xs = rand_fracs(k)
        inputs = [fl(c, t) for c in xs]
        out = alg.evaluate(inputs, t)[0]
        rest = Fraction(1)
        for c in xs[1:]:
            rest *= c
        y1 = to_exact(out) / rest
        # the product of (y1, x2..xk) reproduces the computed output exactly
        assert y1 * rest == to_exact(out)


class TestNaiveSum:
    def test_small_integers_exact(self):
        alg = algorithm("naive_sum", k=4)
        out = alg.evaluate([fl(1, 8)] * 4, 8)[0]
        assert to_exact(out) == 4

    def test_cancellation_driven_loss(self):
        # dist blows up like the condition number, not the algorithm
        t = 24
        alg = algorithm("naive_sum", k=2)
        xs = (Fraction(1), Fraction(-1) + Fraction(1, 2**40))
        got = alg.evaluate([fl(c, t) for c in xs], t)
        ref = RelPoint(alg.exact_reference(xs))
        d = rel_dist(ref, RelPoint(got))
        assert d == math.inf or d / Precision(t).u > 2**30


class TestInnerAndNorms:
    def test_inner_product_representable(self):
        alg = algorithm("inner_product", k=3)
        out = alg.evaluate([fl(v, 8) for v in (1, 0, 2, 3, 5, 4)], 8)[0]
        assert to_exact(out) == 11

    def test_norm2_three_four_five(self):
        alg = algorithm("norm2", k=2)
        t = 53
        out = alg.evaluate([fl(3, t), fl(4, t)], t)[0]
        d = rel_dist(RelPoint.of(5), RelPoint.of(out))
        assert d <= 100 * Precision(t).u

    def test_linear_map_rows_match_matmul_entries(self):
        # c_ij as a 1-row linear map over the flattened inputs
        xs = strassen_input(Fraction(1, 3))
        ent = catalog_function("matmul_entry", i=2, j=1)
        got = ent.exact(xs)[0]
        a21, a22, b11, b21 = xs[2], xs[3], xs[4], xs[6]
        assert got == a21 * b11 + a22 * b21

    def test_matmul_is_stacked_inner_products(self):
        t = 53
        xs = rand_fracs(8)
        mm = algorithm("matmul_2x2")
        inner = algorithm("inner_product", k=2)
        fp_in = [fl(c, t) for c in xs]
        got = mm.evaluate(fp_in, t)
        pieces = []
        for i in (0, 1):
            for j in (0, 1):
                args = (fp_in[2 * i], fp_in[2 * i + 1], fp_in[4 + j], fp_in[6 + j])
                pieces.append(inner.evaluate(args, t)[0])
        assert list(got) == pieces


class TestBabylonianSqrt:
    def test_four_is_exact(self):
        for t in (3, 11, 24, 53):
            assert to_exact(babylonian_sqrt(fl(4, t), t)) == 2

    def test_sqrt_two(self):
        t = 53
        r = babylonian_sqrt(fl(2, t), t)
        ref = mp.sqrt(2)
        err = abs(mp.mpf(to_exact(r).numerator) / to_exact(r).denominator - ref) / ref
        assert err <= 50 * 2.0**-53

    def test_zero(self):
        assert babylonian_sqrt(fl(0, 24), 24).is_zero

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            babylonian_sqrt(fl(-1, 24), 24)

    def test_square_near_input_over_binades(self):
        t = 53
        u = Precision(t).u
        for e in range(-30, 31):
            g = Fraction(rng.uniform(1.0, 4.0)).limit_denominator(10**6) * Fraction(2) ** (2 * e)
            gf = fl(g, t)
            r = babylonian_sqrt(gf, t)
            rr = to_exact(r) ** 2
            assert abs(rr - to_exact(gf)) <= 5 * u * to_exact(gf)


class TestStrassen:
    def test_identity_matrices_exact(self):
        alg = algorithm("strassen_2x2")
        for t in (4, 11, 53):
            out = alg.evaluate([fl(v, t) for v in (1, 0, 0, 1, 1, 0, 0, 1)], t)
            assert [to_exact(v) for v in out] == [1, 0, 0, 1]

    def test_algebraic_identity_with_matmul(self):
        st = catalog_function("strassen_g")
        h = catalog_function("strassen_h")
        mm = catalog_function("matmul_2x2")
        for _ in range(10_000):
            xs = tuple(
                Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(8)
            )
            assert st.exact(h.exact(xs)) == mm.exact(xs)

    def test_brent_style_absolute_bound(self):
        t = 53
        u = Precision(t).u
        alg = algorithm("strassen_2x2")
        for _ in range(20):
            xs = rand_fracs(8, lo=0.1, hi=2.0, signed=True)
            fp_in = [fl(c, t) for c in xs]
            exact_in = tuple(to_exact(v) for v in fp_in)
            got = alg.evaluate(fp_in, t)
            ref = alg.exact_reference(exact_in)
            amax = max(abs(v) for v in exact_in[:4])
            bmax = max(abs(v) for v in exact_in[4:])
            for gv, rv in zip(got, ref):
                assert abs(to_exact(gv) - rv) <= 100 * amax * bmax * u

    def test_eps_family_relative_blowup(self):
        t = 53
        eps = Fraction(1, 10**8)
        alg = algorithm("strassen_2x2")
        fp_in = [fl(c, t) for c in strassen_input(eps)]
        exact_in = tuple(to_exact(v) for v in fp_in)
        got = RelPoint(alg.evaluate(fp_in, t))
        ref = RelPoint(alg.exact_reference(exact_in))
        lop = rel_dist(ref, got) / Precision(t).u
        assert lop >= 10**6


class TestSine:
    def test_zero(self):
        assert high_precision_sin(Fraction(0)) == 0
        assert sin_in_precision(fl(0, 53), 53).is_zero

    def test_pi_over_six(self):
        x = pi_real() * Fraction(1, 6)
        s = high_precision_sin(x)
        iv = s.enclosure(300)
        assert iv.lower() <= Fraction(1, 2) <= iv.upper()

    def test_sin_one_to_sixty_digits(self):
        s = high_precision_sin(Fraction(1))
        iv = s.enclosure(400)
        lo = mp.mpf(iv.lower().numerator) / iv.lower().denominator
        hi = mp.mpf(iv.upper().numerator) / iv.upper().denominator
        ref = mp.sin(1)
        assert lo <= ref <= hi
        assert hi - lo < mp.mpf(10) ** -60

    def test_working_precision_matches_library(self):
        t = 53
        for xv in (1.0, 2.5, 7.283185307179586, 1e6 + 0.5):
            xf = fl(Fraction(xv), t)
            got = float(sin_in_precision(xf, t))
            assert got == pytest.approx(math.sin(xv), rel=1e-14, abs=1e-300)

    def test_kappa_at_a_sine_zero_is_infinite_and_prompt(self):
        t0 = time.perf_counter()
        assert Sin().kappa_closed((pi_real(),)) == math.inf
        assert time.perf_counter() - t0 < 3

    def test_huge_argument_reduction(self):
        t = 53
        x = fl(pi_real().scalb(40) + 1, t)
        got = to_exact(sin_in_precision(x, t))
        ref = mp.sin(mp.mpf(to_exact(x).numerator) / to_exact(x).denominator)
        assert abs(mp.mpf(got.numerator) / got.denominator - ref) < mp.mpf(2) ** -45


class TestAlgorithmsConvergeToReference:
    def test_high_precision_tracks_exact(self):
        cases = [
            ("naive_product", dict(k=4), rand_fracs(4, signed=True)),
            ("naive_sum", dict(k=4), rand_fracs(4)),
            ("hadamard", dict(k=3), rand_fracs(6, signed=True)),
            ("tensor_product", dict(k=2, l=2), rand_fracs(4)),
            ("inner_product", dict(k=3), rand_fracs(6)),
            ("squared_norm", dict(k=3), rand_fracs(3, signed=True)),
            ("norm2", dict(k=3), rand_fracs(3)),
            ("power", dict(exponent=3), rand_fracs(1)),
            ("scalar_affine", dict(op="mul", alpha=Fraction(3, 7)), rand_fracs(1)),
            ("linear_map", dict(rows=[[1, 2], [3, -4]]), rand_fracs(2)),
        ]
        for aid, kw, xs in cases:
            alg = algorithm(aid, **kw)
            errs = []
            for t in (24, 96, 192):
                fp_in = [fl(c, t) for c in xs]
                got = RelPoint(alg.evaluate(fp_in, t))
                ref = RelPoint(alg.exact_reference(tuple(xs)))
                errs.append(rel_dist(ref, got, bits=max(224, t + 64)))
            assert errs[0] > errs[2], aid
            assert errs[2] < Fraction(1, 2**150), aid


class TestRegistry:
    """Walk the two registries: every algorithm against its function."""

    F = Fraction
    # algorithm name -> (constructor keywords, exact input point)
    CASES = {
        "naive_product": (dict(k=4), (F(3, 7), F(-5, 3), F(2), F(11, 13))),
        "naive_sum": (dict(k=4), (F(3, 7), F(5, 3), F(2), F(11, 13))),
        "hadamard": (dict(k=3), (F(3, 7), F(-5, 3), F(2), F(11, 13), F(1, 9), F(-4))),
        "tensor_product": (dict(k=2, l=3), (F(3, 7), F(-5, 3), F(2), F(11, 13), F(1, 9))),
        "linear_map": (dict(rows=[[1, 2, -3], [3, -4, F(1, 2)]]), (F(3, 7), F(5, 3), F(-2))),
        "inner_product": (dict(k=3), (F(3, 7), F(5, 3), F(2), F(11, 13), F(1, 9), F(4))),
        "copy": (dict(k=3), (F(3, 7), F(-5, 3), F(2))),
        "squared_norm": (dict(k=3), (F(3, 7), F(-5, 3), F(2))),
        "norm2": (dict(k=3), (F(3, 7), F(-5, 3), F(2))),
        "babylonian_sqrt": (dict(), (F(2),)),
        "power": (dict(exponent=-3), (F(5, 7),)),
        "scalar_affine": (dict(op="div", alpha=F(3, 7)), (F(5, 3),)),
        "strassen_h": (dict(), (F(1, 3), F(2), F(5, 7), F(3), F(11, 13), F(7, 4), F(1, 5), F(9, 2))),
        "strassen_g": (dict(), (F(1, 3), F(2), F(5, 7), F(3), F(11, 13), F(7, 4), F(1, 5))),
        "strassen_2x2": (dict(), (F(1, 3), F(2), F(5, 7), F(3), F(11, 13), F(7, 4), F(1, 5), F(9, 2))),
        "matmul_2x2": (dict(), (F(1, 3), F(2), F(5, 7), F(3), F(11, 13), F(7, 4), F(1, 5), F(9, 2))),
        "matmul_entry": (dict(i=2, j=1), (F(1, 3), F(2), F(5, 7), F(3), F(11, 13), F(7, 4), F(1, 5), F(9, 2))),
        "sin_working": (dict(), (F(1, 3),)),
    }

    @pytest.mark.parametrize("aid", sorted(ALGORITHMS))
    def test_algorithm_tracks_its_function(self, aid):
        if aid not in self.CASES:
            pytest.fail(f"no registry-walk case for algorithm {aid!r}")
        kw, xs = self.CASES[aid]
        alg = algorithm(aid, **kw)
        assert alg.function.id == catalog_function(ALGORITHMS[aid][0], **kw).id
        t = 192
        got = RelPoint(alg.evaluate([fl(c, t) for c in xs], t))
        ref = RelPoint(alg.exact_reference(xs))
        assert rel_dist(ref, got, bits=256) < Fraction(1, 2**150)

    def test_composed_runner_runs_each_stage_on_its_own_function(self):
        # a plain Composite keeps no k of its own: the stages read theirs
        f = Composite(Summation(3), Hadamard(3))
        alg = NumericalAlgorithm("naive_sum o hadamard", f, _then("naive_sum", "hadamard"))
        ref = algorithm("inner_product", k=3)
        xs = [fl(Fraction(n, d), 53) for n, d in ((1, 3), (-2, 1), (5, 7), (3, 1), (11, 13), (-7, 4))]
        got, want = alg.evaluate(xs, 53), ref.evaluate(xs, 53)
        assert [(v.sign, v.mantissa, v.exponent) for v in got] == [(v.sign, v.mantissa, v.exponent) for v in want]

    @pytest.mark.parametrize("name", sorted(n for n, (_, per) in FUNCTIONS.items() if per))
    def test_cli_sizing_gives_the_input_dimension(self, name):
        per = FUNCTIONS[name][1]
        for k in (1, 2, 5):
            assert _resolve_function(name, per * k).in_dim == per * k


def _q(v, bits: int = 400) -> Fraction:
    """An exact value, or the midpoint of a certified one at ``bits``."""
    return v if isinstance(v, Fraction) else v.enclosure(bits).midpoint()


_signed = st.builds(Fraction, st.integers(-1000, 1000).filter(bool), st.integers(1, 1000))
# one binade around 1, no cancellation: every algorithm is then accurate to
# far below 2^-150 at t = 192 (cancellation is what the stability tests study)
_benign = st.fractions(min_value=Fraction(1, 2), max_value=Fraction(2), max_denominator=1000)


class TestRegistryViews:
    """Walk FUNCTIONS at random points: exact, jacobian, kappa_closed and the algorithms agree."""

    F = Fraction
    # one function name per class in FUNCTIONS -> constructor keywords
    CASES = {
        "product": dict(k=3),
        "sum": dict(k=3),
        "hadamard": dict(k=2),
        "tensor_product": dict(k=2, l=3),
        "linear_map": dict(rows=[[1, 2, F(1, 3)]]),
        "inner_product": dict(k=2),
        "copy": dict(k=2),
        "squared_norm": dict(k=2),
        "sqrt": dict(),
        "norm2": dict(k=3),
        "power": dict(exponent=-3),
        "affine": dict(op="sub", alpha=F(3, 7)),
        "sin": dict(),
        "strassen_h": dict(),
        "strassen_g": dict(),
        "matmul_entry": dict(i=2, j=1),
        "matmul_2x2": dict(),
    }

    def test_every_class_has_a_case(self):
        assert {FUNCTIONS[n][0] for n in self.CASES} == {cls for cls, _ in FUNCTIONS.values()}

    @pytest.mark.parametrize("name", sorted(CASES))
    @given(data=st.data())
    @settings(max_examples=30)
    def test_views_agree(self, name, data):
        kw = self.CASES[name]
        f = catalog_function(name, **kw)
        xs = tuple(data.draw(st.lists(_signed, min_size=f.in_dim, max_size=f.in_dim), label="x"))
        assume(f.in_domain(xs))
        fx = f.exact(xs)
        jac = f.jacobian(xs)
        closed = f.kappa_closed(xs)
        if jac is not None and closed not in (None, math.inf) and all(real_sign(v) for v in fx):
            kj = kappa_jacobian(f, RelPoint(xs)).kappa
            assert abs(closed - kj) <= kj / 2**90
        if jac is not None:
            # central differences are exact on the bilinear maps; elsewhere
            # they are off by h^2/6 times a third derivative, far inside
            # the tolerance for inputs between 1/1000 and 1000 in size
            h = Fraction(1, 2**64)
            for j in range(f.in_dim):
                up, dn = list(xs), list(xs)
                up[j] += h
                dn[j] -= h
                fu, fd = f.exact(tuple(up)), f.exact(tuple(dn))
                for i in range(f.out_dim):
                    dq = (_q(fu[i]) - _q(fd[i])) / (2 * h)
                    d = _q(jac[i][j])
                    assert abs(dq - d) <= (1 + abs(d)) / 2**60, (i, j)
        ys = tuple(data.draw(st.lists(_benign, min_size=f.in_dim, max_size=f.in_dim), label="y"))
        for aid, (fid, _) in ALGORITHMS.items():
            if FUNCTIONS[fid][0] is type(f):
                alg = algorithm(aid, **kw)
                got = RelPoint(alg.evaluate([fl(c, 192) for c in ys], 192))
                ref = RelPoint(alg.exact_reference(ys))
                assert rel_dist(ref, got, bits=256) < Fraction(1, 2**150), aid


def _pinned(v):
    """A Jacobian with each certified entry replaced by its 128-bit enclosure."""
    if isinstance(v, list):
        return [_pinned(w) for w in v]
    if isinstance(v, CertifiedReal):
        iv = v.enclosure(128)
        return (iv.lo, iv.hi, iv.scale)
    return v


class TestDerivedJacobians:
    """The Jacobians derived from ``exact`` by exact dual numbers.

    JACOBIANS holds the SHA-256 of the Jacobians of each TestRegistryViews
    class at three rational points seeded by its name and one point with
    zero coordinates.  They were taken at the commit before the hand-coded
    Jacobians were deleted, before any source file of that change was
    edited: every matrix is the same Fraction matrix as before.
    """

    JACOBIANS = {
        "affine": "5b7059b833ed9d7fb32a291db02331fbb13ed01ee27b4f2697b04ad63f477999",
        "copy": "915da5e5acfdab8ae91bb67d4f6d10a9904fd6b6be183498feefb1b58abbc341",
        "hadamard": "8da2be79fb017fa38ddd3de5cd5a296b1d996372b1e2ef3b00f8a39dcc93ad0a",
        "inner_product": "9f3ab9cb028b5b431201fe563d94c289fb984efb3d1966803e0690fada8dda40",
        "linear_map": "9c7b7f7fb998fb4f88593369314badb0933c4a9aef568741800e4609289bdce9",
        "matmul_2x2": "b1dda6a41f4bff1563c497e181f34751eb2c498b8c81065cad0db75ba7322d1a",
        "matmul_entry": "395b987bcd94fa10c9008aa68c95a97ce3b02863fa3d2ec3eaf5a6063da9db64",
        "norm2": "9af30a48b159fcd870ba22a26f649f783d6c24e13dd3aa06d199681970c13986",
        "power": "8c6134c1ce4c2cae22bdbc48f7714fda68c72d687b31910acf110998b883fe51",
        "product": "9e79322eac5234478994f235259291db04eb57d3343d65bb5ee883a0edc6fc6e",
        "sin": "457bef27b3b4017f44aa51597597acf4c91935bb19f40adbe8a1e1cd975b84a7",
        "sqrt": "a515ed991b75c66d4c8735d81fb2c84a66fa951beedad297942ed90847648541",
        "squared_norm": "40e15dcf4f2ec2fb8f3ca8be18937a9a110a21e30a77e68a53a6e5c58cea28a7",
        "strassen_g": "f346a15990ae3fdf5e8f11132a3fb936e68d37325e72b4b9518bbb9163a76e34",
        "strassen_h": "997d2d9fe41c00ed0438e7185ef1d84912b25fc4c83d2cadf731626857a83518",
        "sum": "12a7eb286197079b85b126c7c1a64e1cc11c7e10d4fad9bb7d253070921e6613",
        "tensor_product": "2892c142f9571e85b65633e17f8b2d12bf53dea656553c4938f4bb54ba6ab9f5",
    }

    def test_every_case_is_pinned(self):
        assert set(self.JACOBIANS) == set(TestRegistryViews.CASES)

    @pytest.mark.parametrize("name", sorted(JACOBIANS))
    def test_jacobians_unchanged(self, name):
        f = catalog_function(name, **TestRegistryViews.CASES[name])
        seeded = random.Random(name)
        pts = []
        for _ in range(3):
            xs = tuple(Fraction(seeded.choice([-1, 1]) * seeded.randint(1, 1000), seeded.randint(1, 1000))
                       for _ in range(f.in_dim))
            pts.append(xs if f.in_domain(xs) else tuple(map(abs, xs)))
        pts.append(tuple(Fraction(i % 2 * (i + 1), 3) for i in range(f.in_dim)))
        out = []
        for xs in pts:
            try:
                out.append(repr(_pinned(f.jacobian(xs))))
            except ZeroDivisionError:  # power[-3] at 0
                out.append("ZeroDivisionError")
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.JACOBIANS[name]

    def test_no_class_has_its_own_jacobian(self):
        # one derivative: every class, composites included, differentiates its exact on duals
        classes = {cls for cls, _ in FUNCTIONS.values()} | {Composite}
        assert sorted(c.__name__ for c in classes if c.jacobian is not CatalogFunction.jacobian) == []

    @staticmethod
    def _second(f, xs):
        """The second partials d2f_i/dx_j dx_k of each output from one pass
        on nested duals, each level seeded with 1 on every coordinate."""
        return [h for _, _, h in second_order(f, xs, {j: Fraction(1) for j in range(len(xs))})]

    def test_nested_pass_gives_second_partials(self):
        F = Fraction
        assert self._second(catalog_function("power", exponent=3), (F(2),)) == [{0: {0: 12}}]
        # d2/dx_1 dx_k of x_1 x_2 x_3 at (1, 2, 3) is (x_3, x_2) for k = 2, 3
        h = self._second(catalog_function("product", k=3), (F(1), F(2), F(3)))[0]
        assert (h[0].get(0, 0), h[0][1], h[0][2]) == (0, 3, 2)
        # m_1 = (a11 + a22)(b11 + b22) at A = B = diag(1, -1)
        h = self._second(catalog_function("strassen_h"), (F(1), F(0), F(0), F(-1)) * 2)[0]
        assert h[0][4] == 1 and h[0].get(1, 0) == 0
        assert self._second(catalog_function("sqrt"), (F(4),)) == [{0: {0: F(-1, 32)}}]
        # the certified stages nest too: -sin 1, through the cosine's derivative
        iv = self._second(catalog_function("sin"), (F(1),))[0][0][0].enclosure(100)
        with mp.workdps(60):
            lo, hi = (mp.mpf(v.numerator) / v.denominator for v in (iv.lower(), iv.upper()))
            assert lo <= -mp.sin(1) <= hi
        assert iv.upper() - iv.lower() < Fraction(1, 2**90)

    def test_certified_product_matches_the_closed_form(self):
        # the derivative route at a certified coordinate: kappa = sqrt(2)
        kj = kappa_jacobian(catalog_function("product", k=2), RelPoint.of(pi_real(), Fraction(1, 3))).kappa
        assert abs(kj - _sqrt_mid(Fraction(2))) <= Fraction(1, 2**90)

    def test_certified_squared_norm_sums_no_exact_zeros(self):
        # copy's Jacobian is exact 0s and 1s: column 1 is pi*0 + 1*1 + pi*0 + 1*1,
        # summed without its zero terms, so it is the exact 2
        f = catalog_function("squared_norm", k=2)
        jac = f.jacobian((pi_real(), Fraction(1)))
        assert isinstance(jac[0][1], Fraction) and jac[0][1] == 2
        kj = kappa_jacobian(f, RelPoint.of(pi_real(), Fraction(1))).kappa
        ref = 2 * mp.sqrt(mp.pi ** 4 + 1) / (mp.pi ** 2 + 1)
        assert abs(mp.mpf(kj.numerator) / kj.denominator - ref) <= mp.mpf(2) ** -90

    def test_certified_strassen_h_matches_central_differences(self):
        f = catalog_function("strassen_h")
        F = Fraction
        xs = (pi_real(), F(2), F(-3, 7), F(5), F(1, 3), pi_real() / 4, F(-2), F(7, 9))
        jac = f.jacobian(xs)
        h = F(1, 2**64)
        for j in range(8):
            up, dn = list(xs), list(xs)
            up[j] += h
            dn[j] -= h
            fu, fd = f.exact(tuple(up)), f.exact(tuple(dn))
            for i in range(7):
                d = _q(jac[i][j])
                # the maps are bilinear, so the difference is exact but for
                # the 400-bit midpoints
                assert abs((_q(fu[i]) - _q(fd[i])) / (2 * h) - d) <= (1 + abs(d)) / 2**200, (i, j)


# every FUNCTIONS name, aliases included, built as TestRegistryViews builds its
# class, and the two composites whose outer stage restricts the domain
_BY_CLASS = {FUNCTIONS[n][0]: kw for n, kw in TestRegistryViews.CASES.items()}
DOMAIN_CASES = {n: lambda n=n: catalog_function(n, **_BY_CLASS[FUNCTIONS[n][0]]) for n in FUNCTIONS}
DOMAIN_CASES["sqrt o sum"] = lambda: compose(catalog_function("sqrt"), catalog_function("sum", k=3))
DOMAIN_CASES["power[-1] o sum"] = lambda: compose(
    catalog_function("power", exponent=-1), catalog_function("sum", k=3))

_with_zeros = st.one_of(st.just(Fraction(0)), _signed)


def _raises_domain(f, xs) -> bool:
    try:
        f.exact(xs)
    except (DomainError, ZeroDivisionError):
        return True
    return False


class TestDomainContract:
    """On rational points, in_domain is False exactly where exact raises.

    The amenability probe decides clause A.1 by in_domain alone and never
    evaluates f itself, so this contract is what keeps its verdicts.
    """

    @pytest.mark.parametrize("name", sorted(DOMAIN_CASES))
    @given(data=st.data())
    @settings(max_examples=40)
    def test_in_domain_iff_exact_does_not_raise(self, name, data):
        f = DOMAIN_CASES[name]()
        xs = data.draw(st.lists(_with_zeros, min_size=f.in_dim, max_size=f.in_dim), label="x")
        if f.in_dim > 1 and data.draw(st.booleans(), label="cancel"):
            xs[-1] = -sum(xs[:-1])  # a zero sum, the edge of both composites
        assert f.in_domain(tuple(xs)) is not _raises_domain(f, tuple(xs))

    def test_composites_reach_both_sides(self):
        F = Fraction
        for name, outside in (("sqrt o sum", (F(1), F(-3), F(1, 2))), ("power[-1] o sum", (F(1), F(-3), F(2)))):
            f = DOMAIN_CASES[name]()
            assert not f.in_domain(outside) and _raises_domain(f, outside)
            assert f.in_domain((F(1), F(-1, 3), F(2))) and not _raises_domain(f, (F(1), F(-1, 3), F(2)))
        # a squared norm is never negative, so norm2 is defined everywhere
        assert catalog_function("norm2", k=2).in_domain((F(-1), F(0)))

    @pytest.mark.parametrize("name,calls", [("squared_norm", 0), ("norm2", 1)])
    def test_inner_stage_runs_only_under_a_restricting_outer_stage(self, name, calls):
        # squared_norm's outer stage (an inner product) is defined everywhere;
        # norm2's (a square root) must see the squared norm
        f = catalog_function(name, k=3)
        n = []
        inner = f.h.exact
        f.h.exact = lambda xs: n.append(1) or inner(xs)
        assert f.in_domain((Fraction(1), Fraction(-2), Fraction(1, 3)))
        assert len(n) == calls


def _fold(vals):
    """The left-to-right Fraction sum from 0: the reference for the common-denominator sums."""
    acc = Fraction(0)
    for v in vals:
        acc = acc + v
    return acc


_wide = st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300))
_kernel_terms = st.one_of(st.just(Fraction(0)), _signed, _wide)


class TestCommonDenominatorSums:
    """The integer-numerator sums against left-to-right Fraction folds."""

    @given(data=st.data())
    @settings(max_examples=200)
    def test_equal_to_the_fold(self, data):
        vals = data.draw(st.lists(_kernel_terms, min_size=1, max_size=12), label="vals")
        if data.draw(st.booleans(), label="cancel"):
            vals.append(-_fold(vals))  # the sum cancels exactly: kappa is inf
        k = len(vals)
        assert Summation(k).exact(tuple(vals)) == (_fold(vals),)
        assert _sum_sq(vals) == _fold(v * v for v in vals)
        rows = [[1] * k, [(-1) ** i * (i + 1) for i in range(k)]]
        assert LinearMap(rows).exact(tuple(vals)) == tuple(_fold(c * v for c, v in zip(r, vals)) for r in rows)
        for c in (1, 2):
            s = _fold(vals)
            if all(v == 0 for v in vals):
                want = Fraction(0)
            elif s == 0:
                want = math.inf
            else:
                want = _sqrt_mid(c * _fold(v * v for v in vals)) / abs(s)
            assert _sum_kappa(vals, c) == want

    def test_cancelling_and_zero_terms(self):
        F = Fraction
        assert _sum_kappa([F(1, 3), F(-1, 3)]) == math.inf
        assert _sum_kappa([F(0), F(0)]) == 0
        assert Summation(3).exact((F(1, 2**300), F(0), F(-1, 2**300))) == (0,)

    def test_certified_coordinates_keep_the_chain(self):
        # enclosure bits depend on the order of the additions, so a certified
        # coordinate keeps the fold from 0, bit for bit
        F = Fraction
        xs = (F(1, 3), pi_real(), F(-2, 7), sqrt_real(F(2)))
        got = Summation(4).exact(xs)[0]
        row = LinearMap([[2, 0, F(-1, 5), 3]]).exact(xs)[0]
        want, want_row = _fold(xs), _fold([2 * xs[0], F(-1, 5) * xs[2], 3 * xs[3]])
        for b in (64, 200, 1000):
            e, w = got.enclosure(b), want.enclosure(b)
            assert (e.lo, e.hi, e.scale) == (w.lo, w.hi, w.scale)
            e, w = row.enclosure(b), want_row.enclosure(b)
            assert (e.lo, e.hi, e.scale) == (w.lo, w.hi, w.scale)


# every catalog map defined everywhere that runs on boxes (sin raises TypeError)
BOXED = ("sum", "product", "inner_product", "hadamard", "copy", "squared_norm", "tensor_product",
         "linear_map", "affine", "matmul_entry", "strassen_h", "strassen_g", "matmul_2x2")


def boxed_map(fid: str, k: int) -> CatalogFunction:
    """The map ``fid`` of BOXED, sized by k where it has a size."""
    if fid == "tensor_product":
        return catalog_function(fid, k=k, l=k % 3 + 1)
    if fid == "linear_map":
        return catalog_function(fid, rows=[[(-1) ** (i + j) * (i + j + 1) for j in range(k)] for i in range(k % 2 + 1)])
    if fid == "affine":
        return catalog_function(fid, op=("add", "sub", "mul", "div")[k % 4], alpha=Fraction(7, 5))
    if fid in ("matmul_entry", "strassen_h", "strassen_g", "matmul_2x2"):
        return catalog_function(fid)
    return catalog_function(fid, k=k)


class TestKappaUpper:
    """kappa_upper of a box bounds the kappa that kappa_inside reports at every
    rational point of it."""

    @given(st.sampled_from(BOXED), st.integers(1, 6), st.sampled_from([0, 8, 100]), st.data())
    @settings(max_examples=200)
    def test_bounds_kappa_closed_inside_the_box(self, fid, k, scale, data):
        f = boxed_map(fid, k)
        ends = st.tuples(st.integers(-2**12, 2**20), st.integers(0, 2**12) | st.just(0))
        ivs = [Interval(lo, lo + w, scale) for lo, w in data.draw(st.lists(ends, min_size=f.in_dim,
                                                                           max_size=f.in_dim), label="box")]
        if data.draw(st.booleans(), label="zero"):
            ivs[0] = Interval(0, 0, scale)
        upper = f.kappa_upper(ivs)
        assume(upper is not None)
        within = st.fractions(min_value=0, max_value=1, max_denominator=2**40)
        for _ in range(4):
            pt = tuple(Fraction(iv.lo + (iv.hi - iv.lo) * data.draw(within), 2**scale) for iv in ivs)
            assert kappa_inside(f, RelPoint(pt)).kappa <= upper

    @pytest.mark.parametrize("fid", BOXED)
    def test_bounds_kappa_on_the_sphere(self, fid):
        # the sphere of radius 1/(a kt) is where kappa grows most
        pick = random.Random(fid)
        f = boxed_map(fid, 3)
        for seed, a in enumerate((1, 1, 4)):
            x = RelPoint([Fraction(pick.uniform(0.2, 5)).limit_denominator(10**6) * pick.choice((1, -1))
                          for _ in range(f.in_dim)])
            r = 1 / (a * kappa_inside(f, x).kappa_tilde)
            upper = f.kappa_upper(ball_box(x, r, sample_bits(x, r)))
            if upper is None:
                continue
            for y in rel_sphere_sample(x, r, 8, seed):
                assert kappa_inside(f, y).kappa <= upper

    def test_corners_and_the_none_cases(self):
        F = Fraction
        assert not any(boxed_map(fid, 2).restricts for fid in BOXED)
        restricting = {Sqrt, Norm2, Power}
        assert {type(boxed_map(fid, 2)) for fid in BOXED} == {cls for cls, _ in FUNCTIONS.values()} - restricting - {Sin}
        assert catalog_function("sum", k=2).kappa_upper([Interval(-1, 1, 0), Interval(0, 0, 0)]) is None
        assert catalog_function("sqrt").kappa_upper([Interval(1, 2, 0)]) is None  # restricts its domain
        assert catalog_function("sin").kappa_upper([Interval(1, 2, 0)]) is None  # does not run on boxes
        # an output that is 0 on the box with a nonzero partial has no bound
        assert LinearMap([[1, -1]]).kappa_upper([Interval(1, 1, 0)] * 2) is None
        assert catalog_function("product", k=3).kappa_upper([Interval(-1, 1, 0)] * 3) == _sqrt_mid(F(3))
        assert catalog_function("product", k=2).kappa_upper([Interval(0, 0, 0), Interval(1, 2, 0)]) == 0
        # at a point box the bound is the closed form up to the margin; hadamard's
        # second output is 0 there with zero partials, and drops
        for f, x in ((catalog_function("inner_product", k=2), (F(3, 2), F(3, 2), F(-2), F(-2))),
                     (catalog_function("hadamard", k=2), (F(1), F(0), F(1), F(0)))):
            upper = f.kappa_upper([Interval.from_fraction(c, 1) for c in x])
            assert f.kappa_closed(x) <= upper <= f.kappa_closed(x) * (1 + F(1, 2**80))


class TestScaleInvariance:
    """kappa of a map homogeneous in x is the same at 2**-k x, to 2**-100 relative,
    however small the coordinates: each root is good to 128 relative bits."""

    @pytest.mark.parametrize("fid,kw,dim,signed,span", [c for c in CATALOG_FOR_CROSSCHECK
                                                        if c[0] not in ("affine", "sin")],
                             ids=[c[0] for c in CATALOG_FOR_CROSSCHECK if c[0] not in ("affine", "sin")])
    def test_kappa_at_tiny_coordinates(self, fid, kw, dim, signed, span):
        f = catalog_function(fid, **kw)
        pick = random.Random(fid)
        x = [Fraction(pick.uniform(*span)).limit_denominator(10**6) * (-1 if signed and pick.random() < 0.5 else 1)
             for _ in range(dim)]
        want = kappa_inside(f, RelPoint(x)).kappa
        for k in (100, 300, 600):
            got = kappa_inside(f, RelPoint([c / 2**k for c in x])).kappa
            assert abs(got - want) <= want / 2**100, k


class TestExactOnBoxes:
    """``exact`` of a rational map runs on a box of Intervals and encloses the
    map at every point of it; ``sin`` raises TypeError.  A map that restricts
    its domain is never evaluated on a box."""

    @pytest.mark.parametrize("fid,kw,dim,signed,span", CATALOG_FOR_CROSSCHECK,
                             ids=[c[0] for c in CATALOG_FOR_CROSSCHECK])
    def test_box_of_a_step_encloses_the_stepped_point(self, fid, kw, dim, signed, span):
        f = catalog_function(fid, **kw)
        if f.restricts:
            pytest.skip("restricts its domain")
        pick = random.Random(fid)
        for seed in range(3):
            coords = [Fraction(pick.uniform(*span)).limit_denominator(10**6)
                      * (-1 if signed and pick.random() < 0.5 else 1) for _ in range(dim)]
            if seed == 2 and dim > 1:
                coords[1] = Fraction(0)  # a zero coordinate is boxed as [0, 0]
            x = RelPoint(coords)
            chi, r = x.chi(), Fraction(1, 1000)
            bits = sample_bits(x, r)
            for v, rho in step_stream(len(chi), r, 6, seed, sphere=True):
                box = tuple(x.box(chi, factor_bounds(v, rho, BOX_BITS, bits)))
                if fid == "sin":
                    with pytest.raises(TypeError):
                        f.exact(box)
                    return
                fy = f.exact(rel_step(x, v, rho, chi, bits).coords)
                for iv, c in zip(f.exact(box), fy):
                    assert iv.lower() <= c <= iv.upper() if isinstance(iv, Interval) else iv == c


def _bits(ys):
    return [(y.sign, y.mantissa, y.exponent) for y in ys]


_fp_input = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)


class TestComposedAlgorithms:
    """The four composed algorithms, bit for bit against their formulas written out."""

    @staticmethod
    def _inner(us, vs, p):
        # each product rounded, then added left to right
        acc = fp_mul(us[0], vs[0], p)
        for u, v in zip(us[1:], vs[1:]):
            acc = fp_add(acc, fp_mul(u, v, p), p)
        return acc

    @pytest.mark.parametrize("t", [24, 53, 113])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @given(data=st.data())
    @settings(max_examples=20)
    def test_inner_products_and_norms(self, t, k, data):
        xs = [fl(v, t) for v in data.draw(st.lists(_fp_input, min_size=2 * k, max_size=2 * k))]
        us, vs = xs[:k], xs[k:]
        run = lambda aid, ins: _bits(algorithm(aid, k=k).evaluate(ins, t))  # noqa: E731
        assert run("inner_product", xs) == _bits([self._inner(us, vs, t)])
        assert run("squared_norm", us) == _bits([self._inner(us, us, t)])
        assert run("norm2", us) == _bits([babylonian_sqrt(self._inner(us, us, t), t)])

    @pytest.mark.parametrize("t", [24, 53, 113])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_strassen(self, t, data):
        xs = [fl(v, t) for v in data.draw(st.lists(_fp_input, min_size=8, max_size=8))]
        a11, a12, a21, a22, b11, b12, b21, b22 = xs
        add = lambda u, v: fp_add(u, v, t)  # noqa: E731
        sub = lambda u, v: fp_sub(u, v, t)  # noqa: E731
        mul = lambda u, v: fp_mul(u, v, t)  # noqa: E731
        m1 = mul(add(a11, a22), add(b11, b22))
        m2 = mul(add(a21, a22), b11)
        m3 = mul(a11, sub(b12, b22))
        m4 = mul(a22, sub(b21, b11))
        m5 = mul(add(a11, a12), b22)
        m6 = mul(sub(a21, a11), add(b11, b12))
        m7 = mul(sub(a12, a22), add(b21, b22))
        c = [add(sub(add(m1, m4), m5), m7), add(m3, m5), add(m2, m4), add(add(sub(m1, m2), m3), m6)]
        assert _bits(algorithm("strassen_2x2").evaluate(xs, t)) == _bits(c)


# signed values with t = 53 bit mantissas, with exponents near 1, anywhere in
# binary64's normal range, or at either end of it, where sums, products and
# quotients leave the range
_b64_value = st.builds(
    FpNumber,
    st.sampled_from([-1, 1]),
    st.integers(2**52, 2**53 - 1),
    st.one_of(st.sampled_from([-1021, -1020, -1000, -40, -1, 0, 1, 40, 1000, 1024]), st.integers(-1021, 1024)),
)
# coordinates of the Strassen family [[1, e], [e, 1]], each moved by a small
# relative step, e from 2^-1030 (below the normal range) to 1
_eps_value = st.builds(
    lambda one, k, d: fl(1 if one else Fraction(1 + Fraction(d, 2**20), 2**k), 53),
    st.booleans(),
    st.integers(0, 1030),
    st.integers(-2**19, 2**19),
)


@st.composite
def _b64_inputs(draw, n: int):
    xs = draw(st.lists(st.one_of(_b64_value, _b64_value, _eps_value, st.just(fp_zero())), min_size=n, max_size=n))
    # cancellations: some coordinates are the negation of others, exactly or
    # but for the last mantissa bit
    for i, j, d in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-1, 1)),
                                 max_size=n)):
        x = xs[i]
        near = x.mantissa + d
        xs[j] = FpNumber(-x.sign, near, x.exponent) if 2**52 <= near < 2**53 else -x
    # in one example of eight, one input narrower than 53 bits
    if draw(st.integers(0, 7)) == 0:
        xs[draw(st.integers(0, n - 1))] = FpNumber(1, draw(st.integers(1, 2**20)), draw(st.integers(-40, 40)))
    return xs


class TestBinary64:
    """At t = 53, evaluate runs in hardware binary64 where it gives the soft
    float's bits, and reruns the call in the soft float where it cannot."""

    SOFT_ONLY = {"babylonian_sqrt", "norm2", "sin_working"}

    @staticmethod
    def _soft(alg, xs):
        return alg._run(alg.function, tuple(xs), SoftFloat(53))

    @staticmethod
    def _hardware(alg, xs):
        return alg._run(alg.function, tuple(map(BINARY64.enter, xs)), BINARY64)

    def _matches_soft_float(self, alg, xs):
        try:
            want = self._soft(alg, xs)
        except FpDivisionByZero:
            with pytest.raises(FpDivisionByZero):
                alg.evaluate(xs, 53)
            return
        got = alg.evaluate(xs, 53)
        assert got == want
        assert [v.as_exact_string() for v in got] == [v.as_exact_string() for v in want]

    @pytest.mark.parametrize("aid", sorted(set(ALGORITHMS) - SOFT_ONLY))
    @given(data=st.data())
    @settings(max_examples=35)
    def test_every_hardware_runner_equals_the_soft_float(self, aid, data):
        kw, _ = TestRegistry.CASES[aid]
        alg = algorithm(aid, **kw)
        self._matches_soft_float(alg, data.draw(_b64_inputs(alg.in_dim), label="xs"))

    @pytest.mark.parametrize("aid,kw,xs", [
        ("naive_sum", dict(k=2), [FpNumber(1, 2**52, -1059), fl(1, 53)]),  # an input of 2^-1060
        ("naive_product", dict(k=2), [fl(Fraction(1, 2**600), 53)] * 2),  # underflows
        ("naive_product", dict(k=2), [FpNumber(1, 2**53 - 1, -1000), fl(Fraction(1, 2**30), 53)]),  # subnormal
        ("naive_sum", dict(k=2), [FpNumber(1, 2**52 + 1, -1021), FpNumber(-1, 2**52, -1021)]),  # subnormal
        ("naive_product", dict(k=2), [fl(2**600, 53)] * 2),  # overflows
        ("naive_sum", dict(k=2), [FpNumber(1, 2**59 + 1, 3), fl(1, 53)]),  # a 60-bit mantissa
        ("scalar_affine", dict(op="mul", alpha=Fraction(1, 2**1100)), [fl(2**100, 53)]),  # constant underflows
        ("scalar_affine", dict(op="div", alpha=2**1100), [fl(2**100, 53)]),  # constant overflows
        ("power", dict(exponent=-1), [fp_zero()]),  # division by zero
        ("power", dict(exponent=-1), [FpNumber(1, 2**53 - 1, 1023)]),  # a subnormal quotient
        ("babylonian_sqrt", {}, [fl(2, 53)]),  # a soft-float loop
    ], ids=["subnormal-input", "underflow", "subnormal-product", "subnormal-sum", "overflow", "wide-input", "tiny-constant", "huge-constant",
            "div-by-zero", "subnormal-quotient", "soft-only"])
    def test_refusal_falls_back_on_the_soft_float(self, aid, kw, xs):
        alg = algorithm(aid, **kw)
        with pytest.raises(Binary64Refusal):
            self._hardware(alg, xs)
        self._matches_soft_float(alg, xs)

    def test_affine_division_by_zero_cannot_be_built(self):
        # so the division by zero that reaches a runner is power[-j] at 0
        with pytest.raises(ValueError):
            algorithm("scalar_affine", op="div", alpha=0)

    def test_soft_float_runs_through_the_module_globals(self, monkeypatch):
        calls = []
        orig = fpcore.fp_add
        monkeypatch.setattr(fpcore, "fp_add", lambda a, b, p: calls.append(p.t) or orig(a, b, p))
        alg = algorithm("naive_sum", k=3)
        xs = [fl(Fraction(n, 7), 53) for n in (1, 2, 3)]
        want = self._soft(alg, xs)
        assert calls == [53, 53]
        assert alg.evaluate(xs, 53) == want
        assert calls == [53, 53]  # in hardware
        alg.evaluate(xs, 24)
        assert calls == [53, 53, 24, 24]
