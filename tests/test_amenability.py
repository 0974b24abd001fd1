import math
import random
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_point
from stabilis import amenability, relmetric
from stabilis.amenability import (
    amenability_probe,
    excess_factor,
    gradient_criterion,
    smallest_passing_constant,
    strassen_excess_closed_form,
)
from stabilis.catalog import Composite, Sin, SquaredNorm, catalog_function, compose, strassen_input
from stabilis.condition import kappa_closed_form, kappa_inside
from stabilis.fpcore import fl, to_exact
from stabilis.reals import pi_real
from stabilis.relmetric import RelPoint
from test_catalog import BOXED, boxed_map

rng = random.Random(5150)
rand_point = partial(random_point, rng, lo=0.2, hi=5.0)


class TestAmenabilityProbe:
    def test_sum_passes_at_a8(self):
        f = catalog_function("sum", k=2)
        v = amenability_probe(f, None, RelPoint.of(1, 1), 8, 300, seed=4)
        assert v.passed and v.witness is None
        assert v.samples_used == 300

    def test_identity_passes_trivially(self):
        f = catalog_function("affine", op="mul", alpha=1)
        v = amenability_probe(f, None, RelPoint.of(3), 1, 100, seed=1)
        assert v.passed

    def test_sin_far_out_fails_with_witness(self):
        f = catalog_function("sin")
        x = RelPoint.of(pi_real() * Fraction(1, 2) + pi_real() * (10**6))
        v = amenability_probe(f, None, x, 64, 200, seed=9)
        assert not v.passed and not v.A2_ok
        assert v.witness is not None

    def test_witness_self_certifies(self):
        f = catalog_function("sin")
        x = RelPoint.of(pi_real() * Fraction(1, 2) + pi_real() * (10**6))
        v = amenability_probe(f, None, x, 64, 200, seed=9)
        kt_w = kappa_closed_form(f, v.witness).kappa_tilde
        assert kt_w == math.inf or kt_w > 64 * Fraction(v.kappa_tilde_at_x)

    def test_each_sampled_point_is_evaluated_once(self, monkeypatch):
        # norm2's domain check evaluates its inner squared_norm stage once:
        # at x, then at each of the 60 points, and never again for kappa
        calls = []
        exact = SquaredNorm.exact
        monkeypatch.setattr(SquaredNorm, "exact", lambda self, xs: calls.append(xs) or exact(self, xs))
        v = amenability_probe(catalog_function("norm2", k=3), None, RelPoint.of(1, 2, 3), 8, 60, seed=1)
        assert v.passed and v.samples_used == 60
        assert len(calls) == 61

    def test_requires_finite_condition(self):
        f = catalog_function("sum", k=2)
        with pytest.raises(ValueError):
            amenability_probe(f, None, RelPoint.of(1, -1), 8, 10, seed=0)

    @pytest.mark.parametrize("a,n", [(8, 0), (8, -5), (0, 10), (-1, 10)])
    def test_requires_a_sample_and_a_positive_constant(self, a, n):
        f = catalog_function("sum", k=2)
        with pytest.raises(ValueError):
            amenability_probe(f, None, RelPoint.of(1, 2), a, n, seed=0)

    def test_constant_sweep(self):
        f = catalog_function("sum", k=3)
        a = smallest_passing_constant(f, RelPoint.of(1, 2, 3), n=100, seed=2)
        assert a is not None and a <= 8

    def test_ball_crossing_a_zero_sum_fails_A1(self):
        # with a = 1/100 the ball is so wide that the negative coordinate
        # outgrows the positive one: sqrt then leaves its domain (clause A.1)
        f = compose(catalog_function("sqrt"), catalog_function("summation", k=2))
        v = amenability_probe(f, None, RelPoint.of(1, Fraction(-1, 2)), Fraction(1, 100), 40, seed=0)
        assert not v.A1_ok and v.A2_ok and not v.passed
        assert v.samples_used == 1 and v.witness_kappa_tilde is None
        assert sum(v.witness.coords) < 0
        assert v.witness.coords == (
            Fraction(27264982834428269951353537405397290127862554575902872040225312764787,
                     62165404551223330269422781018352605012557018849668464680057997111644937126566671941632),
            Fraction(-34161042854695484771754345654601222644890994840061884398117823899225,
                     50216813883093446110686315385661331328818843555712276103168),
        )


_signed = st.fractions(min_value=-8, max_value=8, max_denominator=10**6)


class TestLowWidthDecisions:
    """The probe's low-width certificates against checking every point exactly."""

    @staticmethod
    def verdict(f, kappa_fn, x, a, n, seed):
        try:
            v = amenability_probe(f, kappa_fn, x, a, n, seed)
        except ValueError as e:  # kappa_tilde is infinite at x
            return repr(e)
        return repr((v, v.witness and v.witness.coords))

    @given(st.sampled_from(BOXED), st.integers(1, 16),
           st.sampled_from([Fraction(1, 4), 1, 2, 8]), st.sampled_from([1, 2, 7, 40]), st.integers(0, 2**16),
           st.data())
    @settings(max_examples=200)
    def test_same_verdict_as_the_exact_path(self, fid, k, a, n, seed, data):
        # a = 1/4 gives radii above 1, where the ball's certificate does not apply
        f = boxed_map(fid, k)
        x = RelPoint(data.draw(st.lists(_signed, min_size=f.in_dim, max_size=f.in_dim), label="x"))
        exact = self.verdict(f, lambda pt: kappa_inside(f, pt), x, a, n, seed)
        assert self.verdict(f, None, x, a, n, seed) == exact

    @staticmethod
    def count_steps(monkeypatch):
        built = []
        step = relmetric.rel_step
        for mod in (relmetric, amenability):
            monkeypatch.setattr(mod, "rel_step", lambda *a, **kw: built.append(1) or step(*a, **kw), raising=False)
        return built

    def test_passing_probe_builds_no_point(self, monkeypatch):
        built = self.count_steps(monkeypatch)
        v = amenability_probe(catalog_function("sum", k=64), None, rand_point(64), 8, 120, seed=3)
        assert v.passed and v.samples_used == 120
        assert built == []

    def test_failing_probe_builds_only_its_witness(self, monkeypatch):
        f, x = catalog_function("sum", k=2), RelPoint.of(Fraction(-2, 5), Fraction(8, 3))
        exact = self.verdict(f, lambda pt: kappa_inside(f, pt), x, Fraction(11, 10), 40, 2)
        built, drawn = self.count_steps(monkeypatch), []
        samples = amenability.rel_samples
        monkeypatch.setattr(amenability, "rel_samples",
                            lambda *a, **kw: (drawn.append(y) or y for y in samples(*a, **kw)))
        v = amenability_probe(f, None, x, Fraction(11, 10), 40, seed=2)
        assert not v.passed and v.samples_used == 12
        assert repr((v, v.witness.coords)) == exact
        assert len(built) == len(drawn) == 12  # none drawn after the witness


class TestGradientCriterion:
    def test_product_any_q(self):
        f = catalog_function("product", k=5)
        assert gradient_criterion(f, rand_point(5), Fraction(1, 100))

    def test_sum_with_2k(self):
        for k in (2, 8, 32):
            f = catalog_function("sum", k=k)
            for _ in range(25):
                x = rand_point(k)
                assert gradient_criterion(f, x, 2 * k)

    def test_sum_rejects_singular_point(self):
        f = catalog_function("sum", k=2)
        with pytest.raises(ValueError):
            gradient_criterion(f, RelPoint.of(1, -1), 4)

    def test_sin_on_period_window(self):
        # q = 2 (k2 pi)^2 for the window [k1 pi, k2 pi] with k2 = 2
        f = catalog_function("sin")
        q = Fraction(2 * 41)  # > 2 (2 pi)^2 ~ 78.9... use 82
        for num in range(33, 62, 4):  # x in (pi, 2 pi) roughly: 3.3 .. 6.1
            x = RelPoint.of(Fraction(num, 10))
            assert gradient_criterion(f, x, q)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_sum_matches_a_400_digit_oracle(self, data):
        # inner_product[k] is the sum of p = x o y with sqrt 2 on its kappa, and
        # x_i d/dx_i = y_i d/dy_i = p_i d/dp_i, so each p_i's entry counts twice;
        # its Hessian is not 0, so the H term of the one route is checked too
        fid = data.draw(st.sampled_from(["sum", "inner_product"]), label="f")
        c = 1 if fid == "sum" else 2
        k = data.draw(st.integers(1, 8), label="k")
        coord = st.fractions(min_value=-20, max_value=20, max_denominator=50)
        xs = data.draw(st.lists(coord, min_size=c * k, max_size=c * k), label="x")
        ps = xs if c == 1 else [a * b for a, b in zip(xs[:k], xs[k:])]
        assume(sum(ps) != 0)
        with mpmath.workdps(400):
            mx = [mpmath.mpf(v.numerator) / v.denominator for v in ps]
            S = mpmath.fsum(mx)
            nrm = mpmath.sqrt(mpmath.fsum(v * v for v in mx))
            # p_i d(kappa)/dp_i for kappa = sqrt(c) ||p|| / |S|
            grads = [mpmath.sqrt(c) * (v * v / (nrm * abs(S)) - v * nrm * mpmath.sign(S) / (S * S)) for v in mx]
            lhs = mpmath.sqrt(c * mpmath.fsum(g * g for g in grads))
            kt2 = (mpmath.sqrt(c) * nrm / abs(S) + 1) ** 2
            if data.draw(st.booleans(), label="near the boundary"):
                q = Fraction(str(mpmath.nstr(lhs / kt2, 12))).limit_denominator(10**9)
            else:
                q = data.draw(st.fractions(min_value=-1, max_value=4 * k, max_denominator=20), label="q")
            rhs = (mpmath.mpf(q.numerator) / q.denominator) * kt2
            gap = lhs - rhs
            assume(abs(gap) > mpmath.mpf(10) ** -350 * (abs(lhs) + abs(rhs) + 1))
        assert gradient_criterion(catalog_function(fid, k=k), RelPoint(xs), q) == (gap < 0)

    def test_ties_decide_exactly(self):
        for fn in ("sum", "product"):
            for pt in (RelPoint.of(1, 1), RelPoint.of(Fraction(-3, 7), Fraction(-3, 7), Fraction(-3, 7))):
                f = catalog_function(fn, k=pt.dim)
                assert gradient_criterion(f, pt, 0) is True
                assert gradient_criterion(f, pt, -1) is False
        assert gradient_criterion(catalog_function("sum", k=2), RelPoint.of(1, 2), 0) is False
        assert gradient_criterion(catalog_function("sin"), RelPoint.of(1), 0) is False
        assert gradient_criterion(catalog_function("sin"), RelPoint.of(0), 0) is True

    def test_sin_near_a_zero_of_sine(self):
        # sin x ~ 2^-200 here; kappa is finite, and x d(kappa)/dx ~ (x/sin x)^2
        # ~ kappa^2, so the verdict turns between q = 1/2 and q = 2
        x = RelPoint.of(to_exact(fl(pi_real(), 200)))
        assert Sin().kappa_closed(x.coords) < math.inf
        assert gradient_criterion(Sin(), x, Fraction(1, 2)) is False
        assert gradient_criterion(Sin(), x, 2) is True

    def test_sin_at_a_zero_of_sine_is_infinite(self):
        with pytest.raises(ValueError, match="kappa is infinite"):
            gradient_criterion(catalog_function("sin"), RelPoint.of(pi_real()), 2)

    @pytest.mark.parametrize("fid,kw,xs", [
        ("product", dict(k=3), (Fraction(-3, 7), 2, Fraction(5, 11))),
        ("power", dict(exponent=3), (Fraction(-5, 3),)),
        ("power", dict(exponent=-2), (Fraction(7, 2),)),
        ("affine", dict(op="mul", alpha=Fraction(-2, 3)), (Fraction(9, 4),)),
        ("affine", dict(op="div", alpha=7), (Fraction(-1, 5),)),
        ("sqrt", dict(), (Fraction(49, 9),)),
    ])
    def test_constant_kappa_ties_exactly(self, fid, kw, xs):
        # kappa is locally constant, so the gradient is an exact 0: H cancels
        f, x = catalog_function(fid, **kw), RelPoint(tuple(map(Fraction, xs)))
        assert gradient_criterion(f, x, 0) is True
        assert gradient_criterion(f, x, -1) is False

    @pytest.mark.parametrize("fid,kw", [
        ("norm2", dict(k=3)),
        ("squared_norm", dict(k=3)),
        ("matmul_entry", dict(i=2, j=1)),
        ("linear_map", dict(rows=[[2, -1, 3]])),
    ])
    def test_every_one_output_map_answers(self, fid, kw):
        f = catalog_function(fid, **kw)
        x = RelPoint(tuple(Fraction(n, 3) for n in (2, -5, 4, 1, 7, -2, 3, 5)[:f.in_dim]))
        assert gradient_criterion(f, x, 0) is False  # kappa is not locally constant here
        assert gradient_criterion(f, x, 10**6) is True
        assert gradient_criterion(f, RelPoint(x.coords[:-1] + (pi_real(),)), 10**6) is True

    def test_zero_of_second_order(self):
        # (x + y)^2 at (1, -1) is 0 with no first partial: kappa is infinite
        f = compose(catalog_function("power", exponent=2), catalog_function("sum", k=2))
        with pytest.raises(ValueError, match="kappa is infinite"):
            gradient_criterion(f, RelPoint.of(1, -1), 4)
        # 1 + (x + y)^2 there: kappa = |s| at a zero of s with a nonzero derivative
        g = compose(catalog_function("affine", op="add", alpha=1), f)
        with pytest.raises(ValueError, match="not differentiable"):
            gradient_criterion(g, RelPoint.of(1, -1), 4)

    def test_unsupported_function(self):
        f = catalog_function("copy", k=2)
        with pytest.raises(ValueError, match="several outputs"):
            gradient_criterion(f, RelPoint.of(1, 2), 4)


class TestExcessFactor:
    def test_sum_after_hadamard_at_ones(self):
        g = catalog_function("sum", k=2)
        h = catalog_function("hadamard", k=2)
        rep = excess_factor(g, h, RelPoint.of(1, 1, 1, 1))
        # (1 + sqrt2/2)(1 + sqrt2) / (1 + 1)
        expected = (1 + math.sqrt(2) / 2) * (1 + math.sqrt(2)) / 2
        assert float(rep.excess) == pytest.approx(expected, rel=1e-12)

    def test_numerator_dominates_composite(self):
        pairs = [
            ("sum", "hadamard"),
            ("inner_product", "copy"),
            ("sqrt", "squared_norm"),
        ]
        for gname, hname in pairs:
            for _ in range(25):
                k = rng.randint(2, 8)
                if gname == "sum":
                    g = catalog_function("sum", k=k)
                    h = catalog_function("hadamard", k=k)
                    x = rand_point(2 * k)
                elif gname == "inner_product":
                    g = catalog_function("inner_product", k=k)
                    h = catalog_function("copy", k=k)
                    x = rand_point(k)
                else:
                    g = catalog_function("sqrt")
                    h = catalog_function("squared_norm", k=k)
                    x = rand_point(k)
                rep = excess_factor(g, h, x)
                assert rep.excess is None or Fraction(rep.kt_g_at_hx) * Fraction(
                    rep.kt_h_at_x
                ) >= Fraction(rep.kt_f_at_x) * (1 - Fraction(1, 2**64))

    def test_compatible_pairs_stay_bounded(self):
        # the three compatible decompositions keep a small excess at any
        # dimension up to 64; the constant 10 never binds
        for i in range(333):
            k = rng.choice((2, 3, 5, 8, 16, 32, 64))
            x = rand_point(k)
            rep = excess_factor(catalog_function("sqrt"), catalog_function("squared_norm", k=k), x)
            assert rep.excess < 10
            rep2 = excess_factor(
                catalog_function("inner_product", k=k), catalog_function("copy", k=k), x
            )
            assert rep2.excess < 10
            x2 = rand_point(2 * k)
            rep3 = excess_factor(
                catalog_function("sum", k=k), catalog_function("hadamard", k=k), x2
            )
            if rep3.excess is not None:
                assert rep3.excess < 10

    def test_strassen_blowup(self):
        g = catalog_function("strassen_g")
        h = catalog_function("strassen_h")
        rep = excess_factor(g, h, RelPoint(strassen_input(Fraction(1, 1000))))
        assert rep.excess >= 250

    def test_undefined_when_composite_singular(self):
        g = catalog_function("sum", k=2)
        h = catalog_function("hadamard", k=2)
        # x1*y1 = 1, x2*y2 = -1 so the inner product vanishes
        rep = excess_factor(g, h, RelPoint.of(1, 1, 1, -1))
        assert rep.excess is None and not rep.defined


class TestCompositeRegistry:
    def test_known_pairs(self):
        g = catalog_function("sum", k=3)
        h = catalog_function("hadamard", k=3)
        assert compose(g, h).id == "inner_product[3]"
        assert compose(catalog_function("sqrt"), catalog_function("squared_norm", k=2)).id == "norm2[2]"
        p2 = catalog_function("power", exponent=2)
        p3 = catalog_function("power", exponent=3)
        assert compose(p2, p3).id == "power[6]"
        assert compose(catalog_function("strassen_g"), catalog_function("strassen_h")).id == "matmul_2x2"

    def test_unknown_pair(self):
        f = compose(catalog_function("sin"), catalog_function("sqrt"))
        assert isinstance(f, Composite) and f.id == "sin o sqrt"
        assert kappa_closed_form(f, RelPoint.of(2)).method == "jacobian"

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"cannot compose sqrt after copy\[1\]"):
            compose(catalog_function("sqrt"), catalog_function("copy", k=1))
        with pytest.raises(ValueError, match="cannot compose"):
            excess_factor(catalog_function("sum", k=3), catalog_function("hadamard", k=2),
                          RelPoint.of(1, 2, 3, 4))

    @pytest.mark.parametrize("g,h", [
        (("sin", {}), ("sqrt", {})),
        (("power", {"exponent": 3}), ("sin", {})),
        (("sin", {}), ("sin", {})),
        (("sqrt", {}), ("power", {"exponent": 3})),
    ])
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(7, 5), Fraction(2), Fraction(50)])
    def test_chain_rule_matches_central_difference(self, g, h, x):
        f = compose(catalog_function(g[0], **g[1]), catalog_function(h[0], **h[1]))
        assert isinstance(f, Composite)
        step = Fraction(1, 2**64)
        up, dn = f.exact((x + step,))[0], f.exact((x - step,))[0]
        dq = (up.enclosure(400).midpoint() - dn.enclosure(400).midpoint()) / (2 * step)
        d = f.jacobian((x,))[0][0].enclosure(400).midpoint()
        # the central difference is off by step^2/6 times a third derivative
        assert abs(dq - d) <= (1 + abs(d)) / 2**60


class TestStrassenClosedForms:
    def test_g12_value_at_hundredth(self):
        forms = strassen_excess_closed_form(Fraction(1, 100))
        assert float(forms.kappa_g12) == pytest.approx(
            math.sqrt(0.99**2 + 1.01**2) / 0.02, rel=1e-12
        )

    def test_off_diagonal_constant(self):
        for eps in (Fraction(1, 10), Fraction(1, 10**4), Fraction(1, 10**8)):
            forms = strassen_excess_closed_form(eps)
            assert float(forms.kappa_entries[1]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)
            assert forms.kappa_entries[1] == forms.kappa_entries[2]

    def test_g12_dominates_half_inverse_eps(self):
        for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6)):
            forms = strassen_excess_closed_form(eps)
            assert forms.kappa_g12 >= Fraction(1, 2) / eps

    def test_lower_bound_exact(self):
        for eps in (Fraction(1, 7), Fraction(3, 1000)):
            forms = strassen_excess_closed_form(eps)
            assert forms.lower_bound * 4 * eps == 1

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            strassen_excess_closed_form(Fraction(2))
