import math
import random
import time
from fractions import Fraction
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_point
from stabilis import harness
from stabilis.catalog import algorithm, strassen_input
from stabilis.fpcore import Precision, fl, to_exact
from stabilis.harness import (
    _certified_inputs,
    _log_lop,
    backward_check_product,
    forward_stability_check,
    log_spaced,
    nearest_rank,
    sine_experiment,
    sine_true_input,
    spearman_rho,
    strassen_experiment,
)
from stabilis.reals import pi_real
from stabilis.relmetric import RelPoint, step_factors

rng = random.Random(31)
rand_point = partial(random_point, rng, lo=0.2, hi=4.0)


class TestHelpers:
    def test_nearest_rank(self):
        vals = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert nearest_rank(vals, 50) == 5
        assert nearest_rank(vals, 5) == 1
        assert nearest_rank(vals, 95) == 10
        assert nearest_rank([7], 50) == 7

    def test_percentiles_ordered(self):
        vals = sorted(rng.random() for _ in range(37))
        p5, p50, p95 = (nearest_rank(vals, p) for p in (5, 50, 95))
        assert p5 <= p50 <= p95

    def test_spearman(self):
        xs = list(range(10))
        assert spearman_rho(xs, xs) == pytest.approx(1.0)
        assert spearman_rho(xs, xs[::-1]) == pytest.approx(-1.0)
        noisy = [x + 0.01 * rng.random() for x in xs]
        assert spearman_rho(xs, noisy) > 0.95


class TestForwardStability:
    def test_naive_sum_positive_inputs_pass(self):
        k = 8
        alg = algorithm("naive_sum", k=k)
        inputs = [rand_point(k) for _ in range(15)]
        v = forward_stability_check(alg, inputs, [24, 53, 113], a=4 * k)
        assert v.passed
        assert v.fitted_a <= 4 * k
        assert all(r.rel_lop >= 0 and r.abs_lop >= 0 for r in v.runs)

    def test_identity_is_tightly_stable(self):
        alg = algorithm("power", exponent=1)
        v = forward_stability_check(alg, [RelPoint.of(Fraction(7, 3))], [24, 53], a=4)
        assert v.passed and v.fitted_a <= 2

    def test_strassen_family_fails(self):
        alg = algorithm("strassen_2x2")
        fam = [RelPoint(strassen_input(Fraction(1, 10**j))) for j in range(2, 9)]
        v = forward_stability_check(alg, fam, [53], a=1000)
        assert not v.passed
        assert v.fitted_a > 1000

    def test_skip_rule_for_infinite_condition(self):
        alg = algorithm("naive_sum", k=2)
        v = forward_stability_check(alg, [RelPoint.of(1, -1)], [53], a=8)
        # the only input is skipped, so there is nothing to pass on
        assert v.runs == [] and not v.passed

    def test_out_of_scope_precisions_skipped(self):
        alg = algorithm("naive_sum", k=2)
        # kappa_tilde ~ 2^40: u=2^-24 is far out of scope, u=2^-113 is in
        x = RelPoint.of(1, Fraction(-1) + Fraction(1, 2**40))
        v = forward_stability_check(alg, [x], [24, 113], a=8)
        assert len(v.runs) == 1
        assert v.runs[0].u == Precision(113).u

    def test_u_matches_run_precision(self):
        alg = algorithm("naive_product", k=3)
        v = forward_stability_check(alg, [rand_point(3)], [24, 53], a=12)
        assert {r.u for r in v.runs} == {Precision(24).u, Precision(53).u}

    def test_fitted_constant_stable_across_precisions(self):
        # the empirical forward constant is finite and of the same order at
        # every working precision for the stable algorithms
        for aid, kw, dim in (("naive_sum", dict(k=6), 6), ("naive_product", dict(k=6), 6)):
            alg = algorithm(aid, **kw)
            inputs = [rand_point(dim) for _ in range(20)]
            fitted = []
            for t in (24, 53, 113):
                v = forward_stability_check(alg, inputs, [t], a=24)
                assert v.passed
                fitted.append(float(v.fitted_a))
            assert max(fitted) <= 6 * max(min(fitted), 0.05)


class TestBackwardWitness:
    def test_within_4ku(self):
        for k in (3, 6, 12):
            for t in (24, 53):
                x = rand_point(k, signed=True)
                d = backward_check_product(x, t)
                assert d <= 4 * k * Precision(t).u

    def test_requires_small_u(self):
        x = rand_point(100)
        with pytest.raises(ValueError):
            backward_check_product(x, 8)  # u = 2^-8 >= 1/(4*100)

    def test_requires_nonzero_coordinates(self):
        with pytest.raises(ValueError):
            backward_check_product(RelPoint.of(1, 0, 2), 53)


class TestStrassenExperiment:
    def test_slope_and_flat_absolute(self):
        rows = strassen_experiment(log_spaced(1e-8, 1e-2, 12), 40, seed=7)
        xs = [math.log10(r.epsilon) for r in rows]
        ys = [math.log10(r.rel_med) for r in rows]
        slope = np.polyfit(xs, ys, 1)[0]
        assert -1.15 <= slope <= -0.85
        abs_meds = [r.abs_med for r in rows]
        assert max(abs_meds) <= 1000
        assert max(abs_meds) / min(abs_meds) < 1000

    def test_determinism(self):
        grid = log_spaced(1e-6, 1e-3, 4)
        a = strassen_experiment(grid, 10, seed=3)
        b = strassen_experiment(grid, 10, seed=3)
        assert a == b
        c = strassen_experiment(grid, 10, seed=4)
        assert a != c

    def test_percentiles_ordered(self):
        rows = strassen_experiment(log_spaced(1e-5, 1e-3, 3), 20, seed=1)
        for r in rows:
            assert r.rel_p05 <= r.rel_med <= r.rel_p95
            assert r.abs_p05 <= r.abs_med <= r.abs_p95


def full_width_inputs(base, draws, t):
    """fl(b * M) for M the 176-bit factor midpoints, as the table defines its inputs."""
    half = Fraction(1, 2)
    factors = step_factors(draws[:4], half, 176) + step_factors(draws[4:], half, 176)
    return [fl(b * m * Fraction(2) ** e, t) for b, (m, e) in zip(base, factors)]


# a Gaussian-like half, or one whose largest entry sits far below 1, where
# the bound on the 176-bit midpoints loses the most bits
half_draws = st.one_of(
    st.lists(st.floats(-8, 8, allow_nan=False), min_size=4, max_size=4),
    st.tuples(st.lists(st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4),
              st.integers(-40, 4)).map(lambda p: [c * 2.0 ** p[1] for c in p[0]]),
).filter(any)


class TestLowWidthInputs:
    """Inputs decided at t + 32 bits against the 176-bit definition."""

    @given(half_draws, half_draws,
           st.fractions(min_value=Fraction(1, 10**9), max_value=Fraction(1, 10), max_denominator=10**9),
           st.sampled_from([24, 53, 113]))
    @settings(max_examples=150, deadline=None)
    def test_each_certified_input_is_the_full_width_rounding(self, a, b, eps, t):
        base = strassen_input(eps)
        got = _certified_inputs(base, a + b, Precision(t))
        if got is not None:
            want = full_width_inputs(base, a + b, t)
            assert [(v.sign, v.mantissa, v.exponent) for v in got] == \
                   [(v.sign, v.mantissa, v.exponent) for v in want]

    @pytest.mark.parametrize("t", [24, 53, 113])
    def test_non_dyadic_entries(self, t):
        # eps = 1/3: the entries' products are rounded as quotients
        base = strassen_input(Fraction(1, 3))
        draws = np.random.default_rng(t).standard_normal(8).tolist()
        got = _certified_inputs(base, draws, Precision(t))
        assert got is not None and got == full_width_inputs(base, draws, t)

    @pytest.mark.parametrize("t", [53, 113])
    def test_forced_fallback_gives_the_same_rows(self, monkeypatch, t):
        grid = log_spaced(1e-7, 1e-2, 3)
        want = strassen_experiment(grid, 15, seed=9, t=t)
        # below t bits no enclosure is narrow enough to certify a rounding
        monkeypatch.setattr(harness, "LOW_GUARD", -20)
        seen = []
        inner = harness._certified_inputs
        monkeypatch.setattr(harness, "_certified_inputs", lambda *a: seen.append(inner(*a)) or seen[-1])
        assert strassen_experiment(grid, 15, seed=9, t=t) == want
        assert len(seen) == 45 and all(x is None for x in seen)


class TestSineExperiment:
    def test_benign_start_and_growth(self):
        recs = sine_experiment(24, 53, 512)
        lops = [float(r.rel_lop) for r in recs]
        assert lops[0] <= 1e3
        # roughly doubles per k: factor 2^20 within a factor 32 over 20 steps
        assert lops[20] / lops[0] > 2**15
        assert spearman_rho(list(range(1, 25)), lops) > 0.95

    def test_row_shape(self):
        recs = sine_experiment(5, 53, 256)
        assert len(recs) == 5
        for r in recs:
            assert r.u == Precision(53).u
            assert r.rel_lop >= 0 and r.abs_lop >= 0

    def test_reference_stable_under_guard_doubling(self):
        a = sine_experiment(16, 53, 512)
        b = sine_experiment(16, 53, 1024)
        for ra, rb in zip(a, b):
            if ra.rel_lop == math.inf:
                assert rb.rel_lop == math.inf
                continue
            assert abs(float(ra.rel_lop) - float(rb.rel_lop)) <= 0.001 * float(ra.rel_lop)

    def test_saturation_rows_match_mpmath(self):
        # Independent recomputation of the saturated rows: x_hat is the
        # 53-bit round-to-nearest of pi*2^k + 1, and rel_lop is
        # |log(sin x_hat / sin 1)| / u (complex log on opposite signs).
        recs = sine_experiment(100, 53, 512)
        with mp.workprec(2400):
            u = mp.mpf(2) ** -53
            for k in range(60, 101):
                x = mp.pi * mp.mpf(2) ** k + 1
                xhat = mp.mpf(x, prec=53, rounding="n")
                man, exp = xhat.man_exp
                ours = to_exact(fl(sine_true_input(k), Precision(53)))
                assert Fraction(man) * Fraction(2) ** exp == ours, k
                ref = abs(mp.log(mp.sin(xhat) / mp.sin(1))) / u
                got = recs[k - 1].rel_lop
                assert abs(mp.mpf(got.numerator) / got.denominator / ref - 1) < 1e-9, k

    def test_kappa_tilde_is_one_plus_x_cot_x(self):
        recs = sine_experiment(320, 53, 512)
        with mp.workprec(2400):
            for k in (1, 10, 100, 320):
                x = mp.pi * mp.mpf(2) ** k + 1
                kt = recs[k - 1].kappa_tilde
                got = mp.mpf(kt.numerator) / kt.denominator
                assert abs(got / (1 + x * mp.cot(x)) - 1) < mp.mpf(2) ** -180, k

    def test_reference_is_computed_once_per_row(self, monkeypatch):
        from stabilis import catalog

        widths = []
        sin_iv = catalog.sin_iv

        def counting(x, bits):
            widths.append(bits)
            return sin_iv(x, bits)

        monkeypatch.setattr(catalog, "sin_iv", counting)
        sine_experiment(40, 53, 512)
        assert sum(w >= 512 for w in widths) == 40

    def test_lop_against_an_undecidable_reference_is_infinite(self):
        t0 = time.perf_counter()
        assert _log_lop(Fraction(1), pi_real() - pi_real(), Fraction(1, 2**53), 192) == math.inf
        assert time.perf_counter() - t0 < 5

    def test_true_input_value(self):
        x = sine_true_input(3)
        iv = x.enclosure(200)
        assert float(iv.midpoint()) == pytest.approx(8 * math.pi + 1, rel=1e-15)
