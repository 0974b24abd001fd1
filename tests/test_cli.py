import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from stabilis import cli
from stabilis.cli import main, parse_point, ExprError
from stabilis.condition import ConditionReport
from stabilis.reals import CertifiedReal, PrecisionError


@pytest.fixture
def runner():
    return CliRunner()


class TestPointParser:
    def test_plain_numbers(self):
        pt = parse_point("1,2,3")
        assert [c for c in pt.coords] == [1, 2, 3]

    def test_rationals_and_decimals(self):
        pt = parse_point("0.1, -3/2".replace("/", "/"))
        assert pt.coords[0] == Fraction(1, 10)

    def test_division_and_powers(self):
        pt = parse_point("3/4, 2^10, 10^-3")
        assert pt.coords[0] == Fraction(3, 4)
        assert pt.coords[1] == 1024
        assert pt.coords[2] == Fraction(1, 1000)

    def test_pi_expressions(self):
        pt = parse_point("pi/2 + 1000000*pi")
        val = float(pt.coords[0])
        assert val == pytest.approx(math.pi / 2 + 1e6 * math.pi, rel=1e-12)

    def test_scientific_notation(self):
        pt = parse_point("1e-3, 2.5e2")
        assert pt.coords[0] == Fraction(1, 1000)
        assert pt.coords[1] == 250

    def test_parentheses(self):
        pt = parse_point("(1+2)*4")
        assert pt.coords[0] == 12

    def test_errors(self):
        with pytest.raises(ExprError):
            parse_point("1 + ")
        with pytest.raises(ExprError):
            parse_point("")
        with pytest.raises(ExprError):
            parse_point("spam")

    # Exact values, and for certified reals the first 16 hex digits of the
    # SHA-256 of f"{lo:x} {hi:x} {scale}" of enclosure(256).
    @pytest.mark.parametrize("text,expected", [
        ("1+2*3", Fraction(7)),
        ("(1+2)*3", Fraction(9)),
        ("2*3^2", Fraction(18)),
        ("-2^2", Fraction(-4)),
        ("10-4-3", Fraction(3)),
        ("2/3/4", Fraction(1, 6)),
        ("1-2+3", Fraction(2)),
        ("24/2*3", Fraction(36)),
        ("--3", Fraction(3)),
        ("-+-3", Fraction(3)),
        ("+5", Fraction(5)),
        ("- -pi", "5c5cab7bd0016163"),
        ("2^-3", Fraction(1, 8)),
        ("2^+2", Fraction(4)),
        ("(2^3)^2", Fraction(64)),
        ("-2^-2", Fraction(-1, 4)),
        ("2**10", Fraction(1024)),
        ("(1/3)^-2", Fraction(9)),
        (".5", Fraction(1, 2)),
        ("5.", Fraction(5)),
        ("1E2", Fraction(100)),
        ("1e-300000", Fraction(1, 10**300000)),
        ("2.5e-3", Fraction(1, 400)),
        (" 3/4 * (1 - 1/4) ", Fraction(9, 16)),
        ("pi/2+1000000*pi", "ac2ef7dc8f58aafa"),
        ("pi*2^3000+1", "f5176aefd647cd79"),
        ("1/pi", "cf1616a1e24447d4"),
        ("pi/pi", "880961509210df16"),
        ("pi/2", "597c9b9a68e9f3d2"),
        ("pi/3", "728a0e57d1ae1c01"),
        ("-pi^2", "fc705296c461b58a"),
        ("2/(pi-3)", "9ab1c6a9fe864fdd"),
        ("(pi+1)*(pi-1)", "26ea7061799ed45b"),
        ("3*pi-pi/4", "318b4aee6e7fe34f"),
        ("4-pi", "9d351372229da6fc"),  # a rational minus a certified value
        ("pi^0", Fraction(1)),
        ("(pi-355/113)^2", "25e6bdf625fb9f62"),
    ])
    def test_values(self, text, expected):
        (v,) = parse_point(text).coords
        if isinstance(expected, Fraction):
            assert type(v) is Fraction and v == expected
        else:
            iv = v.enclosure(256)
            digest = hashlib.sha256(f"{iv.lo:x} {iv.hi:x} {iv.scale}".encode()).hexdigest()
            assert digest[:16] == expected

    def test_even_power_of_an_enclosure_holding_zero(self):
        # at width 0 the base is asked 16 bits, where pi - 355/113 (about
        # -2.7e-7) is not yet signed: the square's enclosure starts at 0
        iv = cli._coordinate("(pi-355/113)^2", cli._Budget()).enclosure(0)
        assert (iv.lo, iv.hi, iv.scale) == (0, 1, 0)

    @pytest.mark.parametrize("text", [
        "2^3^2", "2^1.5", "2^pi", "2^0x2", "1_0", "0x10", "1/0", "pi(1)",
        "2 3", "Pi", "2^-", "2^", "2^--3", "1j", "1%2", "007", "pi/0", "0^-1", "2^- 3",
    ])
    def test_rejected(self, text):
        with pytest.raises(ExprError):
            parse_point(text)

    def test_deep_nesting_is_rejected(self):
        with pytest.raises(ExprError):
            parse_point("(" * 300 + "1" + ")" * 300)

    def test_parenthesised_exponent(self):
        assert parse_point("2^(10), 2^(-3)").coords == (1024, Fraction(1, 8))

    def test_long_sum(self):
        assert parse_point("+".join(["1/7"] * 500)).coords[0] == Fraction(500, 7)

    def test_rational_size_cap(self):
        assert parse_point(f"2^{cli.MAX_BITS - 1}").coords[0].numerator.bit_length() == cli.MAX_BITS
        for text in (f"2^{cli.MAX_BITS}", f"2^-{cli.MAX_BITS}", "3^700000", f"1e{cli.MAX_BITS // 3 + 1}",
                     "1e-400000", "(2^600000)*(2^600000)", "2^600000/3^700000", "(1/3)^-700000"):
            with pytest.raises(ExprError, match="bits"):
                parse_point(text)

    def test_point_bit_budget(self):
        # every rational a point builds is charged against one budget, so an
        # expression cannot chain near-cap operations: each costs a gcd of
        # million-bit integers (about 2 s for one term below)
        assert len(parse_point(",".join(["2^1048000"] * 4)).coords) == 4
        for text in (",".join(["2^1048000"] * 4 + ["2^3000"]), "+".join(["(3^660000/5^450000)"] * 3)):
            t0 = time.perf_counter()
            with pytest.raises(ExprError, match="in all"):
                parse_point(text)
            assert time.perf_counter() - t0 < 10


class TestCond:
    def test_product(self, runner):
        r = runner.invoke(main, ["cond", "product", "1,2,3"])
        assert r.exit_code == 0
        assert f"kappa = {math.sqrt(3)!r}" in r.output

    def test_sum_singular(self, runner):
        r = runner.invoke(main, ["cond", "sum", "1,-1"])
        assert r.exit_code == 0
        assert "kappa = inf" in r.output

    def test_sampled_close_to_closed(self, runner):
        closed = runner.invoke(main, ["cond", "sum", "1,2,3"])
        sampled = runner.invoke(main, ["cond", "--method", "sampled", "sum", "1,2,3"])
        kc = float(closed.output.split("kappa = ")[1].splitlines()[0])
        ks = float(sampled.output.split("kappa = ")[1].splitlines()[0])
        assert abs(ks - kc) <= 0.05 * kc
        assert "method = sampled" in sampled.output

    def test_unknown_function_is_usage_error(self, runner):
        r = runner.invoke(main, ["cond", "frobnicate", "1"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("point", [
        pytest.param("(" * 300 + "1" + ")" * 300, id="300-parentheses"), "2^-", "2^", "1_0", "2^-,1", "pi/0",
    ])
    def test_malformed_point_is_usage_error(self, runner, point):
        r = runner.invoke(main, ["cond", "sum", point])
        assert r.exit_code == 2
        assert "Usage:" in r.output and "Traceback" not in r.output

    @pytest.mark.parametrize("args", [["--alpha", "abc"], ["--alpha", "1/0"], ["--op", "div", "--alpha", "0"]])
    def test_malformed_constant_is_usage_error(self, runner, args):
        r = runner.invoke(main, ["cond", "affine", "2"] + args)
        assert r.exit_code == 2
        assert "computation error" not in r.output

    def test_domain_error_exits_3(self, runner):
        r = runner.invoke(main, ["cond", "sqrt", "(-1)"])
        assert r.exit_code == 3

    @pytest.mark.parametrize("method", ["auto", "jacobian"])
    def test_kappa_past_the_float_range(self, runner, method):
        # kappa = |x cot x| at x = pi*2^3000 + 1 is about 2^3001; mpmath at
        # 12,000 bits gives 2.4816157693897506136e+903
        r = runner.invoke(main, ["cond", "--method", method, "sin", "pi*2^3000+1"])
        assert r.exit_code == 0, r.output
        assert "kappa = 2.4816157693897506e+903\n" in r.stdout
        assert "kappa_tilde = 2.4816157693897506e+903\n" in r.stdout

    @pytest.mark.parametrize("fn,point,kappa", [
        ("product", "pi,1/3", "1.4142135623730951"),  # sqrt 2
        ("squared_norm", "pi,1", "1.8252983769810431"),  # 2 sqrt(pi^4 + 1) / (pi^2 + 1)
    ])
    def test_jacobian_at_certified_coordinates(self, runner, fn, point, kappa):
        r = runner.invoke(main, ["cond", "--method", "jacobian", fn, point])
        assert r.exit_code == 0, r.output
        assert f"kappa = {kappa}\n" in r.stdout

    @pytest.mark.parametrize("args,kappa", [
        (["squared_norm", "pi,1"], "1.8252983769810431"),
        (["sum", "pi,1"], "0.7960484251433965"),  # sqrt(pi^2 + 1) / (pi + 1)
        (["affine", "pi", "--op", "add", "--alpha", "1"], "0.7585469929947761"),  # pi / (pi + 1)
    ])
    def test_closed_forms_leave_certified_coordinates_to_the_jacobian(self, runner, args, kappa):
        # a closed form on exact rationals only: auto prints what the derivative route prints
        for method in ("jacobian", "auto"):
            r = runner.invoke(main, ["cond", "--method", method] + args)
            assert r.exit_code == 0, r.output
            assert f"method = jacobian\nkappa = {kappa}\n" in r.stdout

    @pytest.mark.parametrize("args,kappa", [
        (["sum", "1e-70,2e-70"], "0.7453559924999299"),  # as at 1,2: sqrt 5 / 3
        (["squared_norm", "1e-40,1e-40"], "1.4142135623730951"),
    ])
    def test_closed_forms_at_tiny_coordinates(self, runner, args, kappa):
        r = runner.invoke(main, ["cond"] + args)
        assert r.exit_code == 0, r.output
        assert "method = closed_form\n" in r.stdout
        assert f"kappa = {kappa}\n" in r.stdout

    @pytest.mark.parametrize("args,kappa", [
        # an exact-zero output with a nonzero partial: c_12 = 1 - 1 and c_22 = 1 - 1
        (["matmul_2x2", "1,1,1,1,1,-1,-1,1"], "inf"),
        (["strassen_g", "1,0,0,-1,0,0,0"], "inf"),
        # exact-zero outputs constant to first order drop their rows
        (["matmul_2x2", "1,0,0,1,1,0,0,1"], "1.4142135623730951"),
        (["--method", "jacobian", "product", "pi,0"], "0.0"),
        # m_1 = (a11 + a22)(b11 + b22) = 0 * 0 has no first partial but a nonzero second one
        (["strassen_h", "1,0,0,-1,1,0,0,-1"], "inf"),
    ])
    def test_zero_outputs_on_the_derivative_route(self, runner, args, kappa):
        r = runner.invoke(main, ["cond"] + args)
        assert r.exit_code == 0, r.output
        assert "method = jacobian\n" in r.stdout
        assert f"kappa = {kappa}\n" in r.stdout

    def test_sampled_at_a_huge_sine_argument_does_not_converge(self, runner):
        # probes at 192 bits would all land on pi*2^3000*F + F with F a dyadic
        # step factor, an even multiple of pi plus F, and report |cot 1|
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "--method", "sampled", "sin", "pi*2^3000+1"])
        assert time.perf_counter() - t0 < 30
        assert r.exit_code == 0, r.output
        assert "kappa = inf\n" in r.stdout
        assert "converged = false\n" in r.stdout

    def test_tiny_coordinate_is_prompt(self, runner):
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sum", "1e-300000,1"])
        assert time.perf_counter() - t0 < 10
        assert r.exit_code == 0
        assert "kappa = 1.0\n" in r.stdout

    @pytest.mark.parametrize("point", ["2^3000000,1", "2^30000000,1"])
    def test_oversized_rational_is_a_prompt_usage_error(self, runner, point):
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sum", point])
        assert time.perf_counter() - t0 < 1
        assert r.exit_code == 2
        assert "bits" in r.output

    def test_largest_power_of_pi(self, runner):
        r = runner.invoke(main, ["cond", "sqrt", "pi^361"])
        assert r.exit_code == 0, r.output
        assert "kappa_tilde = 1.5" in r.output
        r = runner.invoke(main, ["cond", "sqrt", "pi^362"])
        assert r.exit_code == 2
        assert "bits" in r.output

    @pytest.mark.parametrize("point", ["pi^10000", "(pi^300)^300*(pi^300)^300*(pi^300)^300"])
    def test_oversized_certified_power_is_a_prompt_usage_error(self, runner, point):
        # an enclosure of pi^j raises a (b + 8j)-bit endpoint to the j-th power
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sqrt", point])
        assert time.perf_counter() - t0 < 1
        assert r.exit_code == 2
        assert "bits" in r.output

    @pytest.mark.parametrize("point", ["(pi^300)^300*(pi^300)^300", "(pi^200)^200*(pi^200)^200", "(pi*2^3000)^300",
                                       "pi*2^1000000", "pi*2^60000*2*2", "(pi*2^65536)^2*2^65536"])
    def test_oversized_certified_product_is_a_prompt_usage_error(self, runner, point):
        # a product asks each factor its magnitude's bits deeper, and a power's
        # endpoints have its base's magnitude bits on top of the width asked;
        # nested products and powers add up the bits they ask of pi, whose
        # series costs more than linearly in the width
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sqrt", point])
        assert time.perf_counter() - t0 < 2
        assert r.exit_code == 2
        assert "bits" in r.output

    @pytest.mark.parametrize("point", ["(pi*1e-40)^300", "pi*1e-5000",
                                       "((((13/78)/(pi))^5-pi)*((pi*9*pi)*((-(27/23))*(1e-327))))^300"])
    def test_coordinate_too_small_to_sign_is_a_prompt_usage_error(self, runner, point):
        # its price bounds it below 2^-16384, the widest that CertifiedReal.sign
        # refines to, so its sign would end in PrecisionError after seconds
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sqrt", "--", point])
        assert time.perf_counter() - t0 < 1
        assert r.exit_code == 2
        assert "too small to sign" in r.output

    def test_small_coordinate_within_the_sign_width_answers(self, runner):
        r = runner.invoke(main, ["cond", "sqrt", "(pi*2^-50)^300"])
        assert r.exit_code == 0, r.output
        assert "kappa_tilde = 1.5" in r.output

    def test_certified_products_within_the_budget_parse(self):
        pt = parse_point("pi^300*pi^300, 2/(pi-3)*5, (pi^100)^100/pi, -(1/pi)^300*2^3000")
        assert pt.dim == 4

    def test_reciprocals_of_small_values_parse_and_answer(self, runner):
        # pi - 355/113 is about -2.7e-7: its reciprocal's enclosures refine the
        # base's sign, in a sum, a product and a power alike
        pt = parse_point("-(pi-355/113)^-1, (pi-355/113)^-1+1, ((pi-355/113)^-1)*2, (pi-4)^-3")
        assert pt.pattern == (1, -1, -1, -1)
        r = runner.invoke(main, ["cond", "sqrt", "--", "-(pi-355/113)^-1"])
        assert r.exit_code == 0, r.output
        assert "kappa_tilde = 1.5" in r.output

    def test_deep_certified_expression_exits_3(self, runner):
        # each + of a certified real nests one more enclosure call
        t0 = time.perf_counter()
        r = runner.invoke(main, ["cond", "sqrt", "+".join(["pi"] * 900)])
        assert time.perf_counter() - t0 < 20
        assert r.exit_code == 3, r.output
        assert r.stdout == ""

    @pytest.mark.parametrize("args", [
        ["cond", "sqrt", "(-1)"],
        ["cond", "sin", "pi-pi"],
        ["cond", "sum", "1/(pi-pi),1"],
        ["cond", "--method", "jacobian", "sqrt", "0"],
    ])
    def test_computation_error_writes_no_stdout(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 3
        assert r.stdout == ""
        assert "computation error" in r.stderr

    def test_failure_in_a_late_line_writes_no_stdout(self, runner, monkeypatch):
        def undecidable(b):
            raise PrecisionError("undecidable")

        rep = ConditionReport(Fraction(1), CertifiedReal(undecidable), "closed_form", None)
        monkeypatch.setattr(cli, "kappa_closed_form", lambda f, pt: rep)
        r = runner.invoke(main, ["cond", "sum", "1,2"])
        assert r.exit_code == 3
        assert r.stdout == ""

    @pytest.mark.parametrize("name", ["tensor_product", "linear_map"])
    def test_functions_without_cli_sizing_are_not_offered(self, runner, name):
        r = runner.invoke(main, ["cond", name, "1,2"])
        assert r.exit_code == 2
        offered = [
            "affine", "copy", "hadamard", "inner", "inner_product", "matmul_2x2", "matmul_entry",
            "norm2", "power", "product", "sin", "sqrt", "squared_norm", "strassen_g", "strassen_h",
            "sum", "summation",
        ]
        assert f"unknown function {name!r}; one of {offered}" in r.output

    def test_dashed_alias_and_default_indices(self, runner):
        r = runner.invoke(main, ["cond", "matmul-entry", "1,2,3,4,5,6,7,8"])
        assert r.exit_code == 0
        assert r.output.startswith("function = matmul_entry[12]\n")


class TestNum:
    def test_float_range_keeps_the_float_repr(self):
        for v in (Fraction(1, 3), Fraction(-7, 2), Fraction(10) ** 300, Fraction(1, 10**320)):
            assert cli._num(v) == repr(float(v))
        assert cli._num(math.inf) == "inf"
        x = parse_point("pi").coords[0]
        assert cli._num(x) == repr(float(x))

    @pytest.mark.parametrize("v,text", [
        (Fraction(10) ** 400, "1.0000000000000000e+400"),
        (Fraction(10) ** 400 - 1, "1.0000000000000000e+400"),
        (-(Fraction(2) ** 3001), "-2.4604638443222344e+903"),  # mpmath at 20,000 bits
        # exact ties below the 17th digit go to even
        (100000000000000005 * Fraction(10) ** 400, "1.0000000000000000e+417"),
        (100000000000000015 * Fraction(10) ** 400, "1.0000000000000002e+417"),
        (Fraction(10**2000 + 1, 3), "3.3333333333333333e+1999"),
    ])
    def test_past_the_float_range_prints_17_digits(self, v, text):
        assert cli._num(v) == text


class TestAmen:
    def test_sum_passes(self, runner):
        r = runner.invoke(main, ["amen", "sum", "--x", "1,1", "--a", "8", "--n", "60"])
        assert r.exit_code == 0
        assert "verdict = PASS" in r.output

    def test_sin_fails_with_witness(self, runner):
        r = runner.invoke(
            main, ["amen", "sin", "--x", "pi/2 + 1000000*pi", "--a", "64", "--n", "50"]
        )
        assert r.exit_code == 0
        assert "verdict = FAIL" in r.output
        assert "witness" in r.output

    def test_huge_rational_coordinate_is_prompt(self, runner):
        # a step of a rational coordinate is exact, so it is sampled at 192 bits;
        # 80 bits below its magnitude, the 400 exp factors would take about 10 s
        t0 = time.perf_counter()
        r = runner.invoke(main, ["amen", "sum", "--x", "2^10000,1", "--a", "64"])
        assert time.perf_counter() - t0 < 5
        assert r.exit_code == 0, r.output
        assert "verdict = PASS" in r.output

    @pytest.mark.parametrize("args", [
        ["--a", "8", "--n", "0"],
        ["--a", "8", "--n", "-5"],
        ["--a", "0"],
        ["--a", "-1"],
        ["--a", "abc"],
        ["--a", "1/0"],
    ])
    def test_bad_options_are_usage_errors(self, runner, args):
        r = runner.invoke(main, ["amen", "sum", "--x", "1,2"] + args)
        assert r.exit_code == 2
        assert "computation error" not in r.output and "verdict" not in r.output


class TestExcess:
    def test_strassen_at_milli(self, runner):
        r = runner.invoke(main, ["excess", "strassen-g", "strassen-h", "--eps", "1e-3"])
        assert r.exit_code == 0
        val = float(r.output.split("excess = ")[1].splitlines()[0])
        assert val >= 250

    def test_requires_exactly_one_input_form(self, runner):
        r = runner.invoke(main, ["excess", "sum", "hadamard"])
        assert r.exit_code == 2
        r2 = runner.invoke(
            main, ["excess", "sum", "hadamard", "--x", "1,1,1,1", "--eps", "1e-2"]
        )
        assert r2.exit_code == 2

    @pytest.mark.parametrize("eps", ["abc", "inf", "nan", "1/0", "0", "1"])
    def test_bad_eps_is_usage_error(self, runner, eps):
        r = runner.invoke(main, ["excess", "strassen-g", "strassen-h", "--eps", eps])
        assert r.exit_code == 2
        assert "computation error" not in r.output

    def test_g_that_does_not_fit_h_is_usage_error(self, runner):
        r = runner.invoke(main, ["excess", "matmul_2x2", "sum", "--x", "1,2"])
        assert r.exit_code == 2
        assert "matmul_2x2 expects 8 coordinates, got 1" in r.output

    @pytest.mark.parametrize("name,option,x", [("power", "exponent", "2"), ("affine", "op", "3")])
    def test_missing_constructor_option_is_usage_error(self, runner, name, option, x):
        r = runner.invoke(main, ["excess", name, name, "--x", x])
        assert r.exit_code == 2
        assert f"function {name!r} needs option {option!r}" in r.output

    def test_zero_output_of_g_makes_the_excess_undefined(self, runner):
        r = runner.invoke(main, ["excess", "strassen_g", "strassen_h", "--x", "1,1,1,1,1,-1,-1,1"])
        assert r.exit_code == 0, r.output
        assert "excess = undefined (composite kappa is infinite)\n" in r.stdout

    def test_certified_point_takes_the_jacobian_route(self, runner):
        r = runner.invoke(main, ["excess", "sum", "hadamard", "--x", "pi,1,1,1"])
        assert r.exit_code == 0, r.output
        assert "kt_f_at_x = 2.1257824791435347\n" in r.stdout
        assert "excess = 2.039740429325108\n" in r.stdout

    def test_inner_from_parts(self, runner):
        r = runner.invoke(main, ["excess", "sum", "hadamard", "--x", "1,1,1,1"])
        assert r.exit_code == 0
        val = float(r.output.split("excess = ")[1].splitlines()[0])
        assert val == pytest.approx((1 + math.sqrt(2) / 2) * (1 + math.sqrt(2)) / 2, rel=1e-12)


class TestTables:
    def test_strassen_rows_and_determinism(self, runner):
        args = ["strassen", "--eps", "1e-6", "1e-3", "--n-eps", "4", "--samples", "8", "--seed", "7"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0 and a.output == b.output
        data_lines = [l for l in a.output.splitlines() if l and not l.startswith("#")]
        assert data_lines[0] == "epsilon,rel_p05,rel_med,rel_p95,abs_p05,abs_med,abs_p95"
        assert len(data_lines) == 1 + 4

    def test_csv_json_parity(self, runner):
        args = ["--eps", "1e-5", "1e-3", "--n-eps", "3", "--samples", "6", "--seed", "1"]
        csv_out = runner.invoke(main, ["strassen"] + args + ["--format", "csv"]).output
        json_out = runner.invoke(main, ["strassen"] + args + ["--format", "json"]).output
        rows = [l.split(",") for l in csv_out.splitlines() if l and not l.startswith("#")]
        header, data = rows[0], rows[1:]
        payload = json.loads(json_out)
        assert len(payload["rows"]) == len(data)
        for csv_row, js_row in zip(data, payload["rows"]):
            for name, cell in zip(header, csv_row):
                assert float(cell) == float(js_row[name])

    def test_sine_row_count_and_csv_shape(self, runner):
        r = runner.invoke(main, ["sine", "--k-max", "7", "--guard", "256"])
        assert r.exit_code == 0
        data = [l for l in r.output.splitlines() if l and not l.startswith("#")]
        assert data[0] == "k,u,rel_lop"
        assert len(data) == 1 + 7
        ks = [int(l.split(",")[0]) for l in data[1:]]
        assert ks == list(range(1, 8))

    def test_header_carries_config(self, runner):
        r = runner.invoke(main, ["sine", "--k-max", "3", "--guard", "256"])
        assert "# config: k_max=3, t_work=53, guard=256" in r.output

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        r = runner.invoke(main, ["sine", "--k-max", "3", "--guard", "256", "-o", str(out)])
        assert r.exit_code == 0
        assert out.read_text().startswith("# stabilis")

    def test_invalid_grid_rejected(self, runner):
        r = runner.invoke(main, ["strassen", "--eps", "0.1", "0.01"])
        assert r.exit_code == 2
        r2 = runner.invoke(main, ["strassen", "--n-eps", "0"])
        assert r2.exit_code == 2

    def test_monotone_sine_trend(self, runner):
        from stabilis.harness import spearman_rho

        r = runner.invoke(main, ["sine", "--k-max", "25", "--guard", "256"])
        data = [l.split(",") for l in r.output.splitlines() if l and not l.startswith("#")][1:]
        ks = [int(row[0]) for row in data]
        lops = [float(row[2]) for row in data]
        assert spearman_rho(ks, lops) > 0.95
