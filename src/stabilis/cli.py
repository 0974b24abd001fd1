"""Command-line front end: experiment drivers and condition queries.

Tables are emitted as CSV with ``#``-prefixed header comments or as a
JSON object ``{"config": ..., "rows": ...}``; both carry the full run
configuration, so every table is reproducible from its own header.
Exit codes: 0 success, 2 invalid configuration, 3 computation error.
"""

from __future__ import annotations

import ast
import decimal
import inspect
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import __version__
from .amenability import amenability_probe, excess_factor
from .catalog import FUNCTIONS, strassen_input
from .condition import kappa_closed_form, kappa_jacobian, kappa_sampled
from .harness import log_spaced, sine_experiment, strassen_experiment
from .reals import REFINE_DOUBLINGS, CertifiedReal, ExactReal, pi_real, price
from .relmetric import RelPoint


# ---------------------------------------------------------------------------
# Point expressions: rationals, pi, integer powers, + - * / and parentheses
# ---------------------------------------------------------------------------


class ExprError(ValueError):
    pass


MAX_BITS = 1 << 20  # of the numerator and denominator of each rational a point expression builds
POINT_BITS = 4 * MAX_BITS  # of all the rationals one point builds, each counted once
MAX_DEPTH = 1 << 17  # the bits beyond a width b that a certified value's enclosure at b may ask of pi

_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_EXPONENT = re.compile(r"[+-]?[0-9]+")


def _bits(v: Fraction) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


class _Budget:
    """The bits that the values of one point may still take in all.

    A rational is charged its own bits: an operation costs gcds of its
    operands' size, and each rational is the operand of one operation at
    most.  A certified value is charged the charges of its ``reals.price``,
    so the budget bounds the work of a whole point.  Machin's series for pi
    costs more than linearly in the width, so no value may ask pi more than
    MAX_DEPTH bits deeper than it is asked itself.
    """

    def __init__(self):
        self.left = POINT_BITS
        self.known: dict = {}  # the prices of the point's certified values

    def check(self, bits: int) -> None:
        if bits > MAX_BITS:
            raise ExprError(f"a value in the point needs more than {MAX_BITS} bits")
        if bits > self.left:
            raise ExprError(f"the values in the point need more than {POINT_BITS} bits in all")

    def spend(self, bits: int) -> None:
        self.check(bits)
        self.left -= bits

    def charge(self, v: ExactReal) -> ExactReal:
        if isinstance(v, Fraction):
            self.spend(_bits(v))
            return v
        p = price(v, self.known)
        for bits in p.charges:
            self.spend(bits)
        if p.depth > MAX_DEPTH:
            raise ExprError(f"a value in the point asks pi more than {MAX_DEPTH} bits deeper")
        return v


_UNARY = {ast.UAdd: lambda v: v, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _value(node: ast.expr, src: str, budget: _Budget) -> ExactReal:
    """Evaluate a node of ``ast.parse(src)``: number literals, pi, unary + and -,
    + - * /, and powers by an integer written in decimal digits."""
    text = ast.get_source_segment(src, node)
    if isinstance(node, ast.Constant) and (m := _NUMBER.fullmatch(text)):
        # the literal's own digits, so 1e-300000 stays exact; 10**e has over 3|e| bits
        budget.check(3 * abs(int(m[2][1:])) if m[2] else 0)
        return budget.charge(Fraction(text))
    if isinstance(node, ast.Name) and node.id == "pi":
        return pi_real()
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_value(node.operand, src, budget))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        e = ast.get_source_segment(src, node.right)
        if _EXPONENT.fullmatch(e):
            v, e = _value(node.left, src, budget), int(e)
            if isinstance(v, Fraction):
                # a rational v with b-bit parts has a power of over |e| * (b - 1) bits
                budget.check(abs(e) * (_bits(v) - 1))
            return budget.charge(v ** e)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        a, c = _value(node.left, src, budget), _value(node.right, src, budget)
        op = _BINARY[type(node.op)]
        if op is operator.truediv and isinstance(a, CertifiedReal) and isinstance(c, Fraction):
            op, c = operator.mul, 1 / c  # a certified value is scaled by the exact reciprocal
        return budget.charge(op(a, c))
    raise ExprError(f"not a point expression: {text!r}")


def _coordinate(text: str, budget: _Budget) -> ExactReal:
    """One coordinate, read by Python's expression grammar with ``^`` as ``**``.
    A certified coordinate that its price bounds below 2**-(64 <<
    REFINE_DOUBLINGS) is refused: CertifiedReal.sign refines no finer."""
    src = text.strip().replace("^", "**")
    try:
        v = _value(ast.parse(src, mode="eval").body, src, budget)
        mag = None if isinstance(v, Fraction) else price(v, budget.known).mag
    except SyntaxError as e:
        raise ExprError(f"cannot parse {text.strip()!r}: {e.msg}") from e
    except ZeroDivisionError as e:  # by a rational, or by a certified exact zero that is measured
        raise ExprError("division by zero") from e
    except (RecursionError, MemoryError) as e:  # the parser reports a stack overflow as MemoryError
        raise ExprError("expression nested too deeply") from e
    if mag is not None and mag <= -(64 << REFINE_DOUBLINGS):
        raise ExprError(f"a coordinate below 2^-{64 << REFINE_DOUBLINGS} is too small to sign")
    return v


def parse_point(text: str) -> RelPoint:
    """Comma-separated coordinate expressions -> a metric point."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ExprError("empty point")
    budget = _Budget()
    return RelPoint([_coordinate(p, budget) for p in parts])


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    params: dict

    def header_lines(self) -> list[str]:
        items = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return [
            f"# stabilis {__version__} :: {self.command}",
            f"# config: {items}",
        ]


def _emit_table(cfg: RunConfig, columns: list[str], rows: list[list], fmt: str, output):
    if fmt == "csv":
        lines = cfg.header_lines()
        lines.append(",".join(columns))
        for r in rows:
            lines.append(",".join(_fmt_cell(v) for v in r))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": {"command": cfg.command, "version": __version__, **cfg.params},
            "rows": [dict(zip(columns, map(_json_cell, r))) for r in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise click.ClickException(f"cannot write {output}: {e}")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return repr(float(v))
    return str(v)


def _json_cell(v):
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _computation(op_name: str):
    """Wrap a command body: computation failures exit with code 3."""

    def deco(fn):
        def wrapped(*a, **kw):
            try:
                return fn(*a, **kw)
            except ExprError as e:
                raise click.UsageError(str(e))
            except (ArithmeticError, ValueError, TypeError, RecursionError, MemoryError) as e:
                # a deep certified expression overflows the stack while it is evaluated
                click.echo(f"computation error in {op_name}: {e}", err=True)
                sys.exit(3)

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="stabilis")
def main():
    """Floating-point stability analysis in the relative-error metric."""


@main.command()
@click.option("--eps", nargs=2, type=float, default=(1e-8, 1e-2), show_default=True,
              help="Grid range [min max].")
@click.option("--n-eps", type=int, default=100, show_default=True)
@click.option("--samples", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, envvar="STABILIS_SEED", show_default=True)
@click.option("-t", "--precision", "t", type=int, default=53, show_default=True)
@click.option("--paper-scale", is_flag=True,
              help="Run the full 1000x1000 grid over [1e-12, 1e-1].")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False, writable=True), default=None)
@_computation("strassen_experiment")
def strassen(eps, n_eps, samples, seed, t, paper_scale, fmt, output):
    """Loss-of-precision table for the fast 2x2 multiplication scheme."""
    if paper_scale:
        eps, n_eps, samples = (1e-12, 1e-1), 1000, 1000
    if not (0 < eps[0] <= eps[1] < 1):
        raise click.UsageError("eps range must satisfy 0 < min <= max < 1")
    if n_eps < 1 or samples < 1 or t <= 2:
        raise click.UsageError("n-eps and samples must be positive; t > 2")
    rows = strassen_experiment(log_spaced(eps[0], eps[1], n_eps), samples, seed, t)
    cfg = RunConfig("strassen", dict(eps_min=eps[0], eps_max=eps[1], n_eps=n_eps,
                                     samples=samples, seed=seed, t=t))
    cols = ["epsilon", "rel_p05", "rel_med", "rel_p95", "abs_p05", "abs_med", "abs_p95"]
    _emit_table(cfg, cols, [[r.epsilon, r.rel_p05, r.rel_med, r.rel_p95,
                             r.abs_p05, r.abs_med, r.abs_p95] for r in rows], fmt, output)


@main.command()
@click.option("--k-max", type=int, default=100, show_default=True)
@click.option("--t-work", type=int, default=53, show_default=True)
@click.option("--guard", type=int, default=512, show_default=True, help="Reference precision in bits.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False, writable=True), default=None)
@_computation("sine_experiment")
def sine(k_max, t_work, guard, fmt, output):
    """Loss-of-precision table for sine at pi*2^k + 1."""
    if k_max < 1 or t_work <= 2 or guard < 64:
        raise click.UsageError("need k-max >= 1, t-work > 2, guard >= 64")
    recs = sine_experiment(k_max, t_work, guard)
    cfg = RunConfig("sine", dict(k_max=k_max, t_work=t_work, guard=guard))
    rows = [[r.param, float(r.u), float(r.rel_lop)] for r in recs]
    _emit_table(cfg, ["k", "u", "rel_lop"], rows, fmt, output)


def _resolve_function(name: str, dim: int, **kw):
    """Build a catalog function taking ``dim`` coordinates, sizing it from ``dim``."""
    fid = name.replace("-", "_")
    cls, per = FUNCTIONS.get(fid, (None, None))
    if per is None:
        offered = sorted(n for n, (_, sizing) in FUNCTIONS.items() if sizing is not None)
        raise click.UsageError(f"unknown function {name!r}; one of {offered}")
    if per:
        kw["k"] = max(dim // per, 1)
    args = {}
    for param in inspect.signature(cls).parameters.values():
        if param.name in kw:
            args[param.name] = kw[param.name]
        elif param.default is param.empty:
            raise click.UsageError(f"function {name!r} needs option {param.name!r}")
    try:
        f = cls(**args)
    except (ValueError, ArithmeticError) as e:
        raise click.UsageError(f"function {name!r}: {e}")
    if f.in_dim != dim:
        raise click.UsageError(f"{f.id} expects {f.in_dim} coordinates, got {dim}")
    return f


def _function_at(name: str, point: str, **kw):
    """FUNCTION and POINT of a query: the catalog function sized to the parsed point."""
    pt = parse_point(point)
    return _resolve_function(name, pt.dim, **kw), pt


def _positive(name: str, text: str, read=Fraction, below=math.inf) -> Fraction:
    """The value of option --name read by ``read``; a usage error unless 0 < value < below."""
    try:
        v = read(text)
    except (ValueError, ArithmeticError):
        v = None
    if v is None or not 0 < v < below:
        raise click.UsageError(f"--{name} must be a number in (0, {below})")
    return v


def _function_options(cmd):
    """The options shared by the point queries: the catalog constants and the seed."""
    for option in reversed([
        click.option("--exponent", type=int, default=2, help="Exponent for the power map."),
        click.option("--op", type=click.Choice(["add", "sub", "mul", "div"]), default="add"),
        click.option("--alpha", default="1", help="Constant for affine maps."),
        click.option("--seed", type=int, default=0, envvar="STABILIS_SEED"),
    ]):
        cmd = option(cmd)
    return cmd


@main.command()
@click.argument("function")
@click.argument("point")
@click.option("--method", type=click.Choice(["auto", "jacobian", "sampled"]), default="auto")
@_function_options
@_computation("condition_number")
def cond(function, point, method, seed, **kw):
    """Condition number of FUNCTION at POINT (e.g. `cond product 1,2,3`)."""
    f, pt = _function_at(function, point, **kw)
    if method == "sampled":
        rep = kappa_sampled(f, pt, seed=seed)
    elif method == "jacobian":
        rep = kappa_jacobian(f, pt)
    else:
        rep = kappa_closed_form(f, pt)
    _report(function=f.id, point=point, method=rep.method, kappa=_num(rep.kappa),
            kappa_tilde=_num(rep.kappa_tilde), converged=None if rep.converged else "false",
            domain_failures=rep.domain_failures or None)


def _report(**fields):
    """A query's answer: one ``name = value`` line per field that is not None."""
    click.echo("\n".join(f"{k} = {v}" for k, v in fields.items() if v is not None))


def _num(v) -> str:
    """The repr of the nearest float, or 17 significant digits past the float range."""
    if v == math.inf:
        return "inf"
    if isinstance(v, CertifiedReal):
        v = v.enclosure(96).midpoint()  # what float() of the enclosure rounds
    try:
        return repr(float(v))
    except OverflowError:
        v = Fraction(v)  # the exact quotient, rounded half to even
        return f"{decimal.Context(prec=17, Emax=decimal.MAX_EMAX).divide(v.numerator, v.denominator):.16e}"


@main.command()
@click.argument("function")
@click.option("--x", "point", required=True, help="Probe point.")
@click.option("--a", "constant", required=True, help="Amenability constant.")
@click.option("--n", type=click.IntRange(min=1), default=200, show_default=True)
@_function_options
@_computation("amenability_probe")
def amen(function, point, constant, n, seed, **kw):
    """Probe the amenability clauses of FUNCTION at a point."""
    a = _positive("a", constant)
    f, pt = _function_at(function, point, **kw)
    v = amenability_probe(f, None, pt, a, n, seed)
    _report(function=f.id, a=constant, kappa_tilde_at_x=_num(v.kappa_tilde_at_x),
            samples_used=v.samples_used, A1_ok=v.A1_ok, A2_ok=v.A2_ok,
            verdict="PASS" if v.passed else "FAIL",
            witness=None if v.passed else ", ".join(_num(c) for c in v.witness.coords),
            witness_kappa_tilde=None if v.witness_kappa_tilde is None else _num(v.witness_kappa_tilde))


@main.command()
@click.argument("g_name", metavar="G")
@click.argument("h_name", metavar="H")
@click.option("--x", "point", default=None, help="Composition input point.")
@click.option("--eps", type=str, default=None, help="Shortcut: the 2x2 family input at eps.")
@_computation("excess_factor")
def excess(g_name, h_name, point, eps):
    """Numerical excess factor of the decomposition G o H at a point."""
    if (point is None) == (eps is None):
        raise click.UsageError("give exactly one of --x or --eps")
    if eps is not None:
        read = lambda s: Fraction(s) if "/" in s else Fraction(float(s))  # noqa: E731
        pt = RelPoint(strassen_input(_positive("eps", eps, read, below=1)))
    else:
        pt = parse_point(point)
    h = _resolve_function(h_name, pt.dim)
    g = _resolve_function(g_name, h.out_dim)
    rep = excess_factor(g, h, pt)
    _report(g=g.id, h=h.id, kt_g_at_hx=_num(rep.kt_g_at_hx), kt_h_at_x=_num(rep.kt_h_at_x),
            kt_f_at_x=_num(rep.kt_f_at_x),
            excess="undefined (composite kappa is infinite)" if rep.excess is None else _num(rep.excess))


if __name__ == "__main__":  # pragma: no cover
    main()
