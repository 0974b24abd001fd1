"""Command-line front end: experiment drivers and condition queries.

Tables are emitted as CSV with ``#``-prefixed header comments or as a
JSON object ``{"config": ..., "rows": ...}``; both carry the full run
configuration, so every table is reproducible from its own header.
Exit codes: 0 success, 2 invalid configuration, 3 computation error.
"""

from __future__ import annotations

import decimal
import inspect
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import __version__
from .amenability import amenability_probe, excess_factor
from .catalog import FUNCTIONS, strassen_input
from .condition import kappa_closed_form, kappa_jacobian, kappa_sampled
from .harness import log_spaced, sine_experiment, strassen_experiment
from .reals import CertifiedReal, ExactReal, pi_real
from .relmetric import RelPoint


# ---------------------------------------------------------------------------
# Point expressions: rationals, pi, integer powers, + - * / and parentheses
# ---------------------------------------------------------------------------


class ExprError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, tok: str) -> bool:
        self._skip()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def parse(self) -> ExactReal:
        v = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise ExprError(f"trailing input at {self.text[self.pos:]!r}")
        return v

    def expr(self) -> ExactReal:
        v = self.term()
        while True:
            if self._take("+"):
                v = v + self.term()
            elif self._take("-"):
                v = v - self.term()
            else:
                return v

    def term(self) -> ExactReal:
        v = self.factor()
        while True:
            if self._take("**"):
                raise ExprError("power binds to a factor; write a^k or a**k after an atom")
            if self._take("*"):
                v = v * self.factor()
            elif self._take("/"):
                d = self.factor()
                if isinstance(v, Fraction) and isinstance(d, Fraction):
                    if d == 0:
                        raise ExprError("division by zero")
                    v = v / d
                elif isinstance(d, Fraction):
                    v = v * (1 / d)
                else:
                    v = v / d if isinstance(v, CertifiedReal) else d.__rtruediv__(v)
            else:
                return v

    def factor(self) -> ExactReal:
        if self._take("-"):
            return -self.factor()
        if self._take("+"):
            return self.factor()
        v = self.atom()
        if self._take("^") or self._take("**"):
            e = self.integer()
            v = v**e
        return v

    def integer(self) -> int:
        self._skip()
        start = self.pos
        if self._peek() in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprError("expected an integer exponent")
        return int(self.text[start : self.pos])

    def atom(self) -> ExactReal:
        self._skip()
        if self._take("("):
            v = self.expr()
            if not self._take(")"):
                raise ExprError("missing closing parenthesis")
            return v
        if self.text.startswith("pi", self.pos):
            self.pos += 2
            return pi_real()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] in ".eE"):
            c = self.text[self.pos]
            if c in "eE":
                nxt = self.text[self.pos + 1 : self.pos + 2]
                if not (nxt.isdigit() or nxt in "+-"):
                    break
                self.pos += 2
                continue
            self.pos += 1
        lit = self.text[start : self.pos]
        if not lit:
            raise ExprError(f"unexpected input at {self.text[self.pos:]!r}")
        try:
            return Fraction(lit)
        except (ValueError, ZeroDivisionError) as e:
            raise ExprError(f"bad number {lit!r}") from e


def parse_point(text: str) -> RelPoint:
    """Comma-separated coordinate expressions -> a metric point."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ExprError("empty point")
    return RelPoint([_Parser(p).parse() for p in parts])


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
            except click.ClickException:
                raise
            except ExprError as e:
                raise click.UsageError(str(e))
            except (ArithmeticError, ValueError, TypeError) as e:
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
    """Build a catalog function, inferring dims from the given dimension."""
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
    return cls(**args)


@main.command()
@click.argument("function")
@click.argument("point")
@click.option("--sample", is_flag=True, help="Use the black-box sampling estimator.")
@click.option("--method", type=click.Choice(["auto", "closed", "jacobian", "sampled"]), default="auto")
@click.option("--exponent", type=int, default=2, help="Exponent for the power map.")
@click.option("--op", type=click.Choice(["add", "sub", "mul", "div"]), default="add")
@click.option("--alpha", type=str, default="1", help="Constant for affine maps.")
@click.option("--seed", type=int, default=0, envvar="STABILIS_SEED")
@_computation("condition_number")
def cond(function, point, sample, method, exponent, op, alpha, seed):
    """Condition number of FUNCTION at POINT (e.g. `cond product 1,2,3`)."""
    pt = parse_point(point)
    f = _resolve_function(function, pt.dim, exponent=exponent, op=op, alpha=alpha)
    if pt.dim != f.in_dim:
        raise click.UsageError(f"{f.id} expects {f.in_dim} coordinates, got {pt.dim}")
    if sample or method == "sampled":
        rep = kappa_sampled(f, pt, seed=seed)
    elif method == "jacobian":
        rep = kappa_jacobian(f, pt)
    else:
        rep = kappa_closed_form(f, pt)
    lines = [
        f"function = {f.id}",
        f"point = {point}",
        f"method = {rep.method}",
        f"kappa = {_num(rep.kappa)}",
        f"kappa_tilde = {_num(rep.kappa_tilde)}",
    ]
    if not rep.converged:
        lines.append("converged = false")
    if rep.domain_failures:
        lines.append(f"domain_failures = {rep.domain_failures}")
    click.echo("\n".join(lines))


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
@click.option("--a", "constant", type=str, required=True, help="Amenability constant.")
@click.option("--n", type=int, default=200, show_default=True)
@click.option("--seed", type=int, default=0, envvar="STABILIS_SEED")
@click.option("--exponent", type=int, default=2)
@click.option("--op", type=click.Choice(["add", "sub", "mul", "div"]), default="add")
@click.option("--alpha", type=str, default="1")
@_computation("amenability_probe")
def amen(function, point, constant, n, seed, exponent, op, alpha):
    """Probe the amenability clauses of FUNCTION at a point."""
    pt = parse_point(point)
    f = _resolve_function(function, pt.dim, exponent=exponent, op=op, alpha=alpha)
    if pt.dim != f.in_dim:
        raise click.UsageError(f"{f.id} expects {f.in_dim} coordinates, got {pt.dim}")
    v = amenability_probe(f, None, pt, Fraction(constant), n, seed)
    lines = [
        f"function = {f.id}",
        f"a = {constant}",
        f"kappa_tilde_at_x = {_num(v.kappa_tilde_at_x)}",
        f"samples_used = {v.samples_used}",
        f"A1_ok = {v.A1_ok}",
        f"A2_ok = {v.A2_ok}",
    ]
    if v.passed:
        lines.append("verdict = PASS")
    else:
        lines.append("verdict = FAIL")
        lines.append("witness = " + ", ".join(_num(c) for c in v.witness.coords))
        if v.witness_kappa_tilde is not None:
            lines.append(f"witness_kappa_tilde = {_num(v.witness_kappa_tilde)}")
    click.echo("\n".join(lines))
    sys.exit(0)


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
        e = Fraction(eps) if "/" in eps else Fraction(float(eps))
        if not (0 < e < 1):
            raise click.UsageError("eps must lie in (0, 1)")
        pt = RelPoint(strassen_input(e))
    else:
        pt = parse_point(point)
    h = _resolve_function(h_name, pt.dim)
    if h.in_dim != pt.dim:
        raise click.UsageError(f"{h.id} expects {h.in_dim} coordinates, got {pt.dim}")
    g = _resolve_function(g_name, h.out_dim)
    rep = excess_factor(g, h, pt)
    lines = [
        f"g = {g.id}",
        f"h = {h.id}",
        f"kt_g_at_hx = {_num(rep.kt_g_at_hx)}",
        f"kt_h_at_x = {_num(rep.kt_h_at_x)}",
        f"kt_f_at_x = {_num(rep.kt_f_at_x)}",
    ]
    if rep.excess is None:
        lines.append("excess = undefined (composite kappa is infinite)")
    else:
        lines.append(f"excess = {_num(rep.excess)}")
    click.echo("\n".join(lines))


if __name__ == "__main__":  # pragma: no cover
    main()
