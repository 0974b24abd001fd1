"""Checkers: each operation's output against computations made apart
from the program, or against properties the method must have.

``Checker(workload, inputs).check_round(ops)`` gives, per operation,
None when the output is right and a one-line reason when it is not.  References depend only on
the inputs, so they are built once per run and every round's outputs are
held to them.  Nothing here compares against a stored copy of an output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import (
    from_int,
    from_rational,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    round_nearest,
    to_float,
)

import refs

REF_BITS = 256  # working precision of the mpmath references
ROW_RTOL = 1e-12  # rebuilt Strassen percentiles against the program's rows
SLOPE_RANGE = (-1.15, -0.85)  # d log(rel_med) / d log(eps), from the paper
ABS_MED_MAX = 1000
SINE_ULP_TOL = 1e-6  # emulated lop against the program's, in units of u
KAPPA_RTOL = 1e-10
SAMPLED_RTOL = Fraction(5, 100)


def _frac(raw) -> Fraction:
    """Exact value of a raw mpf tuple."""
    sign, man, exp, _ = raw
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _mpq(q: Fraction) -> mpmath.mpf:
    """A rational, correctly rounded at mpmath's working precision."""
    return mpmath.mpf(from_rational(q.numerator, q.denominator, mpmath.mp.prec, round_nearest))


def _to_float(v: mpmath.mpf) -> float:
    return to_float(v._mpf_, rnd=round_nearest)


def _round(raw, bits: int):
    """Round to nearest, ties to even, at the given mantissa width."""
    return mpf_pos(raw, bits, round_nearest)


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# strassen
# ---------------------------------------------------------------------------


def strassen_sample_lops(seed: int, ei: int, si: int, eps: Fraction) -> tuple[float, float]:
    """One sample of the Strassen table rebuilt from its definition.

    Philox draws with key=seed and counter=[0, si, 2, ei]; perturbation
    factors exp(v_i / (2 ||v||)) in mpmath; inputs rounded to binary64;
    the textbook formulas in Python floats against the exact product in
    Fractions; the lops through mpmath's log.
    """
    gen = np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1), counter=[0, si, 2, ei]))
    draws = gen.standard_normal(8)
    base = [1.0, float(eps), float(eps), 1.0]
    x = []
    for half in (draws[:4], draws[4:]):
        v = [mpmath.mpf(float(c)) for c in half]
        two_norm = 2 * mpmath.sqrt(mpmath.fsum(c * c for c in v))
        for b, c in zip(base, v):
            xi = _to_float(mpmath.mpf(b) * mpmath.exp(c / two_norm))
            if not abs(xi) >= 2.0**-1022:
                raise ValueError("rounded input left the binary64 normal range")
            x.append(xi)
    m = [refs.lin(x, a) * refs.lin(x, b) for a, b in refs.STRASSEN_M]
    got = [refs.lin(m, terms) for terms in refs.STRASSEN_C]
    q = [Fraction(v) for v in x]
    exact = [q[0] * q[4] + q[1] * q[6], q[0] * q[5] + q[1] * q[7],
             q[2] * q[4] + q[3] * q[6], q[2] * q[5] + q[3] * q[7]]
    scale = mpmath.mpf(2) ** 53  # 1/u
    if any((g > 0) != (e > 0) or g == 0 for g, e in zip(got, exact)):
        rel = math.inf
    else:
        logs = [mpmath.log(mpmath.mpf(g) / _mpq(e)) for g, e in zip(got, exact)]
        rel = _to_float(mpmath.sqrt(mpmath.fsum(lg * lg for lg in logs)) * scale)
    sq = sum((Fraction(g) - e) ** 2 for g, e in zip(got, exact))
    ab = _to_float(mpmath.sqrt(_mpq(sq)) * scale)
    return rel, ab


def strassen_row(key: int, eps: Fraction, samples: int) -> tuple[float, ...]:
    """One table row (epsilon, rel p05/med/p95, abs p05/med/p95), rebuilt in full."""
    with mpmath.workprec(REF_BITS):
        lops = [strassen_sample_lops(key, 0, si, eps) for si in range(samples)]
    rel = sorted(r for r, _ in lops)
    ab = sorted(a for _, a in lops)
    return (float(eps),) + tuple(refs.nearest_rank(v, p) for v in (rel, ab) for p in (5, 50, 95))


def check_strassen_row(rows, reference: tuple[float, ...]) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} rows for one epsilon"
    fields = ("epsilon", "rel_p05", "rel_med", "rel_p95", "abs_p05", "abs_med", "abs_p95")
    for name, want in zip(fields, reference):
        got = float(getattr(rows[0], name))
        if not _close(got, want, ROW_RTOL):
            return f"eps={reference[0]:.3g} {name}={got!r}, rebuilt {want!r}"
    return None


def check_strassen_table(rows) -> str | None:
    """Properties the paper's table must have, over all its rows."""
    xs = [math.log10(r.epsilon) for r in rows]
    ys = [math.log10(r.rel_med) for r in rows]
    slope = float(np.polyfit(xs, ys, 1)[0])
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        return f"log-log slope of rel_med is {slope:.3f}"
    worst = max(r.abs_med for r in rows)
    if worst > ABS_MED_MAX:
        return f"abs_med reaches {worst:.4g}"
    return None


# ---------------------------------------------------------------------------
# sine_ladder
# ---------------------------------------------------------------------------


def _emulated_sine(xhat_raw, t: int):
    """The working-precision sine, step for step in t-bit mpmath arithmetic.

    Reduction modulo pi with the reduced argument correctly rounded to t
    bits, then the Taylor loop with every product, quotient and sum
    rounded to nearest-even at t bits.  Returns the result and a bound on
    |log(result / sin(xhat))| in units of u = 2^-t, from the standard
    first-order running-error analysis of the loop.
    """
    mag = max(xhat_raw[2] + xhat_raw[3], 1)  # exponent + bit count
    with mpmath.workprec(mag + t + 192):
        X = mpmath.mpf(xhat_raw)
        n = int(mpmath.nint(X / mpmath.pi))
        r = X - n * mpmath.pi
        r_hat = _round(r._mpf_, t)
    total = term = r_hat
    rsq = mpf_mul(r_hat, r_hat, t, round_nearest)
    partial_sums = []
    terms = []
    j = 1
    while True:
        den = from_int((2 * j) * (2 * j + 1), t, round_nearest)
        term = mpf_neg(mpf_div(mpf_mul(term, rsq, t, round_nearest), den, t, round_nearest))
        new_total = mpf_add(total, term, t, round_nearest)
        terms.append(term)
        if new_total == total or j > t:
            break
        total = new_total
        partial_sums.append(total)
        j += 1
    s_hat = mpf_neg(total) if n % 2 else total
    with mpmath.workprec(REF_BITS):
        rr = mpmath.mpf(r_hat)
        err = abs(rr * mpmath.cos(rr))  # rounding the reduced argument
        err += mpmath.fsum(3 * (i + 1) * abs(mpmath.mpf(tm)) for i, tm in enumerate(terms[:-1]))
        err += mpmath.fsum(abs(mpmath.mpf(s)) for s in partial_sums)
        # first-order terms, a 1% margin for the second order, and the
        # series tail, which the first omitted term bounds
        err = (err * mpmath.mpf(2) ** -t + abs(mpmath.mpf(terms[-1]))) * mpmath.mpf("1.01")
        size = abs(mpmath.mpf(total))
        delta = err / (size - err)
        bound_units = delta / (1 - delta) * mpmath.mpf(2) ** t
    return s_hat, float(bound_units)


def _log_lop(value, t: int):
    """|log(value / sin 1)| / u; principal complex-log magnitude across signs."""
    z = value / mpmath.sin(1)
    lg = mpmath.log(abs(z))
    mag = abs(lg) if z > 0 else mpmath.sqrt(lg * lg + mpmath.pi**2)
    return mag * mpmath.mpf(2) ** t


def sine_reference(t: int, k_max: int, fl_program) -> list[dict]:
    """Per k: x_hat checked bit for bit, and the reference lops."""
    rows = []
    for k in range(1, k_max + 1):
        with mpmath.workprec(k + t + 256):
            x_true = mpmath.ldexp(mpmath.pi, k) + 1
            xhat_raw = _round(x_true._mpf_, t)
        got = fl_program(k, t)
        if got != _frac(xhat_raw):
            rows.append({"k": k, "error": f"x_hat at k={k} is not the {t}-bit nearest-even of pi*2^k+1"})
            continue
        s_hat, bound = _emulated_sine(xhat_raw, t)
        with mpmath.workprec(k + t + REF_BITS + 64):
            xhat = mpmath.mpf(xhat_raw)
            sin_xhat = mpmath.sin(xhat)
            kappa_tilde = 1 + x_true * mpmath.cot(1)
        with mpmath.workprec(max(2 * t, REF_BITS) + 64):
            rows.append({
                "k": k,
                "rel": _log_lop(mpmath.mpf(s_hat), t),
                "rel_exact_sine": _log_lop(sin_xhat, t),
                "bound": bound,
                "abs": abs(mpmath.mpf(s_hat) - mpmath.sin(1)) * mpmath.mpf(2) ** t,
                "kappa_tilde": kappa_tilde,
            })
    return rows


def check_sine_table(records, t: int, reference) -> str | None:
    if len(records) != len(reference):
        return f"{len(records)} rows, expected {len(reference)}"
    u = Fraction(1, 2**t)
    for rec, ref in zip(records, reference):
        k = ref["k"]
        if "error" in ref:
            return ref["error"]
        if rec.param != k or rec.u != u:
            return f"row {k}: param={rec.param} u={rec.u}"
        if rec.rel_lop == math.inf:
            return f"row k={k}: infinite rel_lop"
        with mpmath.workprec(max(2 * t, REF_BITS) + 64):
            rel = _mpq(rec.rel_lop)
            if abs(rel - ref["rel"]) > SINE_ULP_TOL:
                return f"k={k}: rel_lop off the emulated sine by {float(rel - ref['rel']):.3g} u"
            if abs(rel - ref["rel_exact_sine"]) > ref["bound"]:
                return f"k={k}: rel_lop outside the sine's error bound ({ref['bound']:.3g} u)"
            ab = _mpq(rec.abs_lop)
            if abs(ab - ref["abs"]) > SINE_ULP_TOL:
                return f"k={k}: abs_lop off by {float(ab - ref['abs']):.3g} u"
            kt = _mpq(rec.kappa_tilde)
            if abs(kt / ref["kappa_tilde"] - 1) > mpmath.mpf(10) ** -30:
                return f"k={k}: kappa_tilde off by {float(kt / ref['kappa_tilde'] - 1):.3g} relative"
    return None


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _kappa_close(got, want: float, rtol: float) -> bool:
    if got == math.inf or not math.isfinite(want):
        return got == want
    return abs(float(got) - want) <= rtol * want


def check_kappa(rep, spec, rtol: float) -> str | None:
    want = refs.kappa_float(spec["fid"], spec["kw"], spec["x"])
    if not _kappa_close(rep.kappa, want, rtol):
        return f"{spec['fid']}: kappa={float(rep.kappa)!r} ({rep.method}), float64 SVD gives {want!r}"
    if rep.kappa_tilde != 1 + rep.kappa:
        return f"{spec['fid']}: kappa_tilde is not 1 + kappa"
    return None


def _mp_kappa_tilde_sin(v) -> mpmath.mpf:
    """1 + |x cos x / sin x| for an exact rational or a certified real."""
    if not isinstance(v, Fraction):
        v = v.enclosure(REF_BITS + 64).midpoint()
    with mpmath.workprec(REF_BITS + 64):
        x = _mpq(v)
        return 1 + abs(x * mpmath.cot(x))


def check_sine_probe(verdict, sine_point, a: int) -> str | None:
    if verdict.passed or verdict.A2_ok or verdict.witness is None:
        return "the sine probe did not fail with a growth witness"
    kt_x = _mp_kappa_tilde_sin(sine_point.coords[0])
    with mpmath.workprec(REF_BITS + 64):
        if abs(_mpq(Fraction(verdict.kappa_tilde_at_x)) - kt_x) > mpmath.mpf(10) ** -20:
            return f"kappa_tilde at x is {float(verdict.kappa_tilde_at_x)!r}, mpmath gives {float(kt_x)!r}"
    kt_w = _mp_kappa_tilde_sin(verdict.witness.coords[0])
    if not kt_w > a * kt_x:
        return f"witness kappa_tilde {float(kt_w):.4g} does not exceed {a} * {float(kt_x):.4g}"
    return None


def check_excess(rep, eps: Fraction) -> str | None:
    x = [Fraction(1), eps, eps, Fraction(1)] * 2
    hx = refs.strassen_products(x)
    for name, got, fid, at in (("kt_h_at_x", rep.kt_h_at_x, "strassen_h", x),
                               ("kt_g_at_hx", rep.kt_g_at_hx, "strassen_g", hx),
                               ("kt_f_at_x", rep.kt_f_at_x, "matmul_2x2", x)):
        want = 1 + refs.kappa_float(fid, {}, at)
        if not _kappa_close(got, want, KAPPA_RTOL):
            return f"{name}={float(got)!r}, float64 SVD gives {want!r}"
    if rep.excess is None or rep.excess == math.inf or rep.excess < 1 / (4 * eps):
        return f"excess {rep.excess} below 1/(4 eps) = {float(1 / (4 * eps)):.6g}"
    if Fraction(rep.kt_g_at_hx) * Fraction(rep.kt_h_at_x) < Fraction(rep.kt_f_at_x):
        return "kt_g * kt_h < kt_f"
    return None


# ---------------------------------------------------------------------------


class Checker:
    """Holds one run's references and checks each operation against them."""

    def __init__(self, workload: str, inputs):
        self.workload = workload
        self.inputs = inputs
        self._strassen: dict[int, tuple[float, ...]] = {}
        self._sine: dict[int, list[dict]] = {}

    def check_round(self, ops) -> list[str | None]:
        """Each operation's reason to fail, then the whole Strassen table's.

        A table that breaks the paper's properties fails its last row.
        """
        reasons = [self.check(op) for op in ops]
        rows = [op for op in ops if op.spec["kind"] == "strassen_row"]
        if rows and not any(reasons):
            reasons[-1] = check_strassen_table([op.output[0] for op in rows])
        return reasons

    def check(self, op) -> str | None:
        if op.error is not None:
            return op.error
        spec = op.spec
        kind = spec["kind"]
        out = op.output
        if kind == "strassen_row":
            key = spec["key"]
            if key not in self._strassen:
                self._strassen[key] = strassen_row(key, spec["eps"], self.inputs["samples"])
            return check_strassen_row(out, self._strassen[key])
        if kind == "sine":
            t = spec["t"]
            if t not in self._sine:
                self._sine[t] = sine_reference(t, spec["k_max"], _program_xhat)
            return check_sine_table(out, t, self._sine[t])
        if kind == "kappa":
            return check_kappa(out, spec, KAPPA_RTOL)
        if kind == "kappa_sampled":
            return check_kappa(out, spec, float(SAMPLED_RTOL))
        if kind == "probe":
            if not out.passed or out.samples_used != spec["n"]:
                return f"probe failed after {out.samples_used} samples (A1={out.A1_ok}, A2={out.A2_ok})"
            return None
        if kind == "sine_probe":
            return check_sine_probe(out, self.inputs["sine_point"], spec["a"])
        if kind == "excess":
            return check_excess(out, spec["eps"])
        raise ValueError(f"no checker for {kind!r}")


def _program_xhat(k: int, t: int) -> Fraction:
    """The program's rounding of pi*2^k+1 at t bits, as an exact rational."""
    import stabilis

    return stabilis.to_exact(stabilis.fl(stabilis.sine_true_input(k), t))
