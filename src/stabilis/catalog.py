"""Elementary function catalog and the finite-precision algorithms for it.

Every entry exposes four consistent views that the rest of the package
cross-checks against each other:

* ``exact``     - reference semantics over exact reals (rational maps stay
                  rational; roots and sines become certified enclosures);
* ``jacobian``  - the derivative matrix, derived from ``exact`` by
                  forward-mode differentiation on exact dual numbers
                  (:class:`_Dual`) for every function, composites included,
                  so a rational map's entries are exact: ``derivatives``
                  with unit seeds, or with the coordinates for f(x) and
                  the scaled partials x_j df_i/dx_j;
* ``kappa_closed`` - the closed-form condition number in the relative
                  metric, where one exists (None falls back to the
                  spectral-norm path);
* ``kappa_upper`` - a certified bound on it over a box, from one dual pass.

Alongside, :class:`NumericalAlgorithm` wraps the same functions as
floating-point programs: every arithmetic step is rounded to the requested
precision, constants included, in the soft float or, at t = 53 where it
gives the same bits, in hardware binary64.

Two tables name everything: ``FUNCTIONS`` maps a function name (aliases
included) to its class and the way the CLI sizes it, and ``ALGORITHMS``
maps an algorithm name to the function it implements and its runner.
``catalog_function`` and ``algorithm`` are lookups in them.  ``compose``
is the one composition operator: g o h as a closed form the catalog knows,
or as a :class:`Composite`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .fpcore import (
    BINARY64,
    Binary64Refusal,
    FpError,
    FpNumber,
    Precision,
    SoftFloat,
    fl,
    fp_add,
    fp_div,
    fp_mul,
    fp_sub,
    fp_zero,
    to_exact,
)
from .reals import (
    CertifiedReal,
    ExactReal,
    Interval,
    PrecisionError,
    _over_lcm,
    _sum_sq,
    cos_iv,
    nth_root_fraction,
    pi_iv,
    real_sign,
    refine,
    relative_interval,
    sin_iv,
    sqrt_iv,
    to_real,
)

Coords = tuple[ExactReal, ...]


class DomainError(ValueError):
    """Input outside the function's domain."""


def _rational(xs: Coords) -> bool:
    """Whether every coordinate is an exact rational."""
    return all(isinstance(v, Fraction) for v in xs)


def _sqrt_mid(q: Fraction) -> Fraction:
    """The exact root, or the midpoint of ``sqrt_iv(q, b)``, b = max(192, 128 -
    e // 2) for 2**(e-1) < q < 2**(e+1): 192 for a root of at least 2**-64,
    and good to 128 relative bits below it."""
    r = nth_root_fraction(q, 2)
    if r is not None:
        return r
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return sqrt_iv(q, max(192, 128 - (e >> 1))).midpoint()


def _sum(terms: Sequence[ExactReal]) -> ExactReal:
    """Exact sum: over one common denominator when every term is a Fraction.

    Otherwise left to right from 0: an enclosure's bits depend on the order
    of the additions.
    """
    if all(isinstance(t, Fraction) for t in terms):
        nums, den = _over_lcm(terms)
        return Fraction(sum(nums), den)
    out: ExactReal = Fraction(0)
    for t in terms:
        out = out + t
    return out


def _sum_kappa(terms: Sequence[Fraction], c: int = 1):
    """Condition number sqrt(c * sum t^2) / |sum t| of summing ``terms``.

    ``c`` counts the relative perturbations that reach each term (2 when a
    term is a product of two inputs).
    """
    nums, den = _over_lcm(terms)
    if not any(nums):
        return Fraction(0)
    s = sum(nums)
    if s == 0:
        return math.inf
    return _sqrt_mid(Fraction(c * sum(n * n for n in nums), den * den)) / Fraction(abs(s), den)


def sqrt_real(x: ExactReal | _Dual) -> ExactReal | _Dual:
    """Exact square root when rational, otherwise a certified enclosure."""
    if isinstance(x, _Dual):  # the root with its derivative, which exists only at x > 0
        if not isinstance(x.v, _Dual) and real_sign(x.v) <= 0:  # an inner dual checks its own value
            raise DomainError("the square root has no derivative at x <= 0")
        return x.map(sqrt_real, lambda v: Fraction(1, 2) / sqrt_real(v))
    if isinstance(x, Fraction):
        if x < 0:
            raise DomainError("square root of a negative value")
        r = nth_root_fraction(x, 2)
        if r is not None:
            return r
        return CertifiedReal(lambda b: sqrt_iv(x, b))
    return CertifiedReal(lambda b: sqrt_iv(x.enclosure(b + 8), b))


def _mul(a: ExactReal, b: ExactReal) -> ExactReal:
    """a * b, exact for an exact factor 0 or 1: a certified real is not rewrapped."""
    if a == 0 or b == 0:
        return Fraction(0)
    return b if a == 1 else a if b == 1 else a * b


def _plus(d: dict, e: dict) -> dict:
    """The sum of two partial maps, without the partials that cancel exactly."""
    out = dict(d)
    for j, p in e.items():
        s = out.pop(j) + p if j in out else p
        if s != 0:
            out[j] = s
    return out


class _Dual:
    """An exact real v with its partials d (input index -> derivative) for
    forward-mode differentiation (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008).

    A zero partial is never stored and a missing one is 0; :func:`_mul`
    keeps certified reals from exact factors 0.  A certified real or an
    Interval (a dual pass on a box) compares equal to no number, so
    ``v == 0`` and ``v == 1`` hold only for exact ones.

    Duals nest (ch. 13 there): an outer dual's value and partials may be
    inner duals, whose partials are second derivatives (an inner 0 is kept).
    """

    __slots__ = ("v", "d")

    def __init__(self, v: ExactReal, d: dict):
        self.v, self.d = v, d

    @staticmethod
    def of(o) -> "_Dual":
        return o if isinstance(o, _Dual) else _Dual(to_real(o), {})

    def _times(self, c: ExactReal) -> dict:
        return {} if c == 0 else {j: _mul(c, p) for j, p in self.d.items()}

    def map(self, f: Callable, df: Callable) -> "_Dual":
        """f of this number, for a unary map f with derivative df: the chain rule."""
        return _Dual(f(self.v), self._times(df(self.v)))

    def __add__(self, o) -> "_Dual":
        o = _Dual.of(o)
        v = o.v if self.v == 0 else self.v if o.v == 0 else self.v + o.v  # an exact 0 is left out
        return _Dual(v, _plus(self.d, o.d))

    __radd__ = __add__

    def __sub__(self, o) -> "_Dual":
        return self + _Dual.of(o) * Fraction(-1)

    def __mul__(self, o) -> "_Dual":
        o = _Dual.of(o)
        return _Dual(_mul(self.v, o.v), _plus(self._times(o.v), o._times(self.v)))

    __rmul__ = __mul__

    def __pow__(self, j: int) -> "_Dual":
        return _Dual(self.v ** j, self._times(j * self.v ** (j - 1)) if j else {})

    def __rtruediv__(self, o) -> "_Dual":
        return _Dual.of(o) * self ** -1


def second_order(f: "CatalogFunction", xs: Coords, seeds: dict) -> list[tuple] | None:
    """(f_i, p_i, h_i) per output from :meth:`CatalogFunction.derivatives` on
    inner duals carrying ``seeds``: p_i maps k to seeds[k] df_i/dx_k, h_i maps
    j to {k: seeds[j] seeds[k] d2f_i/dx_j dx_k}; None where f has no derivative."""
    out = f.derivatives(tuple(_Dual(x, {k: seeds[k]}) if k in seeds else x for k, x in enumerate(xs)), seeds)
    if out is None:
        return None
    return [(y.v, y.d, {j: _Dual.of(p).d for j, p in d.items()}) for y, d in zip(map(_Dual.of, out[0]), out[1])]


# ---------------------------------------------------------------------------
# Catalog functions
# ---------------------------------------------------------------------------


class CatalogFunction:
    """A function of the catalog: exact semantics + derivative + condition."""

    id: str
    in_dim: int
    out_dim: int

    def exact(self, xs: Coords) -> Coords:
        raise NotImplementedError

    def derivatives(self, xs: Coords, seeds: dict) -> tuple[Coords, list[dict]] | None:
        """f(xs) and the outputs' partial maps from one dual pass of ``exact``:
        input j carries the partial ``seeds[j]`` (none if j is not a key), so
        output i maps j to seeds[j] df_i/dx_j, an exact 0 left out.  None
        where a stage has no derivative, such as the root at 0."""
        try:
            ys = self.exact(tuple(_Dual(x, {j: seeds[j]} if j in seeds else {}) for j, x in enumerate(xs)))
        except DomainError:
            return None
        ys = [_Dual.of(y) for y in ys]
        return tuple(y.v for y in ys), [y.d for y in ys]

    def jacobian(self, xs: Coords) -> list[list[ExactReal]] | None:
        """The derivative matrix: :meth:`derivatives` with unit seeds, a
        missing partial being an exact 0."""
        one, zero = Fraction(1), Fraction(0)
        out = self.derivatives(xs, {j: one for j in range(self.in_dim)})
        return None if out is None else [[d.get(j, zero) for j in range(self.in_dim)] for d in out[1]]

    def kappa_closed(self, xs: Coords):
        """Closed-form condition number, or None if only the spectral path applies."""
        return None

    def kappa_upper(self, ivs: Sequence[Interval]) -> Fraction | None:
        """An upper bound on the kappa that ``condition.kappa_inside`` reports
        at every point of the box of coordinate enclosures ``ivs``, or None.

        One dual pass seeded with the enclosures encloses f_i and x_j
        df_i/dx_j over the box (Moore, Kearfott and Cloud, *Introduction to
        Interval Analysis*, SIAM 2009, ch. 6), so every scaled Jacobian S
        there has |S_ij| <= M_ij = max |x_j df_i/dx_j| / min |f_i| and
        ||S||_2 <= ||M||_2; the margin 2**-90 covers ``spectral_norm``'s
        2**-100 and the closed forms' rounding.  A row 0 on the box with zero
        partials drops; None where another output's enclosure holds 0, or
        where f restricts its domain or does not run on boxes.
        """
        from .condition import spectral_norm  # condition imports this module

        if self.restricts:
            return None
        try:
            ys, partials = self.derivatives(tuple(ivs), dict(enumerate(ivs)))
        except TypeError:  # sin
            return None
        rows = []
        for y, d in zip(ys, partials):  # y an Interval or an exact 0; each partial carries its seed
            a = abs(y)
            lo, hi = (a.lower(), a.upper()) if isinstance(a, Interval) else (a, a)
            if hi == 0 and all(p.lo == p.hi == 0 for p in d.values()):
                continue
            if lo == 0:
                return None
            rows.append([abs(d[j]).upper() / lo if j in d else 0 for j in range(self.in_dim)])
        return spectral_norm(rows) * (1 + Fraction(1, 2**90))

    def in_domain(self, xs: Coords) -> bool:
        """Whether xs lies in the domain: on rational coordinates, False
        exactly where ``exact`` raises DomainError or ZeroDivisionError."""
        return True

    @property
    def restricts(self) -> bool:
        """Whether ``in_domain`` can be False anywhere."""
        return type(self).in_domain is not CatalogFunction.in_domain

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id} ({self.in_dim}->{self.out_dim})>"


class Composite(CatalogFunction):
    """g o h: ``exact`` feeds h's outputs to g, so one dual pass through both
    stages gives the Jacobian that the spectral path takes without a closed form."""

    def __init__(self, g: CatalogFunction, h: CatalogFunction):
        self.g, self.h = g, h
        self.id = f"{g.id} o {h.id}"
        self.in_dim, self.out_dim = h.in_dim, g.out_dim

    def exact(self, xs):
        return self.g.exact(self.h.exact(xs))

    @property
    def restricts(self) -> bool:
        return self.h.restricts or self.g.restricts

    def in_domain(self, xs):
        if not self.h.in_domain(xs):
            return False
        # h(xs) is evaluated only when g restricts its domain
        return not self.g.restricts or self.g.in_domain(self.h.exact(xs))


class Product(CatalogFunction):
    def __init__(self, k: int = 2):
        self.id = f"product[{k}]"
        self.in_dim, self.out_dim = k, 1
        self.k = k

    def exact(self, xs):
        out: ExactReal = Fraction(1)
        for v in xs:
            out = out * v
        return (out,)

    def kappa_closed(self, xs):
        if any(real_sign(v) == 0 for v in xs):
            return Fraction(0)  # locally constant zero
        return _sqrt_mid(Fraction(self.k))

    def kappa_upper(self, ivs):
        return Fraction(0) if any(iv.lo == iv.hi == 0 for iv in ivs) else _sqrt_mid(Fraction(self.k))


class Summation(CatalogFunction):
    def __init__(self, k: int = 2):
        self.id = f"summation[{k}]"
        self.in_dim, self.out_dim = k, 1
        self.k = k

    def exact(self, xs):
        return (_sum(xs),)

    def kappa_closed(self, xs):
        return _sum_kappa(xs) if _rational(xs) else None


class Hadamard(CatalogFunction):
    """Entrywise product of two length-k arrays, input flattened to 2k."""

    def __init__(self, k: int = 2):
        self.id = f"hadamard[{k}]"
        self.in_dim, self.out_dim = 2 * k, k
        self.k = k

    def exact(self, xs):
        k = self.k
        return tuple(xs[i] * xs[k + i] for i in range(k))

    def kappa_closed(self, xs):
        k = self.k
        alive = any(real_sign(xs[i]) != 0 and real_sign(xs[k + i]) != 0 for i in range(k))
        if not alive:
            return Fraction(0)
        return _sqrt_mid(Fraction(2))


class TensorProduct(CatalogFunction):
    """Outer product of a length-k and a length-l array."""

    def __init__(self, k: int = 2, l: int | None = None):
        l = k if l is None else l
        self.id = f"tensor_product[{k}x{l}]"
        self.in_dim, self.out_dim = k + l, k * l
        self.k, self.l = k, l

    def exact(self, xs):
        k, l = self.k, self.l
        return tuple(xs[i] * xs[k + j] for i in range(k) for j in range(l))

    def kappa_closed(self, xs):
        k, l = self.k, self.l
        cx = sum(1 for i in range(k) if real_sign(xs[i]) != 0)
        cy = sum(1 for j in range(l) if real_sign(xs[k + j]) != 0)
        if cx == 0 or cy == 0:
            return Fraction(0)
        return _sqrt_mid(Fraction(cx + cy))


class LinearMap(CatalogFunction):
    """x -> A x for a fixed rational matrix A (rows of coefficients)."""

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(Fraction(c) for c in r) for r in rows)
        k = len(self.rows[0])
        if any(len(r) != k for r in self.rows):
            raise ValueError("ragged linear map")
        self.id = f"linear_map[{len(self.rows)}x{k}]"
        self.in_dim, self.out_dim = k, len(self.rows)

    def exact(self, xs):
        return tuple(_sum([c * v for c, v in zip(r, xs) if c]) for r in self.rows)

    def kappa_closed(self, xs):
        if self.out_dim != 1 or not _rational(xs):
            return None  # stacked rows go through the spectral path
        return _sum_kappa([c * v for c, v in zip(self.rows[0], xs)])


class InnerProduct(Composite):
    """<x, y> with the two length-k arrays flattened to 2k inputs."""

    def __init__(self, k: int = 2):
        super().__init__(Summation(k), Hadamard(k))
        self.id = f"inner_product[{k}]"
        self.k = k

    def kappa_closed(self, xs):
        # a relative perturbation reaches each product through both factors,
        # hence the sqrt(2) on top of the summation-stage condition number
        return _sum_kappa([a * b for a, b in zip(xs[:self.k], xs[self.k:])], 2) if _rational(xs) else None


class Copy(CatalogFunction):
    def __init__(self, k: int = 2):
        self.id = f"copy[{k}]"
        self.in_dim, self.out_dim = k, 2 * k
        self.k = k

    def exact(self, xs):
        return tuple(xs) + tuple(xs)

    def kappa_closed(self, xs):
        if all(real_sign(v) == 0 for v in xs):
            return Fraction(0)
        return _sqrt_mid(Fraction(2))


class SquaredNorm(Composite):
    def __init__(self, k: int = 2):
        super().__init__(InnerProduct(k), Copy(k))
        self.id = f"squared_norm[{k}]"
        self.k = k

    def kappa_closed(self, xs):
        q = _sum_sq(xs) if _rational(xs) else None
        if not q:
            return q  # None at a certified coordinate, 0 at the origin
        q4 = _sum_sq([v * v for v in xs])
        return 2 * _sqrt_mid(q4) / q


class Sqrt(CatalogFunction):
    def __init__(self):
        self.id = "sqrt"
        self.in_dim = self.out_dim = 1

    def in_domain(self, xs):
        return real_sign(xs[0]) >= 0

    def exact(self, xs):
        return (sqrt_real(xs[0]),)

    def kappa_closed(self, xs):
        if real_sign(xs[0]) == 0:
            return Fraction(0)  # isolated point of the domain
        return Fraction(1, 2)


class Norm2(Composite):
    def __init__(self, k: int = 2):
        super().__init__(Sqrt(), SquaredNorm(k))
        self.id = f"norm2[{k}]"
        self.k = k

    def kappa_closed(self, xs):
        # sqrt has condition number 1/2 wherever it is differentiable
        return self.h.kappa_closed(xs) / 2 if _rational(xs) else None


class Power(CatalogFunction):
    def __init__(self, exponent: int):
        self.id = f"power[{exponent}]"
        self.in_dim = self.out_dim = 1
        self.j = exponent

    def in_domain(self, xs):
        return self.j >= 0 or real_sign(xs[0]) != 0

    def exact(self, xs):
        return (xs[0] ** self.j,)

    def kappa_closed(self, xs):
        if real_sign(xs[0]) == 0:
            return Fraction(0)
        return Fraction(abs(self.j)) if self.j != 0 else Fraction(0)


# x op alpha; a certified x is divided by the exact reciprocal of alpha
_AFFINE = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": lambda x, a: x * (1 / a)}


class Affine(CatalogFunction):
    """x -> x op alpha for op in {add, sub, mul, div} and a rational alpha."""

    def __init__(self, op: str, alpha):
        if op not in _AFFINE:
            raise ValueError(f"unknown scalar op {op!r}")
        self.alpha = Fraction(alpha)
        if op == "div" and self.alpha == 0:
            raise ValueError("division by a zero constant")
        self.op = op
        self.id = f"affine[{op},{self.alpha}]"
        self.in_dim = self.out_dim = 1

    def exact(self, xs):
        return (_AFFINE[self.op](xs[0], self.alpha),)

    def kappa_closed(self, xs):
        x = xs[0]
        if real_sign(x) == 0:
            return Fraction(0)
        if self.op in ("mul", "div"):
            return Fraction(0) if self.alpha == 0 else Fraction(1)
        if not _rational(xs):
            return None
        fx = x + self.alpha if self.op == "add" else x - self.alpha
        if fx == 0:
            return math.inf
        return abs(x / fx)


class Sin(CatalogFunction):
    def __init__(self):
        self.id = "sin"
        self.in_dim = self.out_dim = 1

    def exact(self, xs):
        return (high_precision_sin(xs[0]),)

    def kappa_closed(self, xs):
        x = xs[0]
        if real_sign(x) == 0:
            return Fraction(0)

        def decide(b: int):  # x cos x / sin x at the first width b at which sin x has a certain sign
            xi = relative_interval(x, b)
            s = sin_iv(xi, b)
            return (xi * cos_iv(xi, b)).divide(s, b) if s.sign() in (-1, 1) else None

        try:
            return abs(refine(decide, 192, "the sign of sin x").midpoint())
        except PrecisionError:
            return math.inf  # within rounding distance of a sine zero


# -- Strassen / matmul -------------------------------------------------------


_H_TERMS = [
    # (a-side terms, b-side terms); h_i = (sum a) * (sum b)
    ([(1, 0), (1, 3)], [(1, 4), (1, 7)]),
    ([(1, 2), (1, 3)], [(1, 4)]),
    ([(1, 0)], [(1, 5), (-1, 7)]),
    ([(1, 3)], [(1, 6), (-1, 4)]),
    ([(1, 0), (1, 1)], [(1, 7)]),
    ([(1, 2), (-1, 0)], [(1, 4), (1, 5)]),
    ([(1, 1), (-1, 3)], [(1, 6), (1, 7)]),
]

_G_TERMS = [
    [(1, 0), (1, 3), (-1, 4), (1, 6)],
    [(1, 2), (1, 4)],
    [(1, 1), (1, 3)],
    [(1, 0), (-1, 1), (1, 2), (1, 5)],
]


class StrassenH(CatalogFunction):
    """The seven bilinear forms of Strassen's 2x2 scheme (inputs: A then B, row-major)."""

    def __init__(self):
        self.id = "strassen_h"
        self.in_dim, self.out_dim = 8, 7

    def exact(self, xs):
        return tuple(_sum([c * xs[i] for c, i in at]) * _sum([c * xs[i] for c, i in bt])
                     for at, bt in _H_TERMS)


class StrassenG(CatalogFunction):
    """The four +-1 recombinations of Strassen's scheme (output row-major C)."""

    def __init__(self):
        self.id = "strassen_g"
        self.in_dim, self.out_dim = 7, 4

    def exact(self, xs):
        return tuple(_sum([c * xs[i] for c, i in t]) for t in _G_TERMS)


class MatmulEntry(CatalogFunction):
    """One entry c_ij of the 2x2 matrix product (i, j are 1-based)."""

    def __init__(self, i: int = 1, j: int = 2):
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError("matmul entry indices must be 1 or 2")
        self.i, self.j = i, j
        self.id = f"matmul_entry[{i}{j}]"
        self.in_dim, self.out_dim = 8, 1

    def _pairs(self):
        i, j = self.i - 1, self.j - 1
        return ((2 * i, 4 + j), (2 * i + 1, 4 + 2 + j))

    def exact(self, xs):
        (p, q), (r, s) = self._pairs()
        return (xs[p] * xs[q] + xs[r] * xs[s],)

    def kappa_closed(self, xs):
        # inner-product special case: both factors of each product perturb
        (p, q), (r, s) = self._pairs()
        return _sum_kappa([xs[p] * xs[q], xs[r] * xs[s]], 2) if _rational(xs) else None


class Matmul2x2(Composite):
    """The full 2x2 matrix product (A, B) -> AB, row-major in and out: Strassen's
    scheme, StrassenG after StrassenH, evaluated entry by entry."""

    def __init__(self):
        super().__init__(StrassenG(), StrassenH())
        self.id = "matmul_2x2"
        self._entries = [MatmulEntry(i, j) for i in (1, 2) for j in (1, 2)]

    def exact(self, xs):
        return tuple(e.exact(xs)[0] for e in self._entries)


def compose(g: CatalogFunction, h: CatalogFunction) -> CatalogFunction:
    """g o h: the catalog's closed form where it knows one, else a Composite."""
    if h.out_dim != g.in_dim:
        raise ValueError(f"cannot compose {g.id} after {h.id}")
    # matching dimensions already fix each stage's k to the other's
    if isinstance(g, Summation) and isinstance(h, Hadamard):
        return InnerProduct(h.k)
    if isinstance(g, InnerProduct) and isinstance(h, Copy):
        return SquaredNorm(h.k)
    if isinstance(g, Sqrt) and isinstance(h, SquaredNorm):
        return Norm2(h.k)
    if isinstance(g, Product) and isinstance(h, Hadamard):
        return Product(2 * h.k)
    if isinstance(g, Power) and isinstance(h, Power):
        return Power(g.j * h.j)
    if isinstance(g, Affine) and isinstance(h, Affine) and g.op == h.op == "mul":
        return Affine("mul", g.alpha * h.alpha)
    if isinstance(g, StrassenG) and isinstance(h, StrassenH):
        return Matmul2x2()
    return Composite(g, h)


# ---------------------------------------------------------------------------
# Floating-point algorithms
# ---------------------------------------------------------------------------


class NumericalAlgorithm:
    """A floating-point program implementing a catalog function.

    ``evaluate`` rounds every arithmetic operation to the requested
    precision (constants are rounded on entry), mirroring how a strong
    finite-precision computation replaces the exact one.  ``exact_reference``
    is the implemented function's exact value.  ``run(function, xs, ar)``
    returns the outputs as a tuple, with every operation taken from the
    arithmetic ``ar``: a :class:`~stabilis.fpcore.SoftFloat`, or at t = 53
    first :data:`~stabilis.fpcore.BINARY64` on Python floats.  When binary64
    refuses an operation (it cannot show the soft float's bits there), the
    whole call runs again in the soft float, so the outputs are always the
    soft float's.
    """

    def __init__(self, aid: str, function: CatalogFunction, run: Callable):
        self.id = aid
        self.function = function
        self._run = run

    @property
    def in_dim(self) -> int:
        return self.function.in_dim

    @property
    def out_dim(self) -> int:
        return self.function.out_dim

    def evaluate(self, xs: Sequence[FpNumber], p: Precision | int) -> tuple[FpNumber, ...]:
        p = Precision.of(p)
        if len(xs) != self.in_dim:
            raise ValueError(f"{self.id} expects {self.in_dim} inputs, got {len(xs)}")
        xs = tuple(xs)
        if p.t == BINARY64.t:
            try:
                out = self._run(self.function, tuple(map(BINARY64.enter, xs)), BINARY64)
            except Binary64Refusal:
                pass
            else:
                return tuple(map(BINARY64.leave, out))
        return self._run(self.function, xs, SoftFloat(p))

    def exact_reference(self, xs: Coords) -> Coords:
        return self.function.exact(xs)

    def __repr__(self) -> str:
        return f"<NumericalAlgorithm {self.id}>"


def babylonian_sqrt(g: FpNumber, p: Precision | int) -> FpNumber:
    """Square root by scaling into [1/4, 1] and Newton iteration from 1/2.

    Termination: relative step below 4u, capped at 2t iterations.
    """
    p = Precision.of(p)
    t = p.t
    if g.is_zero:
        return fp_zero()
    if g.sign < 0:
        raise DomainError("square root of a negative value")
    E = g.exponent
    k = (E + 1) // 2 if E >= 0 else -((-E) // 2)
    # m = g * 4**-k lands in [1/4, 1)
    m = FpNumber(1, g.mantissa, E - 2 * k)
    x = fl(Fraction(1, 2), p)
    two = fl(2, p)
    for _ in range(2 * t):
        q = fp_div(m, x, p)
        nx = fp_div(fp_add(x, q, p), two, p)
        step = fp_sub(nx, x, p)
        # |step| <= 4u*x, compared exactly via an exponent shift
        thresh = FpNumber(1, x.mantissa, x.exponent + 2 - t)
        x = nx
        if abs(step) <= thresh:
            break
    else:
        raise FpError("square-root iteration failed to settle")
    return FpNumber(x.sign, x.mantissa, x.exponent + k)


# -- sine ---------------------------------------------------------------


def high_precision_sin(x: ExactReal | _Dual) -> ExactReal | _Dual:
    """Certified sine: argument reduction modulo pi, then a Taylor series.

    An exactly-zero input returns the exact zero (no enclosure can certify
    one).  Of a dual number, the sine with its derivative cos x.
    """
    if isinstance(x, _Dual):
        return x.map(high_precision_sin, _cos)
    x = to_real(x)
    if isinstance(x, Fraction) and x == 0:
        return Fraction(0)
    return CertifiedReal(lambda b: sin_iv(relative_interval(x, b), b))


def _cos(x: ExactReal | _Dual) -> CertifiedReal | _Dual:
    """Certified cosine, the sine's derivative; of a dual, with its derivative -sin x."""
    if isinstance(x, _Dual):
        return x.map(_cos, lambda v: -high_precision_sin(v))
    return CertifiedReal(lambda b: cos_iv(relative_interval(x, b), b))


def sin_in_precision(x: FpNumber, p: Precision | int) -> FpNumber:
    """Sine of a floating-point input, the way a faithful library computes it.

    The argument is reduced modulo pi with guard-precision knowledge of pi
    (the reduced argument is then correctly rounded into the working
    precision); the Taylor loop runs entirely in the working precision.
    """
    p = Precision.of(p)
    if x.is_zero:
        return fp_zero()
    X = to_exact(x)
    mag = max(x.exponent, 1)

    piq = Interval.from_fraction(X, mag + 80).divide(pi_iv(mag + 80), 64)
    n = (piq.lo + piq.hi + (1 << 64)) >> 65

    if n == 0:
        rhat = x
    else:
        def red(bits: int) -> Interval:
            w = bits + mag + max(1, abs(n).bit_length()) + 16
            return (Interval.from_fraction(X, w) - n * pi_iv(w)).rescale(bits + 16)

        rhat = fl(CertifiedReal(red), p)
    # Taylor loop in the working precision
    total = rhat
    term = rhat
    rsq = fp_mul(rhat, rhat, p)
    j = 1
    while True:
        den = fl((2 * j) * (2 * j + 1), p)
        term = -fp_div(fp_mul(term, rsq, p), den, p)
        new_total = fp_add(total, term, p)
        if new_total == total or j > p.t:
            break
        total = new_total
        j += 1
    if n % 2:
        total = -total
    return total


# -- runners ----------------------------------------------------------------
# A runner maps (function, inputs, arithmetic ar) to the outputs, every
# operation an ``ar.add``, ``ar.sub``, ``ar.mul``, ``ar.div`` or ``ar.round``.
# The square root's and the sine's loops run in the soft float only: their
# runners ask for ``ar.p``, which binary64 refuses.


def _fp_entry(e: MatmulEntry, xs, ar):
    (a, b), (c, d) = e._pairs()
    return ar.add(ar.mul(xs[a], xs[b]), ar.mul(xs[c], xs[d]))


def _fp_lin(xs, terms, ar):
    acc = None
    for c, i in terms:
        v = xs[i] if c > 0 else -xs[i]
        acc = v if acc is None else ar.add(acc, v)
    return acc


def _then(g: str, h: str) -> Callable:
    """The runner of algorithm ``g`` applied to the outputs of algorithm ``h``,
    for a :class:`Composite` f: each stage runs on its own function, ``f.g``
    or ``f.h``.  The runners are looked up in ALGORITHMS at call time.
    """
    return lambda f, xs, ar: ALGORITHMS[g][1](f.g, ALGORITHMS[h][1](f.h, xs, ar), ar)


def _run_power(f: Power, xs, ar):
    if f.j == 0:
        return (ar.round(1),)
    acc = reduce(ar.mul, [xs[0]] * abs(f.j))
    return (ar.div(ar.round(1), acc) if f.j < 0 else acc,)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

# name -> (class, CLI sizing).  The CLI builds k = max(dim // n, 1) for a
# sizing n > 0, takes the class defaults for 0, and does not offer None.
FUNCTIONS: dict[str, tuple[type[CatalogFunction], int | None]] = {
    "product": (Product, 1),
    "sum": (Summation, 1),
    "summation": (Summation, 1),
    "hadamard": (Hadamard, 2),
    "tensor_product": (TensorProduct, None),
    "linear_map": (LinearMap, None),
    "inner": (InnerProduct, 2),
    "inner_product": (InnerProduct, 2),
    "copy": (Copy, 1),
    "squared_norm": (SquaredNorm, 1),
    "sqrt": (Sqrt, 0),
    "norm2": (Norm2, 1),
    "power": (Power, 0),
    "affine": (Affine, 0),
    "sin": (Sin, 0),
    "strassen_h": (StrassenH, 0),
    "strassen_g": (StrassenG, 0),
    "matmul_entry": (MatmulEntry, 0),
    "matmul_2x2": (Matmul2x2, 0),
}

# algorithm name -> (name of the function it implements, runner)
ALGORITHMS: dict[str, tuple[str, Callable]] = {
    "naive_product": ("product", lambda f, xs, ar: (reduce(ar.mul, xs),)),
    "naive_sum": ("sum", lambda f, xs, ar: (reduce(ar.add, xs),)),
    "hadamard": ("hadamard", lambda f, xs, ar: tuple(ar.mul(xs[i], xs[f.k + i]) for i in range(f.k))),
    "tensor_product": ("tensor_product", lambda f, xs, ar: tuple(
        ar.mul(xs[i], xs[f.k + j]) for i in range(f.k) for j in range(f.l))),
    "linear_map": ("linear_map", lambda f, xs, ar: tuple(
        reduce(ar.add, [ar.mul(ar.round(c), x) for c, x in zip(r, xs)]) for r in f.rows)),
    "inner_product": ("inner_product", _then("naive_sum", "hadamard")),
    "copy": ("copy", lambda f, xs, ar: xs + xs),
    "squared_norm": ("squared_norm", _then("inner_product", "copy")),
    "norm2": ("norm2", _then("babylonian_sqrt", "squared_norm")),
    "babylonian_sqrt": ("sqrt", lambda f, xs, ar: (babylonian_sqrt(xs[0], ar.p),)),
    "power": ("power", _run_power),
    "scalar_affine": ("affine", lambda f, xs, ar: (getattr(ar, f.op)(xs[0], ar.round(f.alpha)),)),
    "strassen_h": ("strassen_h", lambda f, xs, ar: tuple(
        ar.mul(_fp_lin(xs, at, ar), _fp_lin(xs, bt, ar)) for at, bt in _H_TERMS)),
    "strassen_g": ("strassen_g", lambda f, xs, ar: tuple(_fp_lin(xs, t, ar) for t in _G_TERMS)),
    "strassen_2x2": ("matmul_2x2", _then("strassen_g", "strassen_h")),
    "matmul_2x2": ("matmul_2x2", lambda f, xs, ar: tuple(_fp_entry(e, xs, ar) for e in f._entries)),
    "matmul_entry": ("matmul_entry", lambda f, xs, ar: (_fp_entry(f, xs, ar),)),
    "sin_working": ("sin", lambda f, xs, ar: (sin_in_precision(xs[0], ar.p),)),
}


def catalog_function(fid: str, **kw) -> CatalogFunction:
    """Build a catalog function by name; dims and constants via keywords."""
    if fid not in FUNCTIONS:
        raise ValueError(f"unknown catalog function {fid!r}")
    return FUNCTIONS[fid][0](**kw)


def algorithm(aid: str, **kw) -> NumericalAlgorithm:
    """Build a floating-point algorithm by name; keywords go to its function."""
    if aid not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {aid!r}")
    fid, run = ALGORITHMS[aid]
    return NumericalAlgorithm(aid, catalog_function(fid, **kw), run)


def strassen_input(eps: Fraction) -> tuple[Fraction, ...]:
    """The ill-conditioned pair A = B = [[1, eps], [eps, 1]], flattened."""
    eps = Fraction(eps)
    a = (Fraction(1), eps, eps, Fraction(1))
    return a + a
