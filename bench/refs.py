"""Reference maths written apart from the program under test.

Scaled Jacobians diag(f(x))^-1 J(x) diag(x) for the 17 catalog functions,
formed here from the textbook definitions in exact rationals and rounded
once to float64; their float64 SVD gives the condition number the
program's closed-form and derivative routes are checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Strassen's seven products M1..M7 on A = x[0:4], B = x[4:8], row-major:
# A11 A12 A21 A22 = 0 1 2 3, B11 B12 B21 B22 = 4 5 6 7.  Each is
# (signed sum of A entries) * (signed sum of B entries).
STRASSEN_M = [
    ({0: 1, 3: 1}, {4: 1, 7: 1}),  # M1 = (A11 + A22)(B11 + B22)
    ({2: 1, 3: 1}, {4: 1}),  # M2 = (A21 + A22) B11
    ({0: 1}, {5: 1, 7: -1}),  # M3 = A11 (B12 - B22)
    ({3: 1}, {6: 1, 4: -1}),  # M4 = A22 (B21 - B11)
    ({0: 1, 1: 1}, {7: 1}),  # M5 = (A11 + A12) B22
    ({2: 1, 0: -1}, {4: 1, 5: 1}),  # M6 = (A21 - A11)(B11 + B12)
    ({1: 1, 3: -1}, {6: 1, 7: 1}),  # M7 = (A12 - A22)(B21 + B22)
]
# C = AB from the products: C11 = M1+M4-M5+M7, C12 = M3+M5, C21 = M2+M4,
# C22 = M1-M2+M3+M6 (indices into M, 0-based)
STRASSEN_C = [
    {0: 1, 3: 1, 4: -1, 6: 1},
    {2: 1, 4: 1},
    {1: 1, 3: 1},
    {0: 1, 1: -1, 2: 1, 5: 1},
]


def nearest_rank(sorted_vals, pct: float):
    """Nearest-rank percentile of an already sorted sequence."""
    idx = max(1, math.ceil(pct * len(sorted_vals) / 100))
    return sorted_vals[min(idx, len(sorted_vals)) - 1]


def lin(x, terms: dict):
    """Signed sum of the indexed entries of x, added left to right."""
    return sum(c * x[i] for i, c in terms.items())


def strassen_products(x):
    return [lin(x, a) * lin(x, b) for a, b in STRASSEN_M]


def _bilinear_rows(x, products):
    """Scaled rows of outputs that are sums of products x_p * x_q."""
    rows = []
    for terms in products:
        f = sum(x[p] * x[q] for p, q in terms)
        row = [Fraction(0)] * len(x)
        for p, q in terms:
            row[p] += x[p] * x[q] / f
            row[q] += x[p] * x[q] / f
        rows.append(row)
    return rows


def _matmul_terms(i: int, j: int):
    """c_ij = a_i1 b_1j + a_i2 b_2j as index pairs (i, j are 1-based)."""
    return [(2 * (i - 1) + r, 4 + 2 * r + (j - 1)) for r in (0, 1)]


def scaled_jacobian(fid: str, kw: dict, x: list[Fraction]) -> np.ndarray:
    """diag(f(x))^-1 J(x) diag(x) as float64, from the textbook maps."""
    n = len(x)
    if fid == "product":
        rows = [[1] * n]
    elif fid == "sum":
        s = sum(x)
        rows = [[v / s for v in x]]
    elif fid in ("hadamard", "tensor_product"):
        k = kw["k"]
        pairs = [(i, k + i) for i in range(k)] if fid == "hadamard" else [
            (i, k + j) for i in range(k) for j in range(kw["l"])]
        rows = [[1 if c in pair else 0 for c in range(n)] for pair in pairs]
    elif fid == "linear_map":
        rows = []
        for r in kw["rows"]:
            f = sum(c * v for c, v in zip(r, x))
            rows.append([c * v / f for c, v in zip(r, x)])
    elif fid == "inner_product":
        k = kw["k"]
        rows = _bilinear_rows(x, [[(i, k + i) for i in range(k)]])
    elif fid == "copy":
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows = eye + eye
    elif fid == "squared_norm":
        q = sum(v * v for v in x)
        rows = [[2 * v * v / q for v in x]]
    elif fid == "sqrt":
        rows = [[Fraction(1, 2)]]
    elif fid == "norm2":
        q = sum(v * v for v in x)
        rows = [[v * v / q for v in x]]
    elif fid == "power":
        rows = [[kw["exponent"]]]
    elif fid == "affine":
        if kw["op"] != "add":
            raise ValueError("only the additive affine map is queried")
        rows = [[x[0] / (x[0] + kw["alpha"])]]
    elif fid == "sin":
        v = float(x[0])
        rows = [[v * math.cos(v) / math.sin(v)]]
    elif fid == "matmul_entry":
        rows = _bilinear_rows(x, [_matmul_terms(kw["i"], kw["j"])])
    elif fid == "matmul_2x2":
        rows = _bilinear_rows(x, [_matmul_terms(i, j) for i in (1, 2) for j in (1, 2)])
    elif fid == "strassen_h":
        rows = []
        for a, b in STRASSEN_M:
            u, v = lin(x, a), lin(x, b)
            row = [Fraction(0)] * n
            for i, c in a.items():
                row[i] += c * x[i] / u
            for i, c in b.items():
                row[i] += c * x[i] / v
            rows.append(row)
    elif fid == "strassen_g":
        rows = []
        for terms in STRASSEN_C:
            f = lin(x, terms)
            row = [Fraction(0)] * n
            for m, c in terms.items():
                row[m] += c * x[m] / f
            rows.append(row)
    else:
        raise ValueError(f"no reference jacobian for {fid!r}")
    return np.array([[float(v) for v in r] for r in rows], dtype=np.float64)


def kappa_float(fid: str, kw: dict, x: list[Fraction]) -> float:
    """Relative condition number: the 2-norm of the scaled Jacobian.

    Infinite where an output coordinate is zero (the ill-posed locus).
    """
    try:
        s = scaled_jacobian(fid, kw, x)
    except ZeroDivisionError:
        return math.inf
    return float(np.linalg.svd(s, compute_uv=False)[0])
