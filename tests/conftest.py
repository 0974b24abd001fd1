"""Shared test configuration and helpers.

One Hypothesis profile serves the whole suite: exact arithmetic makes
single examples slow at times, so no example has a deadline;
``print_blob`` prints the reproduction blob of any failure.
"""

import random
from fractions import Fraction

from hypothesis import settings

from stabilis.relmetric import RelPoint

settings.register_profile("stabilis", deadline=None, print_blob=True)
settings.load_profile("stabilis")


def best_rational(x: float, max_den: int = 10**6) -> Fraction:
    """``Fraction(x).limit_denominator(max_den)``, by the same continued
    fraction on integers alone: the last convergent and the best semiconvergent
    within the bound, the nearer of the two (the convergent on a tie)."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return Fraction(n, d)
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # the semiconvergent lies 1/(q1 (q0 + k q1)) from the convergent, which
    # lies d/(q1 den) from x
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def random_point(rng: random.Random, k: int, lo: float, hi: float, signed: bool = False) -> RelPoint:
    """k coordinates drawn uniformly from [lo, hi] to a denominator of at most
    10**6, each negated with probability 1/2 when ``signed``: one
    ``rng.uniform`` per coordinate, and one ``rng.random`` after it if signed."""
    vals = []
    for _ in range(k):
        v = best_rational(rng.uniform(lo, hi))
        if signed and rng.random() < 0.5:
            v = -v
        vals.append(v)
    return RelPoint(vals)
