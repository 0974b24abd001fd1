"""The shared test helpers in ``conftest`` give what they replace."""

import math
import random
from fractions import Fraction

from conftest import best_rational, random_point


def test_best_rational_is_limit_denominator():
    rng = random.Random(2024)
    xs = [rng.uniform(-8.0, 8.0) for _ in range(60_000)]
    xs += [math.ldexp(rng.random(), rng.randint(-60, 60)) * rng.choice((1, -1)) for _ in range(30_000)]
    xs += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)).__float__() for _ in range(10_000)]
    xs += [0.0, -0.0, 1e-300, -1e300, 0.5, 2.0**-20, 1 / 3]
    for x in xs:
        assert best_rational(x) == Fraction(x).limit_denominator(10**6), x
    for den in (1, 7, 1000):
        for x in xs[:2000]:
            assert best_rational(x, den) == Fraction(x).limit_denominator(den), (x, den)


def test_random_point_makes_the_same_draws():
    for signed in (False, True):
        a, b = random.Random(5), random.Random(5)
        pts = [random_point(a, 4, 0.2, 5.0, signed) for _ in range(50)]
        want = []
        for _ in range(50):
            vals = []
            for _ in range(4):
                v = Fraction(b.uniform(0.2, 5.0)).limit_denominator(10**6)
                vals.append(-v if signed and b.random() < 0.5 else v)
            want.append(vals)
        assert [list(p.coords) for p in pts] == want
        assert a.random() == b.random()
