"""The benchmark's tracer (``bench/tracing.py``) installs on the package.

The tracer wraps functions and methods by name, so renaming or deleting
one of them would otherwise break only the benchmark's traced runs.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest

from stabilis import condition, fpcore, harness
from stabilis.catalog import CatalogFunction, catalog_function
from stabilis.reals import sqrt_iv
from stabilis.relmetric import RelPoint


@pytest.fixture
def tracer(monkeypatch):
    """A new Tracer from the benchmark's tracing module, not yet installed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    return Tracer()


def test_tracer_wraps_and_restores_the_package(tracer):
    fp_add, exact = fpcore.fp_add, CatalogFunction.exact
    tracer.install()
    try:
        assert fpcore.fp_add is not fp_add
        rep = condition.kappa_jacobian(catalog_function("sum", k=2), RelPoint.of(1, 2))
        spans = tracer.summarize()
        tracer.clear()
        # m_1 of strassen_h is 0 with no first partial here: a nested pass follows
        flat = condition.kappa_jacobian(catalog_function("strassen_h"), RelPoint.of(1, 0, 0, -1, 1, 0, 0, -1))
        nested = tracer.summarize()
    finally:
        tracer.uninstall()
    assert fpcore.fp_add is fp_add and CatalogFunction.exact is exact
    assert spans["trace.spans"] > 0
    # one dual pass: f(x) and the scaled partials from a single exact call
    for name, calls in [("condition.kappa_jacobian", 1), ("condition.kappa_from_jacobian", 1),
                        ("condition.spectral_norm", 1), ("catalog.exact", 1)]:
        assert spans[f"{name}.calls"] == calls, name
    assert spans.get("catalog.jacobian.calls", 0) == 0
    assert nested["catalog.exact.calls"] == 2 and flat.kappa == math.inf
    # the rows (1/3, 2/3): kappa = sqrt(5)/3
    assert abs(rep.kappa - sqrt_iv(Fraction(5, 9), 192).midpoint()) <= Fraction(1, 2**100)


def test_traced_strassen_rows_repeat(tracer):
    # a Strassen sample reaches exp, ln 2 and log on integer cores, not by
    # the traced exp_iv, ln2_iv and log_iv; a traced row still runs, and
    # records the same spans each time
    grid = [Fraction(1, 2**20)]
    want = harness.strassen_experiment(grid, 6, seed=11)
    tracer.install()
    try:
        runs = []
        for _ in range(2):
            tracer.clear()
            rows = harness.strassen_experiment(grid, 6, seed=11)
            runs.append((rows, tracer.summarize()))
    finally:
        tracer.uninstall()
    (rows_a, a), (rows_b, b) = runs
    assert rows_a == rows_b == want
    assert a["trace.spans"] == b["trace.spans"] > 0
    assert a["harness.strassen_experiment.calls"] == b["harness.strassen_experiment.calls"] == 1
    assert {k: v for k, v in a.items() if k.endswith(".calls")} == {k: v for k, v in b.items() if k.endswith(".calls")}
