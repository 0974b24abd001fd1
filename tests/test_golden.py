"""Golden outputs of the two experiment tables and of the derivative route.

The SHA-256 digests below are of the in-process CLI output
(``click.testing.CliRunner``).  The two tables were taken at the commit
before the relative-step primitive (``relmetric.step_factors``) and the
integer distance paths replaced the Fraction arithmetic of the Strassen
perturbations, the metric samplers and the sampled condition number, and
before any of those source changes were made.  The three derivative-route
queries (``cond`` through the Jacobian, ``excess``) were taken at the commit
before the exact Gram-matrix spectral norm replaced the soft-float Jacobi
iteration, before that change touched any source file.  Any later change
that moves a single byte of these outputs fails here.
"""

import hashlib

import pytest
from click.testing import CliRunner

from stabilis.cli import main

GOLDEN = {
    ("strassen", "--n-eps", "12", "--samples", "50", "--seed", "3"):
        "b9f6e6b16911d7e33d4abe4dedb3273e46ff8267ab9a9ad86fa6775295d2ee3c",
    ("sine", "--k-max", "100"):
        "bf5ab5674d456975bace8fa3785906d9124e8839ac3c68402726c3c563333ec6",
    ("cond", "--method", "jacobian", "strassen_h", "1,2,3,4,5,6,7,8"):
        "0f9ad594a87bcf6b7abb8ceb968188aef81ad40fa7de882b56d1aa182ea87e9b",
    ("cond", "strassen_g", "1,2,3,4,5,6,7"):
        "50d815e480557ac0d0bd022522f5ed30f3f516f0a33b9478893d69f447ec4c6c",
    ("excess", "strassen_g", "strassen_h", "--eps", "1e-3"):
        "fce66aa03478aa3b610a7c68c6daa622e5436f49060a3b7b55620000e42d8a46",
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=lambda a: " ".join(a))
def test_table_bytes_unchanged(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == GOLDEN[args]
