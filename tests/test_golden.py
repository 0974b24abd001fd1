"""Golden outputs of the two experiment tables.

The SHA-256 digests below were taken from the in-process CLI output
(``click.testing.CliRunner``) at the commit before the relative-step
primitive (``relmetric.step_factors``) and the integer distance paths
replaced the Fraction arithmetic of the Strassen perturbations, the metric
samplers and the sampled condition number, and before any of those source
changes were made.  Any later change that moves a single byte of these
tables fails here.
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
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=lambda a: " ".join(a))
def test_table_bytes_unchanged(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == GOLDEN[args]
