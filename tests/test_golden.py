"""Golden outputs of the two experiment tables and of the derivative route.

The SHA-256 digests below are of the in-process CLI output
(``click.testing.CliRunner``).  The two tables were taken at the commit
before the relative-step primitive (``relmetric.step_factors``) and the
integer distance paths replaced the Fraction arithmetic of the Strassen
perturbations, the metric samplers and the sampled condition number, and
before any of those source changes were made.  The three derivative-route
queries (``cond`` through the Jacobian, ``excess``) were taken at the commit
before the exact Gram-matrix spectral norm replaced the soft-float Jacobi
iteration, before that change touched any source file.  The four composite
and closed-form ``excess`` routes and the ``amen`` verdict were taken at the
commit before the four name tables were folded into the ``catalog``
registries (``FUNCTIONS``, ``ALGORITHMS``), before any source file of that
change was edited.  The sine ``cond`` and ``amen`` queries, the two
``--method jacobian`` queries and the digest of the exact sine-table lops
were taken at the commit before the refinement loops were folded into
``reals.refine``, before any source file of that change was edited.  The
``amenability_probe`` verdicts and ``kappa_sampled`` reports were taken at
the commit before the probe decided clause A.1 by ``in_domain`` alone and
rational sums moved to one common denominator, before any source file of
that change was edited.  The Strassen tables at t = 24 and t = 113 were
taken at the commit before each sample's inputs were decided from
low-width step enclosures and its lops from integer outputs, before any
source file of that change was edited: the low width and the rate of
fallbacks to full width both depend on t.  The ``kappa_sampled`` reports
on ``copy``, ``power``, ``norm2``, ``matmul_2x2`` and the signed
``product[4]`` were taken at the commit before most probes were decided
from float bounds on their distances, before any source file of that
change was edited: they cover probes that tie the sup (``copy``,
``power``), a certified-real output (``norm2``), eight coordinates
(``matmul_2x2``) and outputs with huge denominators (``product[4]``).  The
coordinates drawn by ``rel_sphere_sample`` and ``rel_ball_sample`` and the
``step_enclosures`` at Strassen's low widths were taken at the commit
before the relative-step primitive summed its factors' series straight
from integers, built its rational coordinates in one normalisation and
kept the point's sign pattern, before any source file of that change was
edited: radius 1/2 sends some exponents past 1/4 and past ln 2 / 2, where
``exp_iv`` still reduces them.  The Strassen table at eps from 1e-320 to
1e-150 was taken at the commit before ``NumericalAlgorithm.evaluate`` ran
t = 53 in hardware binary64, before any source file of that change was
edited: at 1e-320 the inputs are subnormal in binary64, so every sample
of that row falls back on the soft float, and the rel lops print ``inf``.
The ``exp_ends`` and ``exp_iv`` enclosures of exponents with |w| in [1/4,
1.2] and the distances on rational ratios far from 1 were taken at the
commit before the exp reduction by n ln 2 and the log of a ratio ran on
endpoint integers, before any source file of that change was edited.
The Strassen table at t = 150, whose samples all take the 176-bit
fallback (t + 32 is not below 176), the point-expression outcomes and the
``kappa_sampled`` reports that leave the domain, run on one radius or fall
back from boxes were taken at the commit before certified values recorded
their operation and ``reals.price`` replaced the CLI's model of certified
arithmetic, before any source file of that change was edited.
Any later change that moves a single byte of these outputs fails here.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from conftest import random_point
from stabilis import cli
from stabilis.amenability import amenability_probe
from stabilis.catalog import catalog_function, compose
from stabilis.cli import main
from stabilis.condition import kappa_sampled
from stabilis.harness import sine_experiment
from stabilis.reals import CertifiedReal, Interval, exp_ends, exp_iv, pi_real
from stabilis.relmetric import (
    RelPoint,
    abs_dist,
    philox_stream,
    rel_ball_sample,
    rel_dist,
    rel_sphere_sample,
    scaled_dists,
    step_enclosures,
)

GOLDEN = {
    ("strassen", "--n-eps", "12", "--samples", "50", "--seed", "3"):
        "b9f6e6b16911d7e33d4abe4dedb3273e46ff8267ab9a9ad86fa6775295d2ee3c",
    ("strassen", "-t", "24", "--n-eps", "6", "--samples", "50", "--seed", "5"):
        "90a1e7310be9698b534b7495d9e5a693b350663928e44c45ea010a39daf090da",
    ("strassen", "-t", "113", "--n-eps", "6", "--samples", "50", "--seed", "5"):
        "27bbc171e18be50a3755a6ee1fd6cdfb564bded52c58b603d0affff30f9a6f33",
    ("strassen", "--eps", "1e-320", "1e-150", "--n-eps", "5", "--samples", "20", "--seed", "5"):
        "d542519265d878536cd37bc45a463699e1f2272bde884e111c50bfe0a238ae4a",
    ("strassen", "-t", "150", "--n-eps", "6", "--samples", "50", "--seed", "5"):
        "bc40b2502cb79a558f7ea12711d201bbc50de970172858e79a0d54e1347d1d55",
    ("sine", "--k-max", "100"):
        "bf5ab5674d456975bace8fa3785906d9124e8839ac3c68402726c3c563333ec6",
    ("cond", "--method", "jacobian", "strassen_h", "1,2,3,4,5,6,7,8"):
        "0f9ad594a87bcf6b7abb8ceb968188aef81ad40fa7de882b56d1aa182ea87e9b",
    ("cond", "strassen_g", "1,2,3,4,5,6,7"):
        "50d815e480557ac0d0bd022522f5ed30f3f516f0a33b9478893d69f447ec4c6c",
    ("excess", "strassen_g", "strassen_h", "--eps", "1e-3"):
        "fce66aa03478aa3b610a7c68c6daa622e5436f49060a3b7b55620000e42d8a46",
    ("excess", "sum", "hadamard", "--x", "1,-2,3,1/7"):
        "6ecac1f90e0fc673e0186e92977fe070c104e7206e800ff37d7e7d5a381fed87",
    ("excess", "inner", "copy", "--x", "1,2,3"):
        "493b7215fcccc559e56802e5070250f6f0cd6fac1899f3d358f92e075511fbad",
    ("excess", "sqrt", "squared_norm", "--x", "1,2,3"):
        "ec80ec441e7c7efce29cb78e47cb9024da234620d848ea8325a382c5662f33f1",
    ("excess", "product", "hadamard", "--x", "1,2,3,4"):
        "83d639a4b9f9768724ab689a3cb1c2ed440a2edf57c59f5277220e84a788850e",
    ("amen", "sum", "--x", "1,2,3", "--a", "4"):
        "5ab0f201d954083e2d253d8826b3066072a1120c7ade941e5f582a8cdc662a48",
    ("cond", "sin", "pi"):
        "a1c14f40d89d40e0eb0e4c6a2ba0e61c8111ee8b662939f521e517ed18313887",
    ("cond", "sin", "7/5"):
        "41a3a985b8c47d7fd700272e3d0b950e08f70efef3199b6d28e2eec8aa5939c4",
    ("cond", "--method", "jacobian", "sin", "pi/3"):
        "aa8b4f69ee44cbc743e1f6fc2563dd425b8c16e1d60eb0e44fc89508394ea748",
    ("cond", "--method", "jacobian", "sqrt", "pi"):
        "b71b35376003c2db47e4c56f33e35fb7fee7396c1701438dbb6a925f6d12ee70",
    ("amen", "sin", "--x", "pi/2+1000000*pi", "--a", "64", "--n", "50"):
        "cbb492520d6c433586748c5f562abb29916f0cdae99b63f644c06a89a4405298",
}

# SHA-256 of repr([(rel_lop, abs_lop), ...]) over sine_experiment(100): the
# exact Fractions, which the printed floats of the sine table round away
SINE_LOPS = "df133a2ec25c0ee3dad50f9242ec1b0857bad4f0b01e972ca2f64be2f8ac6945"


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=lambda a: " ".join(a))
def test_table_bytes_unchanged(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == GOLDEN[args]


def test_exact_sine_lops_unchanged():
    recs = sine_experiment(100)
    text = repr([(r.rel_lop, r.abs_lop) for r in recs])
    assert hashlib.sha256(text.encode()).hexdigest() == SINE_LOPS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _point(tag: str, dim: int, signed: bool, hi: float = 8.0) -> RelPoint:
    """Coordinates in [0.1, hi] to six decimals, seeded by ``tag``."""
    return random_point(random.Random(tag), dim, 0.1, hi, signed)


# SHA-256 of repr((verdict, witness coordinates)) of amenability_probe at
# a = 8 and n = 120, the shape of acceptance Criterion 8
PROBES = {
    ("sum", 2): "448bfd8402a63cf2c06234fd272e169f2cb0ba3003ac8115a090df904d2d83ef",
    ("sum", 8): "4e092122f459ae2facedec0d267289792b5d0ddc0c0aba764a09621e2057e5a3",
    ("sum", 64): "1ddde663f8814355e64a2e3d1b4218eb679e0cf5db812868e14433a672db5993",
    ("product", 2): "914a30a18552bf3cecd3af226749c402cbc52352d53403946a5ad7e0636c7f58",
    ("product", 8): "fdc26e4465c1fa706f80df2a90ed2ad961277135dc18e522ae10b08781e60ad6",
    ("product", 64): "842dd488214638c9b4d0362b077ef0abdcbbcc76e5f917b677e1d1cc2bb1a135",
    ("inner_product", 2): "807720b4748bacc92cb8c3c7ae7b3f16e8ba34fa4ff5c240f784f31f1cfa3029",
    ("inner_product", 8): "e8fedb8fd29b963b8e69e21f545ff096d7859d5734f89fb75dfe0d8874f7fdc8",
    ("inner_product", 64): "b5201d924fc30fc2baae4383cdc1b3a119c9db6579005347caccf122b1477b17",
}


@pytest.mark.parametrize("fid,k", sorted(PROBES), ids=lambda v: str(v))
def test_probe_verdicts_unchanged(fid, k):
    dim = 2 * k if fid == "inner_product" else k
    x = _point(f"{fid}[{k}]", dim, fid == "product")
    v = amenability_probe(catalog_function(fid, k=k), None, x, 8, 120, seed=k)
    assert _sha(repr((v, v.witness and v.witness.coords))) == PROBES[fid, k]


# SHA-256 of repr(kappa_sampled(...)) with two radii and 64 directions; a
# tag "fid[k]" names the function fid, and seeds the point with the tag
SAMPLED = {
    "sum": (dict(k=3), 3, False, 8.0, "de431d6a16f3d14b0686c93351559c4bff15a325dd53295702ca472465a826b5"),
    "product": (dict(k=3), 3, True, 8.0, "b2f35e19e30d1a1c40bacf08fb199ab33067322422d5b5f6a292e76a7fe42e18"),
    "hadamard": (dict(k=2), 4, True, 8.0, "aee18c3b032e5281c2931cd7ffdd296e5ee8e907a9d187c400f040581640daf2"),
    "strassen_h": ({}, 8, False, 4.0, "06d031d4da06cc32c92757377be07f9cdb9853f7244b846a4892b7cb82eaa20c"),
    "sqrt": ({}, 1, False, 8.0, "c7280d7baf05a402a5d4833ca60a0dfe5cf9e958560f9ca4765166cdaa238af8"),
    "copy": (dict(k=3), 3, True, 8.0, "3160bbd96cd5f77b86872e981d6b9d253ffc87801b66cc3da94e4859f6f85c72"),
    "power": (dict(exponent=3), 1, True, 8.0, "ec20730f4a97835838407cc11353cd9a99d80f804950068a6858891cd08e4009"),
    "norm2": (dict(k=3), 3, True, 8.0, "eca40f2b2c241153b6ee50bd521bd7f49959baad990da49e0355a2d8d9588f30"),
    "matmul_2x2": ({}, 8, False, 4.0, "5526b4a412748348cf57912bb9e60a3071820288e55d727d0d26043f2b7b66f1"),
    "product[4]": (dict(k=4), 4, True, 8.0, "0ec184914f446536e9248c1d0012c61f477e05406477d28daa03e4be5837897e"),
}


@pytest.mark.parametrize("tag", sorted(SAMPLED))
def test_sampled_kappa_unchanged(tag):
    kw, dim, signed, hi, digest = SAMPLED[tag]
    f = catalog_function(tag.split("[")[0], **kw)
    rep = kappa_sampled(f, _point(tag, dim, signed, hi), radii=(Fraction(1, 1000), Fraction(1, 10000)),
                        n_dirs=64, seed=7)
    assert _sha(repr(rep)) == digest


# SHA-256 of the coordinates of rel_sphere_sample then rel_ball_sample (8
# points each, 3 in 128 dimensions, seed 13) around a point and radius; a
# certified-real coordinate enters by its 256-bit enclosure
SAMPLER = {
    ("x[1]", "1/10000"): "d636cae93c36fd35f4e6e8a1607ce503cb94eb0324240885146c3972a9d04be2",
    ("x[1]", "1/8"): "ee8f6e005c6f983ed35d384cf38152599e99fa772a7dd5e4142f291314872ec5",
    ("x[1]", "1/2"): "c41f0857caae695bf8b55d280aeab25ce7df1d120571411c133b2a0dd2656a7d",
    ("x[3]", "1/10000"): "19be0eda4ff9abc6bcf662fa06eddf837e27edd83adb9a651d4988a05b449495",
    ("x[3]", "1/8"): "bc46312dfc24715ffe2b3ad424009a3fc64e8bf9532c98d937bcbbdb99fe51cf",
    ("x[3]", "1/2"): "db2a127be895414cb566f8f343ba5fd64562c11775c9f413305d06e58306ee79",
    ("signed[3]", "1/10000"): "4087c3563bb0cec7b0308e4b7e846cbd946ccecbf08aa848227d582b14bd02fe",
    ("signed[3]", "1/8"): "ba5c6004acf777dfd7c592faea8180a0e5ab3941d7a26f12dafd5158b9de696d",
    ("signed[3]", "1/2"): "a9609f2c01e04b1184d223abfa8a1ac53956917fa36c0a80909f4c874a09a648",
    ("real[3]", "1/10000"): "1c3d0f4d7a7d7b201443a8a75c9c15e8aa75e0d724803531b5b4ebd2e967adb9",
    ("real[3]", "1/8"): "c7802069f419635780bf4ecb99e10705f421f51e36a7f7e20c400082c4c5341c",
    ("real[3]", "1/2"): "a40f2ceec7cc42c37f35d315f64975191cbd732389df22d9dd384b87a7c06db5",
    ("signed[128]", "1/10000"): "684b5f90139b0fd6d55d3bb30c71d99fb3146d770dacb54f6db7c53e1c385fcd",
    ("signed[128]", "1/8"): "c7602405ead0c8fcde214f4acbb6f23a79e6f5108d5685574907880480098414",
    ("signed[128]", "1/2"): "05faed1d63a8b834b4f85c1e3a8558528599856a5bd09d0017af30f1b9fa3e28",
}


def _sampler_point(tag: str) -> RelPoint:
    if tag == "real[3]":
        return RelPoint.of(pi_real(), Fraction(-7, 5), -(pi_real() / 3))
    return _point(tag, int(tag.split("[")[1][:-1]), tag.startswith("signed"))


@pytest.mark.parametrize("tag,r", sorted(SAMPLER))
def test_sampler_coordinates_unchanged(tag, r):
    x = _sampler_point(tag)
    n = 3 if tag.endswith("[128]") else 8
    pts = rel_sphere_sample(x, Fraction(r), n, seed=13) + rel_ball_sample(x, Fraction(r), n, seed=13)
    text = repr([[(c.enclosure(256).lo, c.enclosure(256).hi) if isinstance(c, CertifiedReal) else c
                  for c in p.coords] for p in pts])
    assert _sha(text) == SAMPLER[tag, r]


# SHA-256 of the (lo, hi, scale) of step_enclosures(v, 1/2, bits) for the
# two 4-vectors of Strassen's draws [0, sample, 2, 0], samples 0-39, seed 5
STEPS = {
    56: "7e8ae78d2e14b1422d7afebb243397d12045357b13d5af13f37ca71772765417",
    85: "5ce28ca674ad4a3c9691b24c7ccf74d5228a3aabbeef2edc7403e72cfe86a2f4",
    145: "70bc6636676bf2e438681da8f144c9da7caad40776afdc20fe4853aceee23761",
}


@pytest.mark.parametrize("bits", sorted(STEPS))
def test_step_enclosures_unchanged(bits):
    at = philox_stream(5)
    out = []
    for si in range(40):
        draws = at([0, si, 2, 0]).standard_normal(8).tolist()
        for v in (draws[:4], draws[4:]):
            out.append([(e.lo, e.hi, e.scale) for e in step_enclosures(v, Fraction(1, 2), bits)])
    assert _sha(repr(out)) == STEPS[bits]


def _exp_ends_cases(bits: int) -> list[tuple[int, int]]:
    """Seeded endpoint pairs (lo, hi) at scale ``bits`` of exponents with |w|
    in [1/4, 1.2], so the reduction multiple n is -2 to 2: widths from 0 to 2
    (the widest split at their endpoints), and the edges at |w| = 1/4, near
    ln 2 / 2 (where n turns from 0 to 1), ln 2 and 1.2."""
    rng = random.Random(f"exp_ends-{bits}")
    one = 1 << bits
    out = []
    for w in (Fraction(1, 4), Fraction(0.34657359027997264), Fraction(0.6931471805599453), Fraction(6, 5)):
        m = math.floor(w * one)
        for s in (1, -1):
            out += [(s * m, s * m), (s * m - 1, s * m - 1), (s * m - 3, s * m + 3)]
    for _ in range(160):
        w = Fraction(rng.uniform(0.25, 1.2)) * rng.choice((-1, 1))
        lo = math.floor(w * one)
        width = rng.choice((0, 1, 3, rng.getrandbits(10), rng.getrandbits(bits // 2), one >> 3, one, 2 * one))
        out.append((lo, lo + width))
    return out


def _exp_fraction_cases() -> list[Fraction]:
    rng = random.Random("exp_iv-fractions")
    out = [Fraction(v) for v in (1, -1, 2, -3, 50, -80, 1000)] + [Fraction(2**61 + 1, 3), -Fraction(2**70, 7)]
    for _ in range(60):
        w = Fraction(rng.uniform(0.25, 1.2)).limit_denominator(rng.choice((7, 10**3, 10**9)))
        out.append(w * rng.choice((-1, 1)))
    return out


# SHA-256 of the (lo, hi, scale) of exp_ends(lo, hi, bits), exp_iv of the same
# Interval, of it at scales bits + 7 and bits - 5, and exp_iv of the
# Fraction cases, at each width
EXP_ENDS = {
    56: "88497118d7beb210b8ceef47f47ca393414cb2f6b3a1b4840629472d6def6778",
    85: "6134a8a303f5d01da17b2bc03d95e58d5d282957e92ea56960a2e5d2e0a9d0b8",
    145: "26557b80cd8a3120ff1565d0039094f6f7697080ad2a4518815b8500cdf300f1",
    176: "bb400388f5e407b2c41eb475699afb35ee9ba1863e9f125e4bfc9a611ce78cd5",
    200: "6080b332de8d63a32e0df27178cb824a1e677bde1cf08fbe1417fed4f4f73627",
}


@pytest.mark.parametrize("bits", sorted(EXP_ENDS))
def test_exp_enclosures_unchanged(bits):
    out = []
    for lo, hi in _exp_ends_cases(bits):
        for e in (exp_ends(lo, hi, bits), exp_iv(Interval(lo, hi, bits), bits),
                  exp_iv(Interval(lo << 7, (hi << 7) + 5, bits + 7), bits),
                  exp_iv(Interval(lo >> 5, -(-hi >> 5), bits - 5), bits)):
            out.append((e.lo, e.hi, e.scale))
    for w in _exp_fraction_cases():
        e = exp_iv(w, bits)
        out.append((e.lo, e.hi, e.scale))
    assert _sha(repr(out)) == EXP_ENDS[bits]


def _ratio_points(tag: str) -> list[tuple[RelPoint, RelPoint]]:
    """Seeded pairs of rational points whose ratios are mostly far from 1
    (up to 2**+-40), so their logs need the e ln 2 term; some coordinates are
    equal, near each other, zero in both, or of opposite signs."""
    rng = random.Random(tag)
    out = []
    for _ in range(80):
        xs, ys = [], []
        for _ in range(rng.randint(1, 4)):
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            kind = rng.random()
            if kind < 0.1:
                b = a
            elif kind < 0.3:
                b = a * Fraction(10**6 + rng.randint(-999, 999), 10**6)
            elif kind < 0.35:
                a = b = Fraction(0)
            else:
                b = a * Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * Fraction(2) ** rng.randint(-30, 30)
            s = rng.choice((1, -1))
            xs.append(s * a)
            ys.append(-s * b if rng.random() < 0.03 else s * b)
        out.append((RelPoint(xs), RelPoint(ys)))
    out.append((RelPoint.of(pi_real(), Fraction(3, 7)), RelPoint.of(pi_real() * 3, Fraction(-22, -7))))
    out.append((RelPoint.of(-pi_real(), 5), RelPoint.of(-(pi_real() / 1000), Fraction(5, 2**20))))
    return out


def _scaled_cases(tag: str) -> list[tuple[list[int], list[int], int]]:
    """Seeded integer vectors of four entries on one binary scale: equal,
    near, far apart (up to 2**+-40), and now and then zero or of opposite
    signs."""
    rng = random.Random(tag)
    out = []
    for _ in range(80):
        xs, ys = [], []
        for _ in range(4):
            a = rng.getrandbits(rng.choice((4, 30, 60))) | 1
            kind = rng.random()
            b = a if kind < 0.2 else a + rng.randint(-a // 2, 9) if kind < 0.4 else \
                max((a * rng.getrandbits(20)) >> rng.randint(0, 40), 1)
            s = 0 if kind > 0.98 else rng.choice((1, -1))
            xs.append(s * a)
            ys.append(-s * b if kind > 0.97 else s * b)
        out.append((xs, ys, rng.randint(-80, 80)))
    return out


def _iv_repr(d):
    return (d.lo, d.hi, d.scale) if isinstance(d, Interval) else d


# SHA-256 of rel_dist (at 192 and 336 bits) and abs_dist over the seeded point
# pairs, then of the two enclosures scaled_dists gives for the integer cases
REL_DISTS = (
    "063e662e3cbadc1abb089943eb3562c4dfc8f98f2211996e3754a61c9d53e587",
    "b57e31cc96447727b7f02321c02f02364f21b24c3860f77691e221c6a7413292",
)


def test_rational_distances_unchanged():
    dists = [(rel_dist(x, y), rel_dist(x, y, bits=336), abs_dist(x, y)) for x, y in _ratio_points("rel-pins")]
    scaled = [tuple(map(_iv_repr, scaled_dists(xs, ys, k))) for xs, ys, k in _scaled_cases("scaled-pins")]
    assert (_sha(repr(dists)), _sha(repr(scaled))) == REL_DISTS


def _expression(rng: random.Random, depth: int) -> tuple[str, float, float]:
    """(text, lg, top) of a seeded point expression nested at most ``depth``
    deep: pi, small rationals and decimals, 2^k for |k| <= 64, + - * /, unary
    minus, and integer powers, mostly with |j| <= 3 and now and then 400 <=
    |j| <= 1200, which the budget refuses on a certified base.  lg is a rough
    log2 of the magnitude that ignores cancellation, and top the largest lg
    of the expression and its parts."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(4)
        if kind == 0:
            text, lg = "pi", math.log2(math.pi)
        elif kind == 1:
            p, q = rng.randint(1, 99), rng.randint(1, 99)
            text, lg = f"{p}/{q}", math.log2(p / q)
        elif kind == 2:
            k = rng.randint(-64, 64)
            text, lg = f"2^{k}", k
        else:
            d, e = rng.randint(0, 20), rng.randint(-5, 5)
            text, lg = f"{d}e{e}", math.log2(d) + e * math.log2(10) if d else 0
        return text, lg, lg
    a, la, ta = _expression(rng, depth - 1)
    kind = rng.random()
    if kind < 0.12:
        return f"-({a})", la, ta
    if kind < 0.3:
        j = rng.randint(-3, 3) if rng.random() < 0.9 else rng.choice((-1, 1)) * rng.randint(400, 1200)
        return f"({a})^{j}", j * la, max(ta, j * la)
    c, lc, tc = _expression(rng, depth - 1)
    op = rng.choice("+-*/")
    lg = {"+": max(la, lc), "-": max(la, lc), "*": la + lc, "/": la - lc}[op]
    return f"({a}){op}({c})", lg, max(ta, tc, lg)


def point_expressions(seed: str, n: int) -> list[str]:
    """n seeded points of one or two coordinates from :func:`_expression` at
    depth 5.  Each coordinate's rough magnitude is above 2**-15000, since the
    CLI refuses a certified coordinate below 2**-16384, which it cannot
    sign; and none of its parts is above 2**4096, whose products would
    take seconds."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        coords = [_expression(rng, 5) for _ in range(rng.randint(1, 2))]
        if all(lg > -15000 and top < 4096 for _, lg, top in coords):
            out.append(",".join(text for text, _, _ in coords))
    return out


def point_outcome(text: str) -> list[str]:
    """The coordinates of a point as the CLI reads them, before their signs
    are taken: each rational's parts and each certified value's (lo, hi,
    scale) at 0, 64 and 256 bits, in hex, up to the first ExprError message
    or the name of the first other error."""
    budget = cli._Budget()
    out = []
    for part in text.split(","):
        try:
            v = cli._coordinate(part, budget)
        except cli.ExprError as e:
            return out + [str(e)]
        except (ArithmeticError, ValueError) as e:
            return out + [type(e).__name__]
        if isinstance(v, Fraction):
            out.append(f"{v.numerator:x}/{v.denominator:x}")
            continue
        for bits in (0, 64, 256):
            try:
                iv = v.enclosure(bits)
            except (ArithmeticError, ValueError) as e:
                out.append(type(e).__name__)
                break
            out.append(f"{iv.lo:x} {iv.hi:x} {iv.scale}")
    return out


# SHA-256 of repr of the point_outcome of 400 seeded point expressions
POINT_EXPRESSIONS = "0c373787280b320c1a3d15abb41b132f83d36b165ed57d1e7405765d956c1be4"


def test_point_expression_outcomes_unchanged():
    outcomes = [point_outcome(text) for text in point_expressions("point-expressions", 400)]
    assert _sha(repr(outcomes)) == POINT_EXPRESSIONS


# SHA-256 of repr(kappa_sampled(...)) with 32 directions at seed 3, on paths
# that no other report takes: probes that leave sqrt's domain near a zero
# sum, a schedule of one radius, and a map of two coordinates that does not
# run on boxes (sin raises TypeError on an Interval)
SAMPLED_PATHS = {
    "domain": ("sqrt", (1, Fraction(-9999, 10000)), (Fraction(1, 1000), Fraction(1, 10000)),
               "31dabe3e1625737a4381539fb74af8394ce03b7d6fd05cf066db9d6170a54e08"),
    "one radius": ("sqrt", (1, 2), (Fraction(1, 1000),),
                   "35ac0cbe8af2028fba99958f81d2c55f3b13c026f4e888f5983686cee95b57ee"),
    "no boxes": ("sin", (1, 2), (Fraction(1, 1000), Fraction(1, 10000)),
                 "9dca1595d3c21d0e44fc69594f4ef4dca024614b9a416e59875c94b2ca2d1a14"),
}


@pytest.mark.parametrize("tag", sorted(SAMPLED_PATHS))
def test_sampled_paths_unchanged(tag):
    g, x, radii, digest = SAMPLED_PATHS[tag]
    f = compose(catalog_function(g), catalog_function("summation", k=2))
    rep = kappa_sampled(f, RelPoint(x), radii=radii, n_dirs=32, seed=3)
    assert (rep.domain_failures > 0) == (tag == "domain")
    if tag == "one radius":  # kappa is the one level's estimate, unconverged
        assert not rep.converged
    if tag == "no boxes":  # a rational x, two coordinates and no domain: boxes are tried first
        assert not f.restricts
        with pytest.raises(TypeError):
            f.exact((Interval(1, 2, 0), Interval(1, 2, 0)))
    assert _sha(repr(rep)) == digest
