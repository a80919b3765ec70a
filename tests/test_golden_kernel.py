"""Golden determinism gate for the exact linear-algebra kernel.

Each case runs a fixed set of constructions over Q and GF(32003) and hashes
(sha256) every matrix they produce, in a fixed order, through `Mat.fmt()`.
The expected digests were recorded on the Fraction-arithmetic kernel that
preceded the fraction-free one.  A change to the kernel may make it faster,
never change a matrix: RREF, null-space, solution and quotient bases are
canonical.

To re-derive a digest after an intended change of output, print
`_digest(CASES[name](field))` for the case and field.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from quivrep import fixtures as fx
from quivrep.algebra import projective
from quivrep.degen import (
    DegenerationCertificate,
    RZSequence,
    check_rz,
    cokernel_degeneration,
    make_steering_nilpotent,
    rz_to_prufer,
)
from quivrep.ladder import Ladder, Truncation, build_ladder, chessboard
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import ModHom, Rep, cokernel, direct_sum, hom_space
from quivrep.selfext import ExtClass, Presentation, ext1, standard_subspace
from quivrep.squares import ShortExact, Square

FIELDS = {"QQ": QQ, "GF32003": GF(32003)}


def _walk(obj, out):
    """Append every matrix reachable from `obj` to `out`, in a fixed order."""
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj))
    elif isinstance(obj, Mat):
        out.append("%dx%d:%r" % (obj.nrows, obj.ncols, obj.fmt()))
    elif isinstance(obj, dict):
        for k in sorted(obj):
            out.append(repr(k))
            _walk(obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _walk(x, out)
    elif isinstance(obj, Rep):
        _walk([obj.dims, obj.action], out)
    elif isinstance(obj, ModHom):
        _walk(obj.blocks, out)
    elif isinstance(obj, Ladder):
        _walk([obj.modules, obj.w_maps, obj.v_maps], out)
    elif isinstance(obj, Truncation):
        _walk([obj.rep, obj.proj, obj.phi, obj.incl, obj.pi_to_h], out)
    elif isinstance(obj, Square):
        _walk([obj.x, obj.y1, obj.y2, obj.z, obj.f, obj.g, obj.gp, obj.fp], out)
    elif isinstance(obj, ShortExact):
        _walk([obj.i, obj.p], out)
    elif isinstance(obj, RZSequence):
        _walk([obj.u, obj.x, obj.y, obj.mono, obj.epi, obj.steering], out)
    elif isinstance(obj, DegenerationCertificate):
        _walk([obj.rz, obj.index, obj.ladder, obj.h1_to_y], out)
    elif isinstance(obj, ExtClass):
        _walk(obj.representative, out)
    elif isinstance(obj, Presentation):
        _walk([obj.p_total, obj.p, obj.omega, obj.u], out)
    else:
        raise TypeError("no golden walk for %r" % type(obj).__name__)


def _digest(obj):
    out = []
    _walk(obj, out)
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def _random_hom(m, n, rng, span=3):
    field = m.algebra.field
    out = ModHom.zero_hom(m, n)
    for b in hom_space(m, n):
        c = field.random(rng, span)
        if c != field.zero():
            out = out + b.scale(c)
    return out


# ------------------------------------------------------------------ cases


def case_kronecker(field):
    alg = fx.kronecker(field)
    w0, v0 = fx.kronecker_regular_seed(alg)
    lad = build_ladder(w0, v0, depth=4)
    truncs = [lad.truncation(n) for n in range(1, 5)]
    board = chessboard(w0, v0, depth=3)
    h = cokernel(w0)[0]
    pres = Presentation(h)
    dim_e, classes = ext1(h, h, pres)
    dim_s, std = standard_subspace(h, pres)
    return [lad, truncs, board, pres, dim_e, classes, dim_s, std]


def _random_seed(alg, tops0, tops1, rng):
    """Random injective (w0, v0): P(tops0) -> P(tops1), sums of projectives."""

    def total(tops):
        parts = [projective(alg, v)[0] for v in tops]
        return parts[0] if len(parts) == 1 else direct_sum(parts)[0]

    u0, u1 = total(tops0), total(tops1)
    while True:
        w0, v0 = _random_hom(u0, u1, rng), _random_hom(u0, u1, rng)
        if w0.is_injective() and v0.is_injective() and not cokernel(w0)[0].is_zero():
            return w0, v0


def _ladder_run(w0, v0, depth):
    lad = build_ladder(w0, v0, depth=depth)
    truncs = [lad.truncation(n) for n in range(1, depth + 1)]
    h = cokernel(w0)[0]
    pres = Presentation(h)
    return [w0, v0, lad, truncs, pres, ext1(h, h, pres), standard_subspace(h, pres)]


def case_random_kronecker(field):
    """A random seed P(b)^2 -> P(a)^3, whose quotients have non-integer bases."""
    w0, v0 = _random_seed(fx.kronecker(field), "bb", "aaa", random.Random(2718))
    return [_ladder_run(w0, v0, 4), chessboard(w0, v0, depth=3)]


def case_random_tower(field):
    """A random seed P(c) -> P(a) + P(b) on the commuting-square tower."""
    w0, v0 = _random_seed(fx.commuting_square_tower(field), "c", "ab", random.Random(1414))
    return _ladder_run(w0, v0, 3)


def case_random_loop(field):
    """A random seed P(b) -> P(a) + P(b) on the loop-beta algebra."""
    w0, v0 = _random_seed(fx.loop_beta(field), "b", "ab", random.Random(1732))
    return _ladder_run(w0, v0, 3)


def case_d4(field):
    alg = fx.d4_subspace(field)
    w0, v0 = fx.d4_seed(alg)
    lad = build_ladder(w0, v0, depth=3)
    truncs = [lad.truncation(n) for n in range(1, 4)]
    rz, n0 = cokernel_degeneration(w0, v0)
    return [lad, truncs, rz, n0]


def case_rz(field):
    """A random RZ sequence on the Kronecker quiver through `rz_to_prufer`."""
    rng = random.Random(1618)
    alg = fx.kronecker(field)
    pa, pb = projective(alg, "a")[0], projective(alg, "b")[0]
    u = direct_sum([pb, pb])[0]
    x = pa
    mid = direct_sum([x, u])[0]
    while True:
        mono = _random_hom(u, mid, rng, span=2)
        if mono.is_injective():
            break
    y, epi = cokernel(mono)
    rz = make_steering_nilpotent(check_rz(u, x, y, mono, epi))
    return [rz, rz_to_prufer(rz, depth=4)]


def _random_matrix(field, rng, nrows, ncols, rank, big):
    """A nrows x ncols matrix of rank <= `rank` with fractional entries."""

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 10**6 if big else 7))

    left = Mat(field, [[frac() for _ in range(rank)] for _ in range(nrows)], nrows, rank)
    right = Mat(field, [[frac() for _ in range(ncols)] for _ in range(rank)], rank, ncols)
    return left * right


def case_corpus(field):
    """Seeded rref / null_space / solve_right / inverse calls."""
    rng = random.Random(31415)
    out = []
    for i in range(120):
        big = i % 3 == 0
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        a = _random_matrix(field, rng, m, n, rng.randint(0, min(m, n) + 1), big)
        rank, pivots, red = a.rref()
        out += [a, rank, pivots, red, a.null_space(), a.column_space()]
        b = _random_matrix(field, rng, m, rng.randint(0, 3), rng.randint(0, 2), big)
        out.append(a.solve_right(b))
        out.append(a.solve_right(a * _random_matrix(field, rng, n, 2, 2, big)))
        k = rng.randint(0, 7)
        sq = _random_matrix(field, rng, k, k, max(k - rng.randint(0, 1), 0), big)
        out += [sq, sq.inverse()]
    return out


CASES = {
    "kronecker": case_kronecker,
    "random_kronecker": case_random_kronecker,
    "random_tower": case_random_tower,
    "random_loop": case_random_loop,
    "d4": case_d4,
    "rz": case_rz,
    "corpus": case_corpus,
}

GOLDEN = {
    ("kronecker", "QQ"):
        "8dfdd41125140bfd8cdecef94e9db48fb89bb8e9b2149420cd8245a10b070c24",
    ("kronecker", "GF32003"):
        "8dfdd41125140bfd8cdecef94e9db48fb89bb8e9b2149420cd8245a10b070c24",
    ("random_kronecker", "QQ"):
        "f72a8662f2806e1716b2a69a2bbafece9a342747838222825931c10569b21812",
    ("random_kronecker", "GF32003"):
        "2110d8623101c435f746df4131d9b80af9c603f6466a56883cb5ca3608466c4d",
    ("random_tower", "QQ"):
        "bc0b9dcf12d10dc84cffc73f9d26dbbe2ef822696642a88de3a0bf76087d8223",
    ("random_tower", "GF32003"):
        "dcea74a3f990004ee0f380e01a0e2fb107aa1fa050cadbb1f5b14c8ff34d1703",
    ("random_loop", "QQ"):
        "5f40dd6f53f93d01d397d7660ef4db58c0861fd748ed39b3c6a7d5e37b09a030",
    ("random_loop", "GF32003"):
        "0776fbb68bb34191939a87db9dd327b49f40765eef5fc06e9b7ef3904a567d5f",
    ("d4", "QQ"):
        "3012db590ae7dbe178639cbcfa02eca92349aed932ad702a5c6da7e328c17d7c",
    ("d4", "GF32003"):
        "6e87b9dffd7cda2dddfcfd56f0a990feb81af3f541193b27bc08288a56f767a1",
    ("rz", "QQ"):
        "6dd6c8964443a0bd41945c7ebbacd172fef489efae7e57fd7599e5b08226e144",
    ("rz", "GF32003"):
        "1ac8f2e09b9bffcfed9762f6d25bc58072c5f366eb1875f3c0301c80be6b2777",
    ("corpus", "QQ"):
        "82e31a4a2c9452008392b355a4848d2055412a03aadc84afae9c23471b0a674e",
    ("corpus", "GF32003"):
        "2895882502dbcf795a377dc4a3428b5273a0d89929208a0664bfe15c398cb5a4",
}


@pytest.mark.parametrize("case,field", sorted(GOLDEN))
def test_golden_digest(case, field):
    assert _digest(CASES[case](FIELDS[field])) == GOLDEN[(case, field)]
