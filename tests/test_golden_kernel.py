"""Golden determinism gate for the exact linear-algebra kernel and the
decomposition engine.

Each case runs a fixed set of constructions over Q and GF(32003) and hashes
(sha256) every matrix they produce, in a fixed order, through `Mat.fmt()`.
The kernel digests were recorded on the Fraction-arithmetic kernel that
preceded the fraction-free one.  A change to the kernel may make it faster,
never change a matrix: RREF, null-space, solution and quotient bases are
canonical.

The `decomp` cases hash the certificate and every summand witness of
`is_indecomposable`, `split_indecomposable_parts` and `decompose` on a fixed
corpus; their digests were recorded while the splitting search still ran
before the locality certificate.  Moving a certificate earlier may not
change a verdict, a certificate or a witness.  Over small prime fields a
local module may move from the exhaustive certificate to an earlier one, so
those fields hash split modules only.

The `stage_maps` case hashes, at every stage of three chessboards, the
epimorphism H[n] -> H, the composed inclusion H[1] -> H[n] and the cokernel
identification coker(w_(n-1)) -> H; its digests were recorded while each
stage still rebuilt these composites from every earlier stage.

The `split` cases hash the retractions and sections of `is_split_mono` and
`is_split_epi`, and the ladder seeds, classes and quotient seeds that solve
inside a hom space; their digests were recorded while splitness still had
its own commutation-system solver.

The `rung_degeneration` case hashes `cokernel_degeneration` on a random
Kronecker seed, whose hom spaces between ladder rungs are the largest
systems of the suite; its digests were recorded while row reduction still
took the first nonzero row as the pivot and cleared by Gauss-Jordan.

To re-derive a digest after an intended change of output, print
`_digest(CASES[name](field))` for the case and field.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from quivrep import fixtures as fx
from quivrep import suites
from quivrep.algebra import projective
from quivrep.decomp import SummandData, decompose, is_indecomposable, split_indecomposable_parts
from quivrep.degen import (
    DegenerationCertificate,
    RZSequence,
    check_rz,
    cokernel_degeneration,
    make_steering_nilpotent,
    rz_to_prufer,
)
from quivrep.ladder import (
    Ladder,
    Truncation,
    build_ladder,
    chessboard,
    ladder_extension,
    ladder_seed_from_simple,
)
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import ModHom, Rep, cokernel, cokernel_data, direct_sum, hom_space, socle
from quivrep.selfext import (
    ExtClass,
    Presentation,
    class_to_sequence,
    ext1,
    ext_class_of_sequence,
    reduced_presentation_seed,
    standard_subspace,
    standard_to_ladder,
)
from quivrep.squares import ShortExact, Square, is_split_epi, is_split_mono

FIELDS = {"QQ": QQ, "GF3": GF(3), "GF32003": GF(32003)}


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
    elif isinstance(obj, SummandData):
        _walk([obj.rep, obj.incl, obj.proj], out)
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


def case_rung_degeneration(field):
    """`cokernel_degeneration` on the `random_kronecker` seed: hom spaces
    between the rungs U_n, the largest system 540 x 576."""
    w0, v0 = _random_seed(fx.kronecker(field), "bb", "aaa", random.Random(2718))
    return list(cokernel_degeneration(w0, v0))


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


def _decomp_run(m):
    return [m, is_indecomposable(m), split_indecomposable_parts(m), decompose(m)]


def _split_modules(field):
    """Direct sums of the decomposition tests, and the D4 module U_2."""
    alg = fx.kronecker(field)
    w0, v0 = fx.kronecker_regular_seed(alg)
    h = cokernel(w0)[0]
    pa, pb = projective(alg, "a")[0], projective(alg, "b")[0]
    sums = [[h, h], [h, pa], [pb, h], [h, pa, pb, h], [h, pa, pb], [h, pa, h], [h, h, pa]]
    mods = [direct_sum(parts)[0] for parts in sums]
    mods.append(build_ladder(w0, w0.scale(field.conv(2)), depth=3).truncation(3).rep)
    d4 = fx.d4_subspace(field)
    dw0, dv0 = fx.d4_seed(d4)
    mods.append(build_ladder(dw0, dv0, depth=2).modules[2])
    return mods


def case_decomp(field):
    """Kronecker H[1..6], split modules, a number-field brick, random modules."""
    alg = fx.kronecker(field)
    w0, v0 = fx.kronecker_regular_seed(alg)
    lad = build_ladder(w0, v0, depth=6)
    mods = [lad.truncation(n).rep for n in range(1, 7)] + _split_modules(field)
    brick = Rep(
        alg,
        {"a": 2, "b": 2},
        {"alpha": Mat(field, [[1, 0], [0, 1]]), "beta": Mat(field, [[0, -1], [1, 0]])},
    )
    mods += [brick, direct_sum([brick, brick])[0]]
    rng = random.Random(4242)
    algs = [
        alg,
        fx.three_kronecker(field),
        fx.d4_subspace(field),
        fx.commuting_square_tower(field),
        fx.loop_beta(field),
    ]
    for i in range(20):
        mods.append(suites._random_module(algs[i % len(algs)], rng))
    return [_decomp_run(m) for m in mods]


def case_decomp_split(field):
    """Only split modules: over small fields a local module's certificate may move."""
    return [_decomp_run(m) for m in _split_modules(field)]


def case_stage_maps(field):
    """`pi_to_h`, `h1_incl` and the iso coker(w_{n-1}) -> H that `pi_to_h`
    induces, at every stage of the horizontal and vertical ladders of a
    Kronecker, D4 and tower chessboard."""
    seeds = [
        fx.kronecker_regular_seed(fx.kronecker(field)),
        fx.d4_seed(fx.d4_subspace(field)),
        _random_seed(fx.commuting_square_tower(field), "c", "ab", random.Random(1414)),
    ]
    out = []
    for w0, v0 in seeds:
        for lad in chessboard(w0, v0, depth=3):
            for n in range(1, lad.depth + 1):
                t = lad.truncation(n)
                ident = cokernel_data(lad.w_maps[n - 1]).induce_from(t.proj.then(t.pi_to_h))
                out += [t.pi_to_h, t.h1_incl, ident]
    return out


def _one_sided_inverses(f):
    """The retraction and the section of f, and the section of its cokernel
    projection (None where none exists)."""
    out = [is_split_mono(f), is_split_epi(f)]
    out.append(is_split_epi(cokernel(f)[1]))
    return out


def _split_witnesses(field):
    """One-sided inverses of seeded random monos and of direct-sum maps."""
    rng = random.Random(9001)
    algs = [
        fx.kronecker(field),
        fx.three_kronecker(field),
        fx.d4_subspace(field),
        fx.commuting_square_tower(field),
        fx.loop_beta(field),
        fx.loop_square(field),
    ]
    out = []
    for i in range(60):
        alg = algs[i % len(algs)]
        m = suites._random_module(alg, rng, maxdim=2)
        n = suites._random_module(alg, rng, maxdim=2)
        total, injs, projs = direct_sum([m, n])
        for f in injs:
            out += [is_split_mono(f), is_split_epi(f)]
        for p in projs:
            out += [is_split_mono(p), is_split_epi(p)]
        for tgt in (total, n):
            f = suites._random_mono(m, tgt, rng)
            out += [None] if f is None else [f, _one_sided_inverses(f)]
    return out


def _selfext_seeds(field):
    """Ladder seeds from simples, standard seeds, classes of sequences and
    reduced presentation seeds on the Kronecker, loop and tower fixtures."""
    out = []
    kron = fx.kronecker(field)
    w0, _ = fx.kronecker_regular_seed(kron)
    h = cokernel(w0)[0]
    pres = Presentation(h)
    _, classes = ext1(h, h, pres)
    s_incl = socle(h).inclusion_rep()[1]
    zero = ExtClass(h, h, ModHom.zero_hom(pres.omega, h), pres)
    for c in classes + [zero]:
        out.append(ladder_seed_from_simple(class_to_sequence(c), s_incl))
        u, wprime = standard_to_ladder(c)
        ext, _ = ladder_extension(pres.p, wprime)
        out += [u, wprime, ext_class_of_sequence(ext, pres)]
        out.append(reduced_presentation_seed(c))
    sq = fx.loop_square(field)
    s = Rep.simple(sq, "v")
    for c in ext1(s, s)[1]:
        out.append(ladder_seed_from_simple(class_to_sequence(c), ModHom.identity(s)))
    tower = fx.commuting_square_tower(field)
    ht = Rep(tower, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    loop = fx.loop_beta(field)
    hl = Rep(
        loop,
        {"a": 1, "b": 2},
        {"alpha": Mat(field, [[1], [0]]), "beta": Mat(field, [[0, 0], [1, 0]])},
    )
    for m in (ht, hl):
        pres_m = Presentation(m)
        for c in ext1(m, m, pres_m)[1]:
            seed = reduced_presentation_seed(c)
            out.append(seed)
            out.append(ext_class_of_sequence(class_to_sequence(c), pres_m))
            if seed is not None:
                out.append(ext_class_of_sequence(ladder_extension(*seed)[0], pres_m))
    return out


def case_split(field):
    """Split witnesses and the seeds that are solved inside a hom space."""
    return [_split_witnesses(field), _selfext_seeds(field)]


CASES = {
    "kronecker": case_kronecker,
    "random_kronecker": case_random_kronecker,
    "rung_degeneration": case_rung_degeneration,
    "random_tower": case_random_tower,
    "random_loop": case_random_loop,
    "d4": case_d4,
    "rz": case_rz,
    "corpus": case_corpus,
    "decomp": case_decomp,
    "decomp_split": case_decomp_split,
    "split": case_split,
    "stage_maps": case_stage_maps,
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
    ("rung_degeneration", "QQ"):
        "1378671a9e28a4d9e1e0bf5b94f6e37eea110392ae46a55c06491a6bf3b7a5e7",
    ("rung_degeneration", "GF32003"):
        "aaaac33c95607160008d1dcf33d937f932d1b2ce518f80428aafa538c90e01ec",
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
    ("decomp", "QQ"):
        "3158fd2cf18bda8d7e6f1804391ad9f9827619ad09316203e0a0f43f5bd1bd70",
    ("decomp_split", "GF3"):
        "6c17737ce802dd5ef29ac2e7b60752ef955b62748347d20469a7371676a305c2",
    ("decomp_split", "GF32003"):
        "35cea0e2122bdd090949026b7e3897405c6d25620612d12793bb6b0f2f5e7981",
    ("split", "QQ"):
        "f28a9944164879ce7a7d1690de2c0a6b19e6911ca3b022d385519ba8ac36ec3c",
    ("split", "GF3"):
        "c825a4aed283495079d8233748917cad2ee4e69e70d142d5ebf0616c216a9aa5",
    ("split", "GF32003"):
        "7b99a2f3639921e3477b7849d3b2b63f8ea7df33ef0c13c184e1e1cfbaa34e53",
    ("stage_maps", "QQ"):
        "dc41fee46c48b0a2191af47fb57298084b3eeec49d34e501e49c17e830458fb4",
    ("stage_maps", "GF3"):
        "36eba3a29bc7f0675b6a697dbf9fff304ab9f243e1b9a2c7b703d4a1b7d68f6c",
    ("stage_maps", "GF32003"):
        "3c521aa9ace16637d16a262b71bf0b9213cfa63cfdf432c827ac13ed96fcaa51",
}


@pytest.mark.parametrize("case,field", sorted(GOLDEN))
def test_golden_digest(case, field):
    assert _digest(CASES[case](FIELDS[field])) == GOLDEN[(case, field)]
