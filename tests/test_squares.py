import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivrep import suites
from quivrep.errors import EdgeMismatch, NotExact
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import ModHom, Rep, cokernel, direct_sum, hom_space
from quivrep.squares import (
    ShortExact,
    Square,
    compose_squares,
    is_exact_square,
    is_split_epi,
    is_split_mono,
    pullback,
    pushout,
    pushout_factor,
    square_sequence,
    trivial_square,
)
from quivrep.zladder import z_pushout_of_multiplications
from quivrep import fixtures as fx
from test_block_maps import _draw


def test_pushout_along_identity(kron_seed, kron_projectives):
    w0, _ = kron_seed
    pa, pb = kron_projectives
    sq = pushout(w0, ModHom.identity(pb))
    assert sq.z.dims == pa.dims
    assert sq.gp.is_isomorphism()


def test_pushout_kronecker_dims(kron_seed):
    w0, v0 = kron_seed
    sq = pushout(w0, v0)
    assert sq.z.dims == {"a": 2, "b": 3}
    assert is_exact_square(sq)


def test_pushout_integer_shadow():
    # the same gluing computed through Smith normal form
    assert z_pushout_of_multiplications(2, 3).describe() == "Z"


def test_pullback_along_identity(kron_seed):
    w0, _ = kron_seed
    sq = pullback(w0, ModHom.identity(w0.target))
    assert sq.x.dims == w0.source.dims


def test_pullback_of_surjections_dims(kron_seed, kron_projectives):
    w0, v0 = kron_seed
    pa, _ = kron_projectives
    c, proj = cokernel(w0)
    c2, proj2 = cokernel(v0)
    # pull back two surjections onto the same simple quotient of H
    from quivrep.rep import radical, quotient, top

    t, tp = top(c)
    sq = pullback(proj.then(tp), proj.then(tp))
    for v in pa.dims:
        assert sq.x.dims[v] == 2 * pa.dims[v] - t.dims[v]


def test_exact_square_zero_corners(kronecker):
    zero = Rep.zero(kronecker)
    zh = ModHom.zero_hom(zero, zero)
    sq = Square(zero, zero, zero, zero, zh, zh, zh, zh)
    assert is_exact_square(sq)


def test_exactness_failures_name_the_vertex(kron_regular):
    h = kron_regular
    zero = Rep.zero(h.algebra)
    v = next(iter(h.dims))
    ident, kill = ModHom.identity(h), ModHom.zero_hom(h, h)
    cases = [
        ((h, h, h, kill, ident), "inclusion not injective at vertex %s (rank 0 of %d)"
         % (v, h.dims[v])),
        ((zero, h, h, ModHom.zero_hom(zero, h), kill),
         "projection not surjective at vertex %s (rank 0 of %d)" % (v, h.dims[v])),
        ((zero, h, zero, ModHom.zero_hom(zero, h), ModHom.zero_hom(h, zero)),
         "middle exactness fails at vertex %s: rank(i)=0, rank(p)=0, dim=%d" % (v, h.dims[v])),
    ]
    for (a, b, c, i, p), message in cases:
        with pytest.raises(NotExact) as err:
            ShortExact(a, b, c, i, p)
        assert str(err.value) == message
        # the same sequence as the square a -> b, a -> 0 over b -> c, 0 -> c
        sq = Square(a, b, zero, c, i, ModHom.zero_hom(a, zero), p, ModHom.zero_hom(zero, c))
        assert not is_exact_square(sq)


def test_exact_square_middle_failure(kron_regular):
    h = kron_regular
    ident = ModHom.identity(h)
    zero_map = ModHom.zero_hom(h, h)
    sq = Square(h, h, h, h, zero_map, zero_map, ident, ident)
    assert sq.commutes()
    assert not is_exact_square(sq)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_a_square_that_passes_the_ranks_but_does_not_commute_is_not_exact(field):
    # the simple S at a: [1; 1] is injective, [1, 1] surjective, and the ranks
    # add up to dim S + S, but 1.1 != 1.(-1), so the composite is 2, not 0
    s = Rep.simple(fx.kronecker(field), "a")
    one = ModHom.identity(s)
    sq = Square(s, s, s, s, one, one, one, -one)
    assert not sq.commutes()
    assert not is_exact_square(sq)
    with pytest.raises(NotExact, match="^composite i;p nonzero$"):
        square_sequence(sq)


def test_compose_with_identity_square(kron_seed):
    w0, v0 = kron_seed
    sq = pushout(w0, v0)
    ident_sq = Square(
        sq.y1,
        sq.y1,
        sq.z,
        sq.z,
        ModHom.identity(sq.y1),
        sq.gp,
        sq.gp,
        ModHom.identity(sq.z),
    )
    comp = compose_squares(sq, ident_sq, "horizontal")
    assert comp.f == sq.f
    assert comp.fp == sq.fp
    assert is_exact_square(comp)


def test_compose_rungs_exact(kron_seed):
    w0, v0 = kron_seed
    sq1 = pushout(w0, v0)
    sq2 = pushout(sq1.fp, sq1.gp)
    # sq2's left edge is sq1's right edge up to orientation: build the
    # horizontal neighbour explicitly instead
    sqr = pushout(ModHom.identity(sq1.y1), sq1.gp)
    comp = compose_squares(sq1, sqr, "horizontal")
    assert is_exact_square(comp)
    with pytest.raises(EdgeMismatch):
        compose_squares(sq1, sq1, "horizontal")


def test_vertical_composition(kron_seed):
    w0, v0 = kron_seed
    sq = pushout(w0, v0)
    sqd = pushout(sq.fp, ModHom.identity(sq.y2))
    # vertical: lower square's top must equal upper square's bottom
    comp = compose_squares(sq, sqd, "vertical")
    assert is_exact_square(comp)


def test_trivial_square_zero_map(kronecker, kron_regular):
    zero = Rep.zero(kronecker)
    a = ModHom.zero_hom(zero, zero)
    sq = trivial_square(a, zero)
    assert is_exact_square(sq)


def test_trivial_square_identity(kron_regular, kron_projectives):
    pa, _ = kron_projectives
    sq = trivial_square(ModHom.identity(kron_regular), pa)
    assert is_exact_square(sq)


def test_trivial_square_general(kron_seed, kron_projectives):
    w0, _ = kron_seed
    pa, _ = kron_projectives
    sq = trivial_square(w0, pa)
    assert is_exact_square(sq)


def test_split_mono_identity(kron_regular):
    r = is_split_mono(ModHom.identity(kron_regular))
    assert r == ModHom.identity(kron_regular)


def test_split_mono_projective_inclusion_fails(kron_seed):
    w0, _ = kron_seed
    assert is_split_mono(w0) is None


def test_split_epi_section(kron_projectives):
    pa, pb = kron_projectives
    s, injs, projs = direct_sum([pa, pb])
    sec = is_split_epi(projs[0])
    assert sec is not None
    assert sec.then(projs[0]) == ModHom.identity(pa)


def test_d4_w1_does_not_split(d4_seed):
    from quivrep.ladder import build_ladder

    w0, v0 = d4_seed
    lad = build_ladder(w0, v0, depth=2)
    assert is_split_mono(lad.w_maps[1]) is None


def test_zero_leg_square_gives_split_mono(kron_seed, kron_projectives):
    w0, _ = kron_seed
    pa, pb = kron_projectives
    sq = pushout(w0, ModHom.zero_hom(pb, pa))
    assert is_split_mono(sq.fp) is not None


def test_split_leg_square_sequence_splits(kron_seed, kron_projectives):
    w0, _ = kron_seed
    pa, _ = kron_projectives
    sq = trivial_square(w0, pa)
    seq = square_sequence(sq)
    assert is_split_epi(seq.p) is not None
    assert is_split_mono(seq.i) is not None


def test_random_pushout_compositions_exact(kronecker):
    rng = random.Random(3)
    pa_pb = [Rep.simple(kronecker, "a"), Rep.simple(kronecker, "b")]
    from quivrep.suites import _random_hom, _random_module, _random_mono

    count = 0
    while count < 25:
        x = _random_module(kronecker, rng, 2)
        y1 = _random_module(kronecker, rng, 3)
        w = _random_mono(x, y1, rng)
        if w is None:
            continue
        v = _random_hom(x, _random_module(kronecker, rng, 2), rng)
        sq = pushout(w, v)
        assert is_exact_square(sq)
        assert sq.fp.is_injective()  # pushout of a mono is a mono
        count += 1


def test_pushout_factor_unique(kron_seed):
    w0, v0 = kron_seed
    sq = pushout(w0, v0)
    h = pushout_factor(sq, sq.gp, sq.fp)
    assert h == ModHom.identity(sq.z)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pushout_of_a_mono_is_an_exact_square_with_a_mono_leg(data):
    (x, y1, y2), rng = _draw(data, 3)
    w = suites._random_mono(x, y1, rng)
    assume(w is not None)
    sq = pushout(w, suites._random_hom(x, y2, rng))
    assert is_exact_square(sq)
    assert sq.fp.is_injective()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pushout_factor_of_the_legs_is_the_identity(data):
    (x, y1, y2), rng = _draw(data, 3)
    sq = pushout(suites._random_hom(x, y1, rng), suites._random_hom(x, y2, rng))
    assert pushout_factor(sq, sq.gp, sq.fp) == ModHom.identity(sq.z)
