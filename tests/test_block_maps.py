"""Maps into and out of direct sums, placed blockwise by `hom_from_blocks`,
against the sums of products with injections and projections that they
replaced; and maps factored out of quotients by `QuotientData.induce_from`
and out of other epis by `descend_through_epi`, against the formulas and
per-vertex solves that they replaced.  Those formulas are kept here as
references.  Every map is compared on Kronecker and D4 modules over Q and
GF(3), with a zero-dimensional module among the parts."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivrep import degen, suites
from quivrep import fixtures as fx
from quivrep.algebra import projective
from quivrep.errors import QuivrepError
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import (
    ModHom,
    QuotientData,
    Rep,
    cokernel,
    descend_through_epi,
    direct_sum,
    hom_from_blocks,
    image,
    kernel,
    lift_through_mono,
    sum_module,
)
from quivrep.squares import (
    Square,
    pullback,
    pushout,
    pushout_factor,
    square_sequence,
    trivial_square,
)


def _module_groups():
    """Modules over one algebra each, the zero module last."""
    groups = []
    for field in (QQ, GF(3)):
        alg = fx.kronecker(field)
        pa, pb = projective(alg, "a")[0], projective(alg, "b")[0]
        h = cokernel(fx.kronecker_regular_seed(alg)[0])[0]
        groups.append([pa, pb, h, sum_module([h, pb]), Rep.zero(alg)])
        alg = fx.d4_subspace(field)
        u0, u1, _, _, _ = fx.d4_modules(alg)
        groups.append([u0, u1, sum_module([u1, u0]), Rep.zero(alg)])
    return groups


GROUPS = _module_groups()
SQUARE_FIELDS = ("x", "y1", "y2", "z", "f", "g", "gp", "fp")


def _draw(data, count):
    """`count` modules from one group and a random generator."""
    group = data.draw(st.sampled_from(GROUPS))
    mods = [data.draw(st.sampled_from(group)) for _ in range(count)]
    return mods, random.Random(data.draw(st.integers(0, 2**32)))


def _pullback_by_products(f, g):
    y1, y2 = f.source, g.source
    total, _, projs = direct_sum([y1, y2])
    diff = ModHom(
        total,
        f.target,
        {
            s: f.blocks[s] * projs[0].blocks[s] - g.blocks[s] * projs[1].blocks[s]
            for s in f.blocks
        },
        check=False,
    )
    x, incl = kernel(diff)
    return Square(x, y1, y2, f.target, incl.then(projs[0]), incl.then(projs[1]), f, g)


def _square_sequence_by_products(s):
    total, injs, projs = direct_sum([s.y1, s.y2])
    mono = ModHom(
        s.x,
        total,
        {
            v: injs[0].blocks[v] * s.f.blocks[v] + injs[1].blocks[v] * s.g.blocks[v]
            for v in s.f.blocks
        },
        check=False,
    )
    epi = ModHom(
        total,
        s.z,
        {
            v: s.gp.blocks[v] * projs[0].blocks[v] - s.fp.blocks[v] * projs[1].blocks[v]
            for v in s.gp.blocks
        },
        check=False,
    )
    return total, mono, epi


def _trivial_square_by_products(a, x):
    ux, ux_inj, ux_proj = direct_sum([a.source, x])
    vx, vx_inj, _ = direct_sum([a.target, x])
    bottom = ux_proj[0].then(a).then(vx_inj[0]) + ux_proj[1].then(vx_inj[1])
    return Square(a.source, a.target, ux, vx, a, ux_inj[0], vx_inj[0], bottom)


def _make_steering_nilpotent_by_products(rz):
    power = ModHom.identity(rz.u)
    for _ in range(max(rz.u.total_dim(), 1)):
        power = power.then(rz.steering)
    k_rep, k_incl = kernel(power)
    phi_k = lift_through_mono(k_incl, k_incl.then(rz.steering))
    _, injs_k, projs_k = direct_sum([rz.x, k_rep])
    mono = k_incl.then(rz.g).then(injs_k[0]) + phi_k.then(injs_k[1])
    sigma = projs_k[0].then(rz.from_x) + projs_k[1].then(k_incl).then(rz.from_u)
    return k_rep, mono, sigma.then(rz.epi)


def _steering_candidate_by_products(rz, c):
    phi_c = ModHom.identity(rz.u) + rz.steering.scale(c)
    return rz.g.then(rz.from_x) + phi_c.then(rz.from_u)


def _last_block_projection_by_offsets(un, u):
    """U_n = X^n + U -> U: the identity on the last dim U rows at each vertex."""
    blocks = {}
    for v in un.dims:
        d, du = un.dims[v], u.dims[v]
        rows = [[int(j == d - du + i) for j in range(d)] for i in range(du)]
        blocks[v] = Mat.from_ints(un.algebra.field, rows, 1, du, d)
    return ModHom(un, u, blocks, check=False)


def _random_rz(data):
    """A Riedtmann-Zwara sequence on modules of one group, or a skipped draw."""
    (u, x), rng = _draw(data, 2)
    mono = suites._random_mono(u, sum_module([x, u]), rng)
    assume(mono is not None)
    y, epi = cokernel(mono)
    return degen.check_rz(u, x, y, mono, epi)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pullback_is_the_kernel_of_the_placed_difference(data):
    (y1, y2, z), rng = _draw(data, 3)
    f, g = suites._random_hom(y1, z, rng), suites._random_hom(y2, z, rng)
    got, want = pullback(f, g), _pullback_by_products(f, g)
    for name in SQUARE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_square_sequence_places_its_mono_and_epi(data):
    (x, y1, y2), rng = _draw(data, 3)
    w = suites._random_mono(x, y1, rng)
    assume(w is not None)
    squares = [pushout(w, suites._random_hom(x, y2, rng))]
    squares.append(trivial_square(suites._random_hom(x, y1, rng), y2))
    for s in squares:
        seq = square_sequence(s)
        total, mono, epi = _square_sequence_by_products(s)
        assert (seq.a, seq.b, seq.c) == (s.x, total, s.z)
        assert seq.i == mono and seq.p == epi


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_trivial_square_places_its_bottom_edge(data):
    (u, v, x), rng = _draw(data, 3)
    a = suites._random_hom(u, v, rng)
    got, want = trivial_square(a, x), _trivial_square_by_products(a, x)
    for name in SQUARE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_make_steering_nilpotent_places_its_mono_and_section(data):
    rz = _random_rz(data)
    got = degen.make_steering_nilpotent(rz)
    assert (got.u, got.mono, got.epi) == _make_steering_nilpotent_by_products(rz)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_steering_combination_candidates_are_placed(data):
    rz = degen.make_steering_nilpotent(_random_rz(data))
    seen = []
    real = degen.is_split_mono

    def record(f):
        seen.append(f)
        return real(f)

    scalars = (0, 1, -1, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degen, "is_split_mono", record)
        degen.steering_combinations_split(rz, scalars)
    assert seen == [_steering_candidate_by_products(rz, c) for c in scalars]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_u_projection_of_each_rung_is_its_last_block(data):
    rz = degen.make_steering_nilpotent(_random_rz(data))
    assume(not rz.y.is_zero())  # the ladder's seed needs a nonzero cokernel
    cert = degen.rz_to_prufer(rz, depth=3)
    lad = cert.ladder
    for n in range(lad.depth + 1):
        lad.truncation(n)
    seen = []
    real = QuotientData.induce_from

    def record(self, f):
        if f.target is rz.u:  # the U-projection, not the induced square edge
            seen.append(f)
        return real(self, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuotientData, "induce_from", record)
        for n in range(cert.index, lad.depth):
            degen.eventual_splitting(cert, n)
    want = [_last_block_projection_by_offsets(lad.modules[n], rz.u)
            for n in range(cert.index, lad.depth)]
    assert seen == want
    for n in range(lad.depth + 1):
        assert hom_from_blocks(cert.sums[n], rz.u, {(0, n): ModHom.identity(rz.u)}) == (
            _last_block_projection_by_offsets(lad.modules[n], rz.u)
        )


def _descend_by_transposed_solves(epi, f):
    """g with g * epi_v = f_v at each vertex, solved as epi_v^T g^T = f_v^T:
    the loop that `squares.pushout_factor` and `selfext` each carried."""
    blocks = {}
    for v in f.blocks:
        sol = epi.blocks[v].transpose().solve_right(f.blocks[v].transpose())
        if sol is None:
            return None
        blocks[v] = sol.transpose()
    return ModHom(epi.target, f.target, blocks)


def _induce_by_old_formula(q, f, other):
    """The map on quotients induced by f: q.ambient -> other.ambient, as
    `QuotientData.induce` built it: other.proj_v * f_v * section_v, checked
    against other.proj_v * f_v = cand_v * q.proj_v; None when that fails."""
    blocks = {v: other.proj.blocks[v] * f.blocks[v] * q.section[v] for v in f.blocks}
    cand = ModHom(q.rep, other.rep, blocks, check=False)
    for v in f.blocks:
        if cand.blocks[v] * q.proj.blocks[v] != other.proj.blocks[v] * f.blocks[v]:
            return None
    assert cand.commutes()
    return cand


def _pushout_factor_by_vertex_solves(sq, g1, g2):
    """The solve `pushout_factor` carried: [gp_v fp_v] stacked side by side
    against [g1_v g2_v], through the transposes; None when unsolvable."""
    blocks = {}
    for v in sq.z.dims:
        proj_v = sq.gp.blocks[v].hstack(sq.fp.blocks[v])
        g_v = g1.blocks[v].hstack(g2.blocks[v])
        sol = proj_v.transpose().solve_right(g_v.transpose())
        if sol is None:
            return None
        blocks[v] = sol.transpose()
    return ModHom(sq.z, g1.target, blocks)


def _with_denominators(h, rng):
    """h, scaled by 1/k over Q so that its blocks carry denominators."""
    return h.scale(Fraction(1, rng.randint(1, 6))) if not h.source.algebra.field.p else h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descend_through_epi_is_the_transposed_solve(data):
    (m, n, t), rng = _draw(data, 3)
    # an epi that is no quotient's projection: M onto the image of a hom
    epi = image(_with_denominators(suites._random_hom(m, n, rng), rng))[2]
    k_incl = kernel(epi)[1]
    through = epi.then(_with_denominators(suites._random_hom(epi.target, t, rng), rng))
    for f in (through, _with_denominators(suites._random_hom(m, t, rng), rng)):
        got = descend_through_epi(epi, f)
        assert got == _descend_by_transposed_solves(epi, f)
        assert (got is None) == (not k_incl.then(f).is_zero())
        if got is not None:
            assert epi.then(got) == f


def test_descend_through_epi_refuses_a_map_that_moves_the_kernel(kron_projectives):
    pa, _ = kron_projectives
    to_zero = ModHom.zero_hom(pa, Rep.zero(pa.algebra))
    assert descend_through_epi(to_zero, ModHom.identity(pa)) is None
    assert descend_through_epi(to_zero, ModHom.zero_hom(pa, pa)) == ModHom.zero_hom(
        to_zero.target, pa
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_induce_from_on_a_projection_is_the_old_induce(data):
    (a, m, n), rng = _draw(data, 3)
    span = suites._random_hom(a, m, rng)
    q = QuotientData(m, span.blocks)
    f = _with_denominators(suites._random_hom(m, n, rng), rng)
    extra = suites._random_hom(a, n, rng)
    carried = span.then(f)
    # the image of the carried submodule and more, or an unrelated one
    others = [
        QuotientData(n, {v: carried.blocks[v].hstack(extra.blocks[v]) for v in n.dims}),
        QuotientData(n, extra.blocks),
    ]
    for other in others:
        want = _induce_by_old_formula(q, f, other)
        if want is None:
            with pytest.raises(QuivrepError, match="map does not descend to the quotient"):
                q.induce_from(f.then(other.proj))
        else:
            assert q.induce_from(f.then(other.proj)) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pushout_factor_is_the_old_per_vertex_solve(data):
    (x, y1, y2, t), rng = _draw(data, 4)
    w = suites._random_mono(x, y1, rng)
    assume(w is not None)
    sq = pushout(w, suites._random_hom(x, y2, rng))
    h = _with_denominators(suites._random_hom(sq.z, t, rng), rng)
    pairs = [(sq.gp.then(h), sq.fp.then(h))]
    pairs.append((suites._random_hom(y1, t, rng), suites._random_hom(y2, t, rng)))
    for g1, g2 in pairs:
        want = _pushout_factor_by_vertex_solves(sq, g1, g2)
        if want is None:
            with pytest.raises(QuivrepError, match="maps do not factor through the pushout"):
                pushout_factor(sq, g1, g2)
        else:
            assert pushout_factor(sq, g1, g2) == want
    assert pushout_factor(sq, *pairs[0]) == h
