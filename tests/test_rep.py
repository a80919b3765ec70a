import pytest

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st
from sympy import GF as SymGF, QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

from quivrep.errors import AlgebraMismatch, QuivrepError
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import (
    ModHom,
    QuotientData,
    Rep,
    annihilator_dimension,
    cokernel,
    combine,
    direct_sum,
    factor_from,
    factor_through,
    hom_coordinates,
    hom_dimension,
    hom_from_blocks,
    hom_space,
    image,
    independent_indices,
    is_faithful,
    is_generated_by,
    kernel,
    quotient,
    radical,
    socle,
    submodule_closure,
    sum_module,
    top,
)
from quivrep.algebra import projective
from quivrep.ladder import build_ladder
from quivrep import fixtures as fx
from quivrep import suites


def test_hom_to_zero_module(kronecker, kron_projectives):
    pa, _ = kron_projectives
    zero = Rep.zero(kronecker)
    assert hom_space(pa, zero) == []


def test_hom_dimension_projectives(kron_projectives):
    pa, pb = kron_projectives
    assert len(hom_space(pb, pa)) == 2


def test_hom_algebra_mismatch(kronecker, three_kron):
    m = Rep.simple(kronecker, "a")
    n = Rep.simple(three_kron, "a")
    with pytest.raises(AlgebraMismatch):
        hom_space(m, n)
    with pytest.raises(AlgebraMismatch):
        hom_dimension(m, n)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_hom_dimension_counts_the_hom_space(field):
    rng = random.Random(23)
    algs = [fx.kronecker(field), fx.three_kronecker(field), fx.d4_subspace(field),
            fx.commuting_square_tower(field), fx.loop_beta(field)]
    for i in range(30):
        alg = algs[i % len(algs)]
        m, n = suites._random_module(alg, rng), suites._random_module(alg, rng)
        for src, tgt in ((m, n), (n, m), (m, m), (m, Rep.zero(alg))):
            assert hom_dimension(src, tgt) == len(hom_space(src, tgt))


def test_kernel_of_identity(kron_regular):
    k, incl = kernel(ModHom.identity(kron_regular))
    assert k.is_zero()


def test_cokernel_of_kronecker_mono(kron_seed):
    w0, _ = kron_seed
    c, proj = cokernel(w0)
    assert c.dims == {"a": 1, "b": 1}
    assert proj.is_surjective()


def test_three_kronecker_syzygy_dims(warning_data):
    h, ph, q, omega, w, f, g = warning_data
    assert omega.dims == {"a": 0, "b": 2}
    assert w.is_injective()


def test_direct_sum_with_zero(kronecker, kron_regular):
    zero = Rep.zero(kronecker)
    s, injs, projs = direct_sum([kron_regular, zero])
    assert s.dims == kron_regular.dims
    assert injs[0].then(projs[0]) == ModHom.identity(kron_regular)


def test_direct_sum_empty(kronecker):
    s, injs, projs = direct_sum([], algebra=kronecker)
    assert s.is_zero()
    assert injs == [] and projs == []


def test_direct_sum_d4_dims(d4):
    u0, u1, mu_b, mu_c, mu_d = fx.d4_modules(d4)
    total = direct_sum([u1, u1, u0])[0]
    assert total.dims == {"a": 5, "b": 2, "c": 2, "d": 2}


def test_direct_sum_structure_maps(d4):
    u0, u1, mu_b, mu_c, mu_d = fx.d4_modules(d4)
    parts = [u1, Rep.zero(d4), u0, u1]
    total, injs, projs = direct_sum(parts)
    for inj, proj in zip(injs, projs):
        assert inj.commutes() and proj.commutes()
    for i, proj in enumerate(projs):
        for j, inj in enumerate(injs):
            want = ModHom.identity(parts[i]) if i == j else ModHom.zero_hom(parts[j], parts[i])
            assert inj.then(proj) == want
    resolved = ModHom.zero_hom(total, total)
    for inj, proj in zip(injs, projs):
        resolved = resolved + proj.then(inj)
    assert resolved == ModHom.identity(total)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_injective_and_surjective_follow_the_rank(data):
    """Wide, tall and zero-dimensional blocks: the shape test before the rank
    gives the answer of the rank alone."""
    alg = fx.kronecker(data.draw(st.sampled_from([QQ, GF(3)])))
    dim = st.integers(min_value=0, max_value=3)
    m = Rep(alg, {"a": data.draw(dim), "b": data.draw(dim)}, {})
    n = Rep(alg, {"a": data.draw(dim), "b": data.draw(dim)}, {})
    blocks = {}
    for v in ("a", "b"):
        nrows, ncols = n.dims[v], m.dims[v]
        entry = st.integers(min_value=-2, max_value=2)
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  min_size=nrows, max_size=nrows))
        blocks[v] = Mat(alg.field, rows, nrows, ncols)
    h = ModHom(m, n, blocks)
    assert h.is_injective() == all(b.rank() == b.ncols for b in blocks.values())
    assert h.is_surjective() == all(b.rank() == b.nrows for b in blocks.values())


def test_submodule_closure_whole(kron_regular):
    gens = {
        v: [[1 if i == j else 0 for i in range(kron_regular.dims[v])] for j in range(kron_regular.dims[v])]
        for v in kron_regular.dims
    }
    sub = submodule_closure(kron_regular, gens)
    assert sub.dims == kron_regular.dims


def test_submodule_closure_socle_vector(warning_data, three_kron):
    h, ph, q, omega, w, f, g = warning_data
    # omega has zero arrow actions, so a single vector spans a 1-dim submodule
    sub = submodule_closure(omega, {"b": [[0, 1]]})
    assert sub.total_dim() == 1


@pytest.mark.parametrize("make", [fx.kronecker, fx.commuting_square_tower, fx.loop_beta])
def test_submodule_closure_grows_from_the_top_of_a_projective(make):
    # on loop-beta one pass over the arrows reaches beta.alpha but not
    # beta.beta.alpha: the closure must go round again
    pa, top = projective(make(), "a")
    sub = submodule_closure(pa, {"a": [[1 if i == top else 0 for i in range(pa.dims["a"])]]})
    assert sub.dims == pa.dims


def test_quotient_dimension_count(warning_data):
    h, ph, q, omega, w, f, g = warning_data
    sub = submodule_closure(ph, {"b": [[0, 0, 1]]})
    q_rep, proj = quotient(ph, sub)
    assert q_rep.total_dim() == ph.total_dim() - 1
    assert proj.is_surjective()


def test_radical_top_socle_semisimple(kronecker):
    s = Rep.simple(kronecker, "b")
    assert radical(s).total_dim() == 0
    assert socle(s).total_dim() == 1


def test_radical_top_projective(kron_projectives):
    pa, _ = kron_projectives
    assert radical(pa).dims == {"a": 0, "b": 2}
    t, _ = top(pa)
    assert t.dims == {"a": 1, "b": 0}


def test_socle_regular(kron_regular):
    assert socle(kron_regular).dims == {"a": 0, "b": 1}


def test_annihilator_zero_module(kronecker):
    zero = Rep.zero(kronecker)
    dim, basis = annihilator_dimension(zero)
    assert dim == kronecker.path_basis().total_dimension


def test_annihilator_three_kronecker_h(warning_data):
    # H is annihilated exactly by beta and gamma
    h = warning_data[0]
    dim, basis = annihilator_dimension(h)
    assert dim == 2
    words = sorted(e[1][0] for combo in basis for e in combo)
    assert words == [("beta",), ("gamma",)]


FIXTURE_ALGEBRAS = [
    fx.kronecker,
    fx.three_kronecker,
    fx.d4_subspace,
    fx.loop_beta,
    fx.loop_square,
    fx.commuting_square_tower,
]


def _sympy_rank(rows, ncols, field):
    """The rank of the rows by sympy's DomainMatrix over QQ or GF(p)."""
    if not rows:
        return 0
    if field.p:
        dom = SymGF(field.p)
        entries = [[dom(x) for x in row] for row in rows]
    else:
        dom = SymQQ
        entries = [[dom(x.numerator, x.denominator) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), ncols), dom).rank()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    make=st.sampled_from(FIXTURE_ALGEBRAS),
    field=st.sampled_from([QQ, GF(2), GF(3), GF(32003)]),
    maxdim=st.integers(1, 3),
    simple=st.booleans(),
)
def test_annihilator_against_sympy(seed, make, field, maxdim, simple):
    # simple modules, and often random ones of small dims, are zero at some
    # vertex, where basis elements act as zero
    rng = random.Random(seed)
    alg = make(field)
    verts = alg.quiver.vertices
    m = Rep.simple(alg, rng.choice(verts)) if simple else suites._random_module(alg, rng, maxdim)
    elements = alg.path_basis().basis_with_sources()
    actions = {}
    for w, s, t in elements:
        if m.dims[s] and m.dims[t]:
            actions[w, s, t] = Mat.identity(field, m.dims[s]) if w == () else m.path_action(w)
    dim, basis = annihilator_dimension(m)
    assert dim == len(basis)
    coeffs = []
    for combo in basis:
        # the combination acts as zero on M, block by block
        blocks = {}
        for c, (w, s, t) in combo:
            if (w, s, t) in actions:
                term = actions[w, s, t].scale(c)
                blocks[s, t] = blocks[s, t] + term if (s, t) in blocks else term
        assert all(b.is_zero() for b in blocks.values())
        coef = {e: c for c, e in combo}
        coeffs.append([coef.get(e, field.zero()) for e in elements])
    assert _sympy_rank(coeffs, len(elements), field) == dim
    # the action system: one equation for each entry of each (t, s) block
    system = []
    for s in verts:
        for t in verts:
            for k in range(m.dims[t]):
                for l in range(m.dims[s]):
                    system.append(
                        [
                            actions[e].entry(k, l) if e in actions and e[1:] == (s, t) else 0
                            for e in elements
                        ]
                    )
    assert dim == len(elements) - _sympy_rank(system, len(elements), field)


def test_faithful_truncation(warning_data, three_kron):
    h, ph, q, omega, w, f, g = warning_data
    lad = build_ladder(w, g, depth=3)
    assert is_faithful(lad.truncation(3).rep)


def test_generated_by_identity(kron_regular):
    assert is_generated_by(kron_regular, [ModHom.identity(kron_regular)])


def test_generated_by_zero_map_fails(kron_regular):
    assert not is_generated_by(kron_regular, [ModHom.zero_hom(kron_regular, kron_regular)])


def test_generation_along_kronecker_ladder(kron_seed):
    w0, v0 = kron_seed
    lad = build_ladder(w0, v0, depth=3)
    gens = lad.canonical_generators(3)
    assert len(gens) == 3
    assert is_generated_by(lad.modules[3], gens)


def test_hom_bilinearity(kron_projectives, kron_regular):
    pa, pb = kron_projectives
    s = direct_sum([pa, kron_regular])[0]
    assert len(hom_space(pb, s)) == len(hom_space(pb, pa)) + len(
        hom_space(pb, kron_regular)
    )


def test_exactness_audit(kron_seed, kron_projectives):
    w0, v0 = kron_seed
    pa, pb = kron_projectives
    for f in (w0, v0, w0 + v0):
        k, k_incl = kernel(f)
        c, c_proj = cokernel(f)
        i, i_incl, i_proj = image(f)
        assert k_incl.then(f).is_zero()
        assert f.then(c_proj).is_zero()
        for v in pa.dims:
            assert k.dims[v] + i.dims[v] == pb.dims[v]
            assert c.dims[v] == pa.dims[v] - i.dims[v]


def test_zero_dimensional_blocks_are_first_class(kronecker):
    m = Rep(kronecker, {"a": 0, "b": 2}, {})
    n = Rep(kronecker, {"a": 1, "b": 0}, {})
    homs = hom_space(m, n)
    assert homs == []
    s = direct_sum([m, n])[0]
    assert s.dims == {"a": 1, "b": 2}


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_combine_matches_sum_of_scaled_homs(field):
    alg = fx.kronecker(field)
    w0, _ = fx.kronecker_regular_seed(alg)
    h = cokernel(w0)[0]
    m = direct_sum([h, h])[0]
    rng = random.Random(5)
    # blocks and coefficients with denominators, all units mod 7
    basis = [b.scale(field.conv(Fraction(1, rng.choice([1, 2, 3])))) for b in hom_space(m, m)]
    for _ in range(5):
        coeffs = [field.conv(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))) for _ in basis]
        expected = ModHom.zero_hom(m, m)
        for c, b in zip(coeffs, basis):
            expected = expected + b.scale(c)
        got = combine(coeffs, basis, m, m)
        assert got == expected
        assert hom_coordinates(basis, got) == coeffs


def test_combine_of_no_homs_is_zero(kron_projectives):
    pa, pb = kron_projectives
    assert combine([], [], pb, pa) == ModHom.zero_hom(pb, pa)
    with pytest.raises(QuivrepError):
        combine([QQ.one()], [], pb, pa)


def test_hom_coordinates_with_empty_basis(kron_projectives):
    pa, pb = kron_projectives
    assert hom_coordinates([], ModHom.zero_hom(pb, pa)) == []
    assert hom_coordinates([], hom_space(pb, pa)[0]) is None


def test_hom_coordinates_with_empty_hom_vectors(kronecker):
    # Hom(S(a), S(b)) has no entries: every hom is zero, and the
    # coordinates are one zero per basis element
    sa, sb = Rep.simple(kronecker, "a"), Rep.simple(kronecker, "b")
    zero = ModHom.zero_hom(sa, sb)
    assert hom_coordinates([zero, zero], zero) == [QQ.zero(), QQ.zero()]


def _greedy_independent(homs):
    """The per-candidate rank loop `independent_indices` replaces."""
    picked, cols = [], []
    for i, h in enumerate(homs):
        trial = cols + [[x for v in h.blocks for r in h.blocks[v].rows for x in r]]
        field = h.source.algebra.field
        mat = Mat(field, [list(r) for r in zip(*trial)], len(trial[0]), len(trial))
        if mat.rank() > len(cols):
            cols, picked = trial, picked + [i]
    return picked


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_independent_indices_matches_greedy_rank_loop(field):
    alg = fx.kronecker(field)
    w0, _ = fx.kronecker_regular_seed(alg)
    h = cokernel(w0)[0]
    m = direct_sum([h, h])[0]
    basis = hom_space(m, m)
    rng = random.Random(11)
    for _ in range(6):
        homs = [combine([field.conv(rng.randint(-1, 1)) for _ in basis], basis, m, m)
                for _ in range(rng.randint(1, 2 * len(basis)))]
        homs.insert(rng.randrange(len(homs)), ModHom.zero_hom(m, m))
        assert independent_indices(homs) == _greedy_independent(homs)
    assert independent_indices([]) == []


def test_factorizations_solve_or_refuse(kron_seed):
    w0, _ = kron_seed
    h, q = cokernel(w0)
    x = factor_through(q, q)
    assert x is not None and x.then(q) == q
    assert factor_through(ModHom.zero_hom(q.source, h), q) is None
    t = factor_from(w0, w0)
    assert t is not None and w0.then(t) == w0
    # q is not injective, so the identity does not factor through it
    assert factor_from(q, ModHom.identity(q.source)) is None


def test_sum_module_is_the_module_of_direct_sum(d4):
    u0, u1, _, _, _ = fx.d4_modules(d4)
    parts = [u1, Rep.zero(d4), u0]
    assert sum_module(parts) == direct_sum(parts)[0]
    assert sum_module([], algebra=d4) == Rep.zero(d4)
    with pytest.raises(QuivrepError):
        sum_module([])


def test_inverse_of_a_singular_square_block_raises(kronecker):
    s = Rep.simple(kronecker, "a")
    with pytest.raises(QuivrepError, match="inverse of a non-isomorphism"):
        ModHom.zero_hom(s, s).inverse()


def test_inverse_of_a_non_square_block_raises(kron_projectives):
    pa, pb = kron_projectives
    _, injs, projs = direct_sum([pa, pb])
    for f in (injs[0], projs[1]):
        with pytest.raises(QuivrepError, match="inverse of a non-isomorphism"):
            f.inverse()


def _quotient_fixture_groups():
    """Groups of modules over one algebra each, over Q and GF(3)."""
    groups = []
    for field in (QQ, GF(3)):
        alg = fx.kronecker(field)
        pa, pb = projective(alg, "a")[0], projective(alg, "b")[0]
        h = cokernel(fx.kronecker_regular_seed(alg)[0])[0]
        groups.append([pa, pb, h, sum_module([h, pa]), sum_module([pb, pb])])
        alg = fx.d4_subspace(field)
        u0, u1, _, _, _ = fx.d4_modules(alg)
        groups.append([u0, u1, sum_module([u1, u0])])
        alg = fx.loop_beta(field)
        ps = [projective(alg, v)[0] for v in alg.quiver.vertices]
        groups.append(ps + [sum_module(ps)])
    return groups


QUOTIENT_GROUPS = _quotient_fixture_groups()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_by_hom_blocks_is_the_quotient_by_their_column_space(data):
    """The blocks of a hom, dependent columns and all, give the quotient that
    an echelonized basis of its image gives."""
    group = data.draw(st.sampled_from(QUOTIENT_GROUPS))
    m, n = data.draw(st.sampled_from(group)), data.draw(st.sampled_from(group))
    f = suites._random_hom(m, n, random.Random(data.draw(st.integers(0, 2**32))))
    by_blocks = QuotientData(n, f.blocks)
    by_space = QuotientData(n, {v: b.column_space() for v, b in f.blocks.items()})
    assert by_blocks.proj.blocks == by_space.proj.blocks
    assert by_blocks.section == by_space.section
    assert by_blocks.rep.action == by_space.rep.action
    assert by_blocks.proj == by_space.proj


def _unstable_spans(alg):
    """Spans in P(a) that are not stable under the arrows, each with the
    first arrow that moves it out of itself: the top alone (alpha), and the
    top with its alpha-image and everything that image generates (beta)."""
    field = alg.field
    pa = projective(alg, "a")[0]
    top = Mat.identity(field, 1)
    alpha_image = pa.action["alpha"]
    nothing = {v: Mat.zeros(field, pa.dims[v], 0) for v in pa.dims}
    along_alpha = dict(nothing, a=top, b=alpha_image)
    if "gamma" in pa.action:
        along_alpha["c"] = pa.action["gamma"] * alpha_image
    return pa, [(dict(nothing, a=top), "alpha"), (along_alpha, "beta")]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("make", [fx.kronecker, fx.commuting_square_tower], ids=["kr", "tw"])
def test_quotient_by_an_unstable_span_raises(make, field):
    pa, spans = _unstable_spans(make(field))
    for span, arrow in spans:
        with pytest.raises(QuivrepError, match="arrow %r" % arrow):
            QuotientData(pa, span)
    # the radical is stable, and its quotient is the top
    radical = {v: Mat.identity(field, d) if v != "a" else Mat.zeros(field, d, 0)
               for v, d in pa.dims.items()}
    assert QuotientData(pa, radical).rep.dims == {v: int(v == "a") for v in pa.dims}


def _tower_group(field):
    alg = fx.commuting_square_tower(field)
    ps = [projective(alg, v)[0] for v in alg.quiver.vertices]
    h = Rep(alg, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    return ps + [h, sum_module(ps)]


QUOTIENT_TOWER_GROUPS = QUOTIENT_GROUPS + [_tower_group(QQ), _tower_group(GF(3))]


def _first_unstable_arrow(m, span):
    """The first arrow a: s -> t, in the quiver's order, with M_a span_s not
    inside the column space of span_t, by ranks; None when the span is a
    submodule."""
    for a, s, t in m.algebra.quiver.arrows:
        moved = m.action[a] * span[s]
        if span[t].hstack(moved).rank() != span[t].rank():
            return a
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_checks_each_arrow_and_keeps_the_relations(data):
    """The quotient by the image of a hom satisfies the relations with no
    check of its own; random columns give the quotient when they span a
    submodule, and otherwise raise naming the first arrow that moves them."""
    group = data.draw(st.sampled_from(QUOTIENT_TOWER_GROUPS))
    a, m = data.draw(st.sampled_from(group)), data.draw(st.sampled_from(group))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    q = QuotientData(m, suites._random_hom(a, m, rng).blocks)
    assert q.rep.failing_relation() is None
    assert q.proj.commutes()
    field = m.algebra.field
    span = {v: suites._random_mat(field, rng, d, rng.randrange(0, 3), span=1)
            for v, d in m.dims.items()}
    arrow = _first_unstable_arrow(m, span)
    if arrow is None:
        q = QuotientData(m, span)
        assert q.rep.failing_relation() is None
        assert q.proj.commutes()
    else:
        with pytest.raises(QuivrepError, match="arrow %r" % arrow):
            QuotientData(m, span)


def _hom_from_blocks_by_products(sum_src, sum_tgt, blocks):
    """The reference assembly: each component moved into place by the sums'
    projection and injection homs, and the results added up."""
    src, _, src_projs = sum_src
    tgt, tgt_injs, _ = sum_tgt
    total = ModHom.zero_hom(src, tgt)
    for (i, j), h in blocks.items():
        total = total + src_projs[j].then(h).then(tgt_injs[i])
    return total


# Summands over Kronecker and D4, over Q and GF(3), each group with a
# zero-dimensional part last.
BLOCK_SUM_PARTS = [
    group + [Rep.zero(group[0].algebra)]
    for group in QUOTIENT_GROUPS
    if group[0].algebra.name in ("kronecker", "d4")
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hom_from_blocks_is_the_sum_of_placed_components(data):
    group = data.draw(st.sampled_from(BLOCK_SUM_PARTS))
    src_parts = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=4))
    tgt_parts = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=4))
    src_parts.append(group[-1])  # the zero-dimensional part
    sum_src, sum_tgt = direct_sum(src_parts), direct_sum(tgt_parts)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    field = group[0].algebra.field
    blocks = {}
    for i, j in data.draw(st.sets(st.tuples(st.integers(0, len(tgt_parts) - 1),
                                            st.integers(0, len(src_parts) - 1)))):
        h = suites._random_hom(src_parts[j], tgt_parts[i], rng)
        blocks[(i, j)] = h if field.p else h.scale(Fraction(1, rng.randint(1, 6)))
    got = hom_from_blocks(sum_src, sum_tgt, blocks)
    assert got == _hom_from_blocks_by_products(sum_src, sum_tgt, blocks)
    assert got.commutes()


def test_hom_from_blocks_rejects_a_component_between_the_wrong_parts(kron_projectives):
    pa, pb = kron_projectives
    sum_src = direct_sum([pa, pb])
    with pytest.raises(QuivrepError, match=r"block \(0, 1\) does not map part 1 to part 0"):
        hom_from_blocks(sum_src, sum_src, {(0, 1): ModHom.identity(pa)})


def test_a_sum_of_one_part_is_that_module(d4):
    _, u1, _, _, _ = fx.d4_modules(d4)
    assert sum_module([u1]) is u1
    total, injs, projs = direct_sum([u1])
    assert total is u1
    assert injs == projs == [ModHom.identity(u1)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_from_blocks_takes_a_plain_module_as_a_sum_of_one_part(data):
    group = data.draw(st.sampled_from(BLOCK_SUM_PARTS))
    m = data.draw(st.sampled_from(group))
    parts = data.draw(st.lists(st.sampled_from(group), min_size=1, max_size=3))
    one, many = direct_sum([m]), direct_sum(parts)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    into = {(i, 0): suites._random_hom(m, p, rng) for i, p in enumerate(parts)}
    out_of = {(0, j): suites._random_hom(p, m, rng) for j, p in enumerate(parts)}
    assert hom_from_blocks(m, many, into) == _hom_from_blocks_by_products(one, many, into)
    assert hom_from_blocks(many, m, out_of) == _hom_from_blocks_by_products(many, one, out_of)
    h = suites._random_hom(m, m, rng)
    assert hom_from_blocks(m, m, {(0, 0): h}) == h
    assert hom_from_blocks(m, m, {}) == ModHom.zero_hom(m, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_induce_from_recovers_a_map_out_of_the_quotient(data):
    """A map h out of M/S is induced back from proj;h, and commutes; a map
    out of M that does not kill S does not descend."""
    group = data.draw(st.sampled_from(QUOTIENT_GROUPS))
    a, m, t = (data.draw(st.sampled_from(group)) for _ in range(3))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    span = suites._random_hom(a, m, rng)
    q = QuotientData(m, span.blocks)
    h = suites._random_hom(q.rep, t, rng)
    g = q.induce_from(q.proj.then(h))
    assert g == h
    assert g.commutes()
    f = suites._random_hom(m, t, rng)
    if span.then(f).is_zero():
        assert q.proj.then(q.induce_from(f)) == f
    else:
        with pytest.raises(QuivrepError, match="map does not descend to the quotient"):
            q.induce_from(f)
