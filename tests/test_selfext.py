import random

import pytest
from hypothesis import given, settings, strategies as st

from quivrep.algebra import projective
from quivrep.decomp import are_isomorphic
from quivrep.errors import NotStandard, QuivrepError, ZeroModule
from quivrep.ladder import ladder_extension, ladder_seed_from_simple
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import (
    ModHom,
    QuotientData,
    Rep,
    cokernel,
    combine,
    direct_sum,
    factor_from,
    hom_space,
    independent_indices,
    socle,
    sum_module,
)
from quivrep.selfext import (
    ExtClass,
    Presentation,
    class_to_sequence,
    ext1,
    ext_class_of_sequence,
    hom_u_image,
    is_standard,
    proj_dim_at_most_one,
    projective_cover,
    reduced_presentation_seed,
    standard_subspace,
    standard_to_ladder,
    syzygy,
)
from quivrep import fixtures as fx
from quivrep import suites
from quivrep.squares import is_split_mono


def test_projective_cover_of_projective(kron_projectives):
    pa, _ = kron_projectives
    p, cover = projective_cover(pa)
    assert cover.is_isomorphism()


def test_projective_cover_zero_module(kronecker):
    with pytest.raises(ZeroModule):
        projective_cover(Rep.zero(kronecker))


def test_projective_cover_three_kronecker(warning_data):
    h = warning_data[0]
    p, cover = projective_cover(h)
    assert p.dims == {"a": 1, "b": 3}
    assert cover.is_surjective()


def test_projective_cover_kron_regular(kron_regular, kron_projectives):
    pa, _ = kron_projectives
    p, cover = projective_cover(kron_regular)
    assert p.dims == pa.dims


def test_syzygy_projective_is_zero(kron_projectives):
    pa, _ = kron_projectives
    omega, u = syzygy(pa)
    assert omega.is_zero()


def test_syzygy_three_kronecker(warning_data):
    h = warning_data[0]
    omega, u = syzygy(h)
    assert omega.dims == {"a": 0, "b": 2}


def test_syzygy_tower_module(tower):
    field = tower.field
    h = Rep(tower, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    omega, u = syzygy(h)
    assert omega.dims == {"a": 0, "b": 1, "c": 1}
    # it is the module (gamma: b -> c): gamma acts with rank 1, delta by zero
    assert omega.action["gamma"].rank() == 1
    assert omega.action["delta"].is_zero()


def test_ext1_projective_vanishes(kron_projectives, kron_regular):
    pa, _ = kron_projectives
    assert ext1(pa, kron_regular)[0] == 0


def test_ext1_d4(d4, d4_seed):
    w0, v0 = d4_seed
    w_mod = cokernel(w0)[0]
    assert ext1(w_mod, w0.source)[0] == 2
    assert ext1(w_mod, w_mod)[0] == 0


def test_ext1_loop_square(loop_square):
    s = Rep.simple(loop_square, "v")
    assert ext1(s, s)[0] == 1


def test_class_to_sequence_zero_class(kron_regular):
    pres = Presentation(kron_regular)
    zero_class = ext1(kron_regular, kron_regular, pres)[1][0]
    zc = type(zero_class)(
        kron_regular, kron_regular, ModHom.zero_hom(pres.omega, kron_regular), pres
    )
    ses = class_to_sequence(zc)
    split = direct_sum([kron_regular, kron_regular])[0]
    assert are_isomorphic(ses.b, split).verdict == "isomorphic"


def test_class_to_sequence_kronecker_matches_ladder(kron_seed, kron_regular):
    from quivrep.ladder import build_ladder

    pres = Presentation(kron_regular)
    dim, classes = ext1(kron_regular, kron_regular, pres)
    ses = class_to_sequence(classes[0])
    w0, v0 = kron_seed
    lad = build_ladder(w0, v0, depth=2)
    h2 = lad.truncation(2).rep
    assert are_isomorphic(ses.b, h2).verdict == "isomorphic"


def test_class_to_sequence_loop_beta(loop_beta):
    field = loop_beta.field
    h = Rep(
        loop_beta,
        {"a": 1, "b": 2},
        {"alpha": Mat(field, [[1], [0]]), "beta": Mat(field, [[0, 0], [1, 0]])},
    )
    pres = Presentation(h)
    dim, classes = ext1(h, h, pres)
    assert dim == 1
    ses = class_to_sequence(classes[0])
    assert ses.b.dims == {"a": 2, "b": 4}
    assert not ext_class_of_sequence(ses, pres).is_zero_class()


def test_hom_u_image_leaves_out_zero_maps(kron_regular):
    # Hom(P, H) is nonzero, but every u.h vanishes on H = coker(w0)
    assert hom_u_image(Presentation(kron_regular), kron_regular) == []


def test_hom_u_image_spans_the_image_of_hom_u(kron_regular, kron_projectives):
    m = sum_module([kron_regular, kron_projectives[0]])
    pres = Presentation(m)
    image = hom_u_image(pres, m)
    assert image and not any(h.is_zero() for h in image)
    rank = len(independent_indices(image))
    assert rank == len(hom_space(pres.omega, m)) - ext1(m, m, pres)[0]


def test_a_presentation_of_another_module_is_refused(kronecker, kron_regular):
    h = kron_regular
    c = ext1(h, h)[1][0]
    for other in ("a", "b"):
        pres_s = Presentation(Rep.simple(kronecker, other))
        with pytest.raises(QuivrepError, match="another module"):
            standard_subspace(h, pres_s)
        with pytest.raises(QuivrepError, match="another module"):
            ext1(h, h, pres_s)
        with pytest.raises(QuivrepError, match="another module"):
            ext_class_of_sequence(class_to_sequence(c), pres_s)
    # an equal module built apart shares the presentation
    twin = Rep(kronecker, dict(h.dims), dict(h.action))
    assert standard_subspace(twin, c.presentation)[0] == 1


def test_standard_subspace_projective(kron_projectives):
    pa, _ = kron_projectives
    assert standard_subspace(pa)[0] == 0


def test_standard_subspace_hereditary_full(kron_regular):
    pres = Presentation(kron_regular)
    assert standard_subspace(kron_regular, pres)[0] == ext1(
        kron_regular, kron_regular, pres
    )[0]


def test_standard_subspace_loop_square(loop_square):
    s = Rep.simple(loop_square, "v")
    assert standard_subspace(s)[0] == 0
    assert ext1(s, s)[0] == 1


def test_standard_to_ladder_zero_class(kron_regular):
    pres = Presentation(kron_regular)
    zc_type = ext1(kron_regular, kron_regular, pres)[1][0]
    zc = type(zc_type)(
        kron_regular, kron_regular, ModHom.zero_hom(pres.omega, kron_regular), pres
    )
    u, wprime = standard_to_ladder(zc)
    assert wprime.is_zero()
    ext, h2 = ladder_extension(pres.p, wprime)
    split = direct_sum([kron_regular, kron_regular])[0]
    assert are_isomorphic(h2, split).verdict == "isomorphic"


def test_standard_to_ladder_roundtrip(kron_regular):
    pres = Presentation(kron_regular)
    dim, classes = ext1(kron_regular, kron_regular, pres)
    for c in classes:
        u, wprime = standard_to_ladder(c)
        ext, h2 = ladder_extension(pres.p, wprime)
        assert are_isomorphic(h2, class_to_sequence(c).b).verdict == "isomorphic"
        assert ext_class_of_sequence(ext, pres).equals(c)


def test_standard_to_ladder_not_standard(tower):
    field = tower.field
    h = Rep(tower, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    pres = Presentation(h)
    dim, classes = ext1(h, h, pres)
    assert dim == 1
    assert not is_standard(classes[0])
    with pytest.raises(NotStandard):
        standard_to_ladder(classes[0])


def test_tower_hom_omega_to_cover_one_dimensional(tower):
    field = tower.field
    h = Rep(tower, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    pres = Presentation(h)
    assert len(hom_space(pres.omega, pres.p_total)) == 1


def test_three_kronecker_hom_omega_to_cover(warning_data):
    # over the three-arrow Kronecker the syzygy has zero arrow actions, so
    # the hom space is the full matrix space
    h, ph, q, omega, w, f, g = warning_data
    assert len(hom_space(omega, ph)) == 6


def test_tower_quotient_presentation_rebuild(tower):
    field = tower.field
    h = Rep(tower, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    pres = Presentation(h)
    dim, classes = ext1(h, h, pres)
    c = classes[0]
    out = reduced_presentation_seed(c)
    assert out is not None
    qbar, v0 = out
    ext, h2 = ladder_extension(qbar, v0)
    assert are_isomorphic(h2, class_to_sequence(c).b).verdict == "isomorphic"
    assert ext_class_of_sequence(ext, pres).equals(c)


def test_loop_beta_quotient_presentation_fails(loop_beta):
    field = loop_beta.field
    h = Rep(
        loop_beta,
        {"a": 1, "b": 2},
        {"alpha": Mat(field, [[1], [0]]), "beta": Mat(field, [[0, 0], [1, 0]])},
    )
    dim, classes = ext1(h, h)
    assert not is_standard(classes[0])
    assert reduced_presentation_seed(classes[0]) is None


def test_proj_dim_kronecker(kron_regular, kron_projectives):
    pa, _ = kron_projectives
    assert proj_dim_at_most_one(pa)
    assert proj_dim_at_most_one(kron_regular)


def test_proj_dim_loop_square(loop_square):
    s = Rep.simple(loop_square, "v")
    assert not proj_dim_at_most_one(s)


def test_ext_dimension_formula_hereditary(kron_regular, kron_projectives):
    pa, pb = kron_projectives
    pres = Presentation(kron_regular)
    for n in (pa, pb, kron_regular):
        expected = (
            len(hom_space(pres.omega, n))
            - len(hom_space(pres.p_total, n))
            + len(hom_space(kron_regular, n))
        )
        assert ext1(kron_regular, n, pres)[0] == expected


def _euler_form(alg, x, y):
    """<x, y> = sum over vertices v of x_v y_v - sum over arrows s -> t of x_s y_t."""
    return sum(x[v] * y[v] for v in alg.quiver.vertices) - sum(
        x[s] * y[t] for _, s, t in alg.quiver.arrows
    )


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize("make", [fx.kronecker, fx.three_kronecker, fx.d4_subspace],
                         ids=lambda make: make.__name__)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hereditary_hom_minus_ext_is_the_euler_form_and_classes_round_trip(make, field, seed):
    alg = make(field)
    rng = random.Random(seed)
    m, n = suites._random_module(alg, rng), suites._random_module(alg, rng)
    dim, classes = ext1(m, n)
    assert len(hom_space(m, n)) - dim == _euler_form(alg, m.dims, n.dims)
    for c in classes:
        assert ext_class_of_sequence(class_to_sequence(c), c.presentation).equals(c)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize(
    "make", [fx.kronecker, fx.three_kronecker, fx.d4_subspace, fx.commuting_square_tower],
    ids=lambda make: make.__name__,
)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), zero=st.booleans())
def test_a_class_is_zero_exactly_when_its_sequence_splits(make, field, seed, zero):
    """c is the zero class u.h, or a random combination of the `ext1` basis
    plus such a u.h; c is zero exactly when the mono of its sequence has a
    retraction, and every retraction is checked."""
    alg = make(field)
    rng = random.Random(seed)
    m, n = suites._random_module(alg, rng), suites._random_module(alg, rng)
    pres = Presentation(m)
    rep = pres.u.then(suites._random_hom(pres.p_total, n, rng))
    basis_zero = True
    if not zero:
        _, classes = ext1(m, n, pres)
        coeffs = [field.random(rng, 2) for _ in classes]
        basis_zero = not any(coeffs)
        rep = rep + combine(coeffs, [c.representative for c in classes], pres.omega, n)
    c = ExtClass(m, n, rep, pres)
    assert c.is_zero_class() == basis_zero
    seq = class_to_sequence(c)
    r = is_split_mono(seq.i)
    assert (r is not None) == basis_zero
    if r is not None:
        assert r.commutes()
        assert seq.i.then(r) == ModHom.identity(n)


def _simple_submodules(m):
    """The inclusion of the simple submodule spanned by each socle basis vector."""
    soc = socle(m).basis
    return [
        ModHom(Rep.simple(m.algebra, v), m, {v: soc[v].columns(j, j + 1)})
        for v in m.algebra.quiver.vertices
        for j in range(soc[v].ncols)
    ]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize(
    "make", [fx.loop_beta, fx.commuting_square_tower, fx.three_kronecker, fx.loop_square],
    ids=lambda make: make.__name__,
)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_seed_rebuilds_its_class_and_none_means_no_seed(make, field, seed):
    """A quotient presentation seed rebuilds its class.  A seed from a simple
    S <= H is missing only when Ext^1(S, S) != 0 or H -> H/S does not factor
    through E."""
    alg = make(field)
    m = suites._random_module(alg, random.Random(seed))
    pres = Presentation(m)
    for c in ext1(m, m, pres)[1]:
        out = reduced_presentation_seed(c)
        if out is not None:
            assert ext_class_of_sequence(ladder_extension(*out)[0], pres).equals(c)
        ses = class_to_sequence(c)
        for s_incl in _simple_submodules(m):
            out = ladder_seed_from_simple(ses, s_incl)
            if out is None:
                can = QuotientData(m, s_incl.blocks).proj
                assert ext1(s_incl.source, s_incl.source)[0] or factor_from(ses.i, can) is None
            else:
                _, v, q_u = out
                assert ext_class_of_sequence(ladder_extension(q_u, v)[0], pres).equals(c)
