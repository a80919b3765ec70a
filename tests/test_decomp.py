import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF as SymGF, QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

from quivrep import decomp
from quivrep.decomp import (
    EndAlgebra,
    _end_radical,
    _exhaustive_idempotent,
    _is_nilpotent_ideal,
    are_isomorphic,
    decompose,
    end_algebra,
    is_indecomposable,
    match_decompositions,
    minimal_polynomial,
    split_indecomposable_parts,
)
from quivrep.algebra import projective
from quivrep.errors import AlgebraMismatch, Inconclusive, QuivrepError, ZeroModule
from quivrep.ladder import build_ladder
from quivrep.linalg import GF, QQ, Mat
from quivrep.rep import (
    ModHom,
    Rep,
    cokernel,
    combine,
    direct_sum,
    hom_coordinates,
    hom_dimension,
    hom_space,
    kernel,
    sum_module,
)
from quivrep import fixtures as fx
from quivrep import suites
from test_golden_kernel import _random_seed


def test_end_algebra_simple(kronecker):
    s = Rep.simple(kronecker, "a")
    assert end_algebra(s).dim == 1


def test_end_algebra_regular(kron_regular):
    assert end_algebra(kron_regular).dim == 1


def test_end_algebra_truncation(kron_seed):
    w0, v0 = kron_seed
    lad = build_ladder(w0, v0, depth=2)
    assert end_algebra(lad.truncation(2).rep).dim == 2


ALGEBRAS = [fx.kronecker, fx.three_kronecker, fx.d4_subspace, fx.loop_beta, fx.commuting_square_tower]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    make=st.sampled_from(ALGEBRAS),
    field=st.sampled_from([QQ, GF(2), GF(3), GF(32003)]),
    summands=st.integers(1, 2),
)
def test_end_basis_is_closed_under_composition(seed, make, field, summands):
    # the hom_space(M, M) basis spans a ring: the identity and every product
    # of two basis elements have coordinates in it
    rng = random.Random(seed)
    alg = make(field)
    m = sum_module([suites._random_module(alg, rng, 3) for _ in range(summands)])
    basis = EndAlgebra(m).basis
    for h in [ModHom.identity(m)] + [f.then(g) for f in basis for g in basis]:
        coords = hom_coordinates(basis, h)
        assert coords is not None and combine(coords, basis, m, m) == h


@st.composite
def square_matrices(draw, field):
    """Square matrices up to 4 x 4 with small entries: arbitrary, strictly
    upper triangular (nilpotent) or scalar."""
    n = draw(st.integers(0, 4))
    if field.p:
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kind = draw(st.sampled_from(["any", "nilpotent", "scalar"]))
    if kind == "scalar":
        c = draw(entry)
        rows = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(entry) if kind == "any" or j > i else 0 for j in range(n)] for i in range(n)]
    return Mat(field, rows, n, n)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_minimal_polynomial_matches_sympy(data):
    # sympy's DomainMatrix as the oracle: mu is monic, mu(A) = 0, and its
    # degree is the rank of the flattened powers I, A, ..., A^n
    field = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    a = data.draw(square_matrices(field))
    mu = minimal_polynomial(a)
    assert mu[-1] == field.one()
    n = a.nrows
    if n == 0:
        assert mu == [field.one()]
        return
    dom = SymGF(field.p) if field.p else SymQQ
    conv = dom if field.p else (lambda x: dom(x.numerator, x.denominator))
    dm = DomainMatrix([[conv(x) for x in row] for row in a.rows], (n, n), dom)
    eye = DomainMatrix.eye(n, dom)
    value = DomainMatrix.zeros((n, n), dom)
    for c in reversed(mu):
        value = value * dm + eye * conv(c)
    assert value.is_zero_matrix
    powers = [eye]
    for _ in range(n):
        powers.append(powers[-1] * dm)
    flat = [[x for row in pw.to_list() for x in row] for pw in powers]
    assert len(mu) - 1 == DomainMatrix(flat, (n + 1, n * n), dom).rank()


def test_indecomposable_simple(kronecker):
    s = Rep.simple(kronecker, "b")
    verdict, cert = is_indecomposable(s)
    assert verdict


def test_indecomposable_zero_module(kronecker):
    with pytest.raises(ZeroModule):
        is_indecomposable(Rep.zero(kronecker))


def test_square_splits(kron_regular):
    mm = direct_sum([kron_regular, kron_regular])[0]
    verdict, cert = is_indecomposable(mm)
    assert not verdict
    assert cert[0] == "split"
    parts = cert[1]
    total = None
    for sd in parts:
        e = sd.proj.then(sd.incl)
        total = e if total is None else total + e
    assert total == ModHom.identity(mm)


def test_truncations_indecomposable(kron_seed):
    w0, v0 = kron_seed
    lad = build_ladder(w0, v0, depth=4)
    for n in range(1, 5):
        verdict, _ = is_indecomposable(lad.truncation(n).rep)
        assert verdict


def test_decompose_indecomposable(kron_regular):
    assert decompose(kron_regular) == [(kron_regular, 1)]


def test_decompose_split_ladder(kron_seed, kron_regular):
    w0, _ = kron_seed
    lad = build_ladder(w0, w0.scale(QQ.conv(2)), depth=3)
    parts = decompose(lad.truncation(3).rep)
    assert len(parts) == 1
    rep_part, mult = parts[0]
    assert mult == 3
    assert are_isomorphic(rep_part, kron_regular).verdict == "isomorphic"


def test_decompose_d4_u2(d4_seed):
    w0, v0 = d4_seed
    lad = build_ladder(w0, v0, depth=2)
    parts = decompose(lad.modules[2])
    vecs = sorted(tuple(r.dims[v] for v in ("a", "b", "c", "d")) for r, _ in parts)
    assert vecs == [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]
    assert all(m == 1 for _, m in parts)


def test_decompose_krs_consistency(kron_regular, kron_projectives):
    pa, pb = kron_projectives
    m = direct_sum([kron_regular, pa])[0]
    n = direct_sum([pb, kron_regular])[0]
    mn = direct_sum([m, n])[0]
    whole = decompose(mn)
    counts = {}
    for part in (m, n):
        for r, mult in decompose(part):
            key = tuple(sorted(r.dims.items()))
            counts[key] = counts.get(key, 0) + mult
    got = {tuple(sorted(r.dims.items())): mult for r, mult in whole}
    assert got == counts


@pytest.mark.parametrize(
    "field, tag",
    [
        pytest.param(QQ, "local-residue-field", id="Q"),
        pytest.param(GF(3), "local-residue-field", id="GF3"),
        pytest.param(GF(5), "split", id="GF5"),
        pytest.param(GF(7), "local-residue-field", id="GF7"),
        pytest.param(GF(32003), "local-residue-field", id="GF32003"),
    ],
)
def test_number_field_brick(field, tag):
    # End is the field k adjoined a square root of -1 where x^2 + 1 is
    # irreducible over k: indecomposable, but only the primitive-element
    # certificate can see it.  Over GF(5), where x^2 + 1 splits, it splits.
    m = Rep(
        fx.kronecker(field),
        {"a": 2, "b": 2},
        {
            "alpha": Mat(field, [[1, 0], [0, 1]]),
            "beta": Mat(field, [[0, -1], [1, 0]]),
        },
    )
    verdict, cert = is_indecomposable(m)
    assert cert[0] == tag
    mm = direct_sum([m, m])[0]
    parts = decompose(mm)
    if verdict:
        assert cert == ("local-residue-field", 2)
        assert [(r.dims, mult) for r, mult in parts] == [(m.dims, 2)]
    else:
        assert [(r.dims, mult) for r, mult in parts] == [({"a": 1, "b": 1}, 2)] * 2


def test_are_isomorphic_self(kron_regular):
    out = are_isomorphic(kron_regular, kron_regular)
    assert out.verdict == "isomorphic"
    assert out.witness == ModHom.identity(kron_regular)


def test_are_isomorphic_mismatch(kronecker, three_kron):
    with pytest.raises(AlgebraMismatch):
        are_isomorphic(Rep.simple(kronecker, "a"), Rep.simple(three_kron, "a"))


def test_are_isomorphic_dimension_refutation(kron_projectives):
    pa, pb = kron_projectives
    out = are_isomorphic(pa, pb)
    assert out.verdict == "not-isomorphic"
    assert "dimension" in out.refutation


def test_warning_pair_verdicts(warning_data, three_kron):
    h, ph, q, omega, w, f, g = warning_data
    ladf = build_ladder(w, f, depth=3)
    ladg = build_ladder(w, g, depth=3)
    out2 = are_isomorphic(ladf.truncation(2).rep, ladg.truncation(2).rep)
    assert out2.verdict == "isomorphic"
    assert out2.witness.is_isomorphism()
    out3 = are_isomorphic(ladf.truncation(3).rep, ladg.truncation(3).rep)
    assert out3.verdict == "not-isomorphic"
    assert "annihilator" in out3.refutation


def test_are_isomorphic_gf2_regular_simples_refuted_by_invariants():
    alg = fx.kronecker(GF(2))
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    homs = hom_space(pb, pa)
    h1 = cokernel(homs[0])[0]
    h2 = cokernel(homs[1])[0]
    # the regular simple modules at two different points have no hom between them
    out = are_isomorphic(h1, h2)
    assert out.verdict == "not-isomorphic"
    assert out.refutation == "dim Hom differs from dim End: hom=0/0 end=1"
    assert are_isomorphic(h1, h1).verdict == "isomorphic"


def test_symmetry(kron_regular, kron_projectives):
    pa, _ = kron_projectives
    assert (
        are_isomorphic(kron_regular, pa).verdict
        == are_isomorphic(pa, kron_regular).verdict
    )


def test_decompose_d4_over_gf3():
    alg = fx.d4_subspace(GF(3))
    w0, v0 = fx.d4_seed(alg, q_scalar=2)
    from quivrep.ladder import build_ladder

    lad = build_ladder(w0, v0, depth=2)
    parts = decompose(lad.modules[2])
    vecs = sorted(tuple(r.dims[v] for v in ("a", "b", "c", "d")) for r, _ in parts)
    assert vecs == [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]
    for r, mult in parts:
        assert mult == 1
        assert is_indecomposable(r)[0]


def test_match_decompositions(kron_regular, kron_projectives, monkeypatch):
    pa, pb = kron_projectives
    m = direct_sum([kron_regular, pa, pb])[0]
    n = direct_sum([pb, kron_regular, pa])[0]
    witness = match_decompositions(m, n)
    assert witness is not None and witness.is_isomorphism()
    z = Rep.zero(pa.algebra)
    assert match_decompositions(z, z) == ModHom.identity(z)
    # matched summands that assemble to a non-isomorphism are an error, not
    # a refutation
    monkeypatch.setattr(decomp, "_indecomposables_iso", lambda x, y: ModHom.zero_hom(x, y))
    with pytest.raises(QuivrepError, match="not an isomorphism"):
        match_decompositions(m, n)


def test_split_parts_idempotents(kron_regular, kron_projectives):
    pa, _ = kron_projectives
    m = direct_sum([kron_regular, pa, kron_regular])[0]
    parts = split_indecomposable_parts(m)
    assert len(parts) == 3
    for sd in parts:
        assert sd.incl.then(sd.proj) == ModHom.identity(sd.rep)


def _kronecker_truncations(field, depth=4):
    alg = fx.kronecker(field)
    w0, v0 = fx.kronecker_regular_seed(alg)
    lad = build_ladder(w0, v0, depth=depth)
    return [lad.truncation(n).rep for n in range(1, depth + 1)]


@pytest.mark.parametrize("p", [3, 257, 32003])
def test_truncations_local_over_prime_fields(p):
    # dim End H[n] = n, so p^n > 2^16 rules out the exhaustive search for
    # p >= 257; the radical certificate holds unless p divides dim H[n] = 2n
    for n, m in enumerate(_kronecker_truncations(GF(p)), start=1):
        verdict, cert = is_indecomposable(m)
        assert verdict
        if n == 1:
            assert cert == ("end-dim-1",)
        elif (2 * n) % p:
            assert cert == ("local-residue-1",)
        else:
            assert cert == ("no-idempotents-exhaustive",)


def test_gf2_radical_fails_and_exhaustive_search_decides():
    # over GF(2) the identity of H[2] (dim 4) has trace 0, so the trace-form
    # kernel is all of End and is not nilpotent
    m = _kronecker_truncations(GF(2), depth=2)[1]
    end = EndAlgebra(m)
    rad = _end_radical(end)
    assert len(rad) == end.dim
    assert not _is_nilpotent_ideal(end, rad)
    assert is_indecomposable(m) == (True, ("no-idempotents-exhaustive",))


def _idempotent_by_recursive_search(end):
    """The exhaustive idempotent search in its former order: a recursion
    over the coordinates, the last one varying fastest."""
    field = end.module.algebra.field
    ident = ModHom.identity(end.module)
    coords = [0] * end.dim

    def all_tuples(k):
        if k == end.dim:
            yield list(coords)
            return
        for c in range(field.p):
            coords[k] = c
            yield from all_tuples(k + 1)

    for tup in all_tuples(0):
        h = end.from_coordinates([field.conv(c) for c in tup])
        if not h.is_zero() and h != ident and h.then(h) == h:
            return h
    return None


def _iso_by_digit_search(m, n):
    """The exhaustive iso search in its former order: the base-p digits of
    1, 2, ..., p^h - 1, the first coefficient varying fastest."""
    homs = hom_space(m, n)
    p, h = m.algebra.field.p, len(homs)
    for idx in range(1, p**h):
        tup = []
        for _ in range(h):
            tup.append(idx % p)
            idx //= p
        cand = combine(tup, homs, m, n)
        if cand.is_isomorphism():
            return cand
    return None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exhaustive_searches_keep_their_order(p):
    # the exhaustive idempotent search finds the witness of its former order
    alg = fx.kronecker(GF(p))
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    h2 = _kronecker_truncations(GF(p), depth=2)[1]
    for m in (sum_module([pa, pb]), sum_module([pb, pb]), h2, Rep.simple(alg, "a")):
        end = EndAlgebra(m)
        if p**end.dim <= 1 << 16:
            assert _exhaustive_idempotent(end) == _idempotent_by_recursive_search(end)


def _sparse_rep(alg, dims, density, rng):
    """A module with the given dims whose arrow matrices have each entry
    nonzero with the given probability."""
    p = alg.field.p
    action = {}
    for a, s, t in alg.quiver.arrows:
        rows = [
            [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(dims[s])]
            for _ in range(dims[t])
        ]
        action[a] = Mat(alg.field, rows, dims[t], dims[s])
    return Rep(alg, dims, action)


def _small_pairs(alg, rng, draws):
    """The distinct pairs among `draws` seeded pairs of sparse modules with
    equal dims, up to 4 at a vertex, whose invariants agree and with
    p^dim Hom(M, N) <= 2^8."""
    p = alg.field.p
    for _ in range(draws):
        dims = {"a": rng.randint(1, 4), "b": rng.randint(1, 4)}
        density = rng.choice((0.2, 0.35, 0.5))
        m, n = (_sparse_rep(alg, dims, density, rng) for _ in range(2))
        if m != n and decomp._invariant_refutation(m, n) is None:
            if p ** hom_dimension(m, n) <= 1 << 8:
                yield m, n


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("make", [fx.kronecker, fx.three_kronecker])
def test_are_isomorphic_agrees_with_the_digit_search(make, p):
    # where the invariants agree and Hom is small, the summand match decides
    # every pair the random trials leave open; seed 2 draws a
    # pair of non-isomorphic 3-Kronecker modules over both fields
    verdicts = []
    for m, n in _small_pairs(make(GF(p)), random.Random(2), 300):
        out = are_isomorphic(m, n)
        want = _iso_by_digit_search(m, n)
        assert out.verdict == ("not-isomorphic" if want is None else "isomorphic")
        if want is not None:
            assert out.witness.source == m and out.witness.target == n
            assert out.witness.commutes() and out.witness.is_isomorphism()
        verdicts.append(out.verdict)
    assert "isomorphic" in verdicts
    if make is fx.three_kronecker:
        assert "not-isomorphic" in verdicts


# (alpha, beta, gamma) of 3-Kronecker modules X, Y over GF(2) of dims (2, 2)
# with X + X and Y + Y of equal invariants and dim Hom 16, 12 and 12: draws
# 8151, 12997 and 14624 of two such modules each, entries by randrange(2)
# from random.Random(5)
DOUBLED_GF2_PAIRS = [
    (
        ([[0, 0], [0, 0]], [[0, 1], [1, 1]], [[0, 1], [1, 1]]),
        ([[0, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 1], [1, 0]]),
    ),
    (
        ([[1, 0], [1, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]),
        ([[0, 0], [1, 0]], [[1, 0], [0, 0]], [[1, 0], [1, 0]]),
    ),
    (
        ([[0, 0], [1, 1]], [[0, 0], [0, 1]], [[0, 0], [1, 1]]),
        ([[0, 0], [1, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 0]]),
    ),
]


@pytest.mark.parametrize("x_mats, y_mats", DOUBLED_GF2_PAIRS)
def test_doubled_gf2_pairs_with_large_hom_are_isomorphic(x_mats, y_mats):
    alg = fx.three_kronecker(GF(2))
    arrows = ("alpha", "beta", "gamma")
    x, y = (
        Rep(alg, {"a": 2, "b": 2}, {a: Mat(alg.field, b) for a, b in zip(arrows, mats)})
        for mats in (x_mats, y_mats)
    )
    m, n = sum_module([x, x]), sum_module([y, y])
    assert decomp._invariant_refutation(m, n) is None
    assert 12 <= hom_dimension(m, n) <= 16
    out = are_isomorphic(m, n)
    assert out.verdict == "isomorphic"
    assert out.witness.source == m and out.witness.target == n
    assert out.witness.commutes() and out.witness.is_isomorphism()


def _rebased(m, rng):
    """M in another basis: arrow a: s -> t acts by T_t M_a T_s^-1, each T_v
    lower unitriangular with random entries."""
    f = m.algebra.field
    ts = {
        v: Mat(f, [[1 if i == j else rng.randint(-3, 3) * (j < i) for j in range(d)]
                   for i in range(d)], d, d)
        for v, d in m.dims.items()
    }
    action = {a: ts[t] * m.action[a] * ts[s].inverse() for a, s, t in m.algebra.quiver.arrows}
    return Rep(m.algebra, m.dims, action)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_inconclusive_summand_pairs_are_decided(field, monkeypatch):
    # with the isomorphism search deciding no pair, the local End ring still
    # groups H[2] with H[2] in another basis and keeps P(a) apart
    x = _kronecker_truncations(field, depth=2)[1]
    x_moved = _rebased(x, random.Random(5))
    pa, _ = projective(x.algebra, "a")
    assert are_isomorphic(x, x_moved).verdict == "isomorphic"
    monkeypatch.setattr(decomp, "_search_iso", lambda m, n, seed: None)
    m = sum_module([x, pa, x_moved])
    got = decompose(m)
    assert [(r.dims, mult) for r, mult in got] == [(x.dims, 2), (pa.dims, 1)]
    moved = _rebased(sum_module([pa, x_moved, x]), random.Random(6))
    witness = match_decompositions(m, moved)
    assert witness is not None and witness.is_isomorphism()
    assert match_decompositions(m, sum_module([x, pa, pa])) is None
    # are_isomorphic ends in the same summand match
    out = are_isomorphic(m, moved)
    assert out.verdict == "isomorphic" and out.witness.is_isomorphism()
    assert out.witness.source == m and out.witness.target == moved
    out = are_isomorphic(m, sum_module([x, pa, pa]))
    assert out.verdict == "not-isomorphic" and out.witness is None
    assert out.refutation == (
        "no summand of N is isomorphic to the summand of M with dims %s" % x.dims
    )
    out = are_isomorphic(m, sum_module([x, pa]))
    assert out.verdict == "not-isomorphic" and out.refutation == "summand counts differ: 3 vs 2"


def _indecomposable_pairs(alg, rng, draws):
    """Pairs (M, N) of sparse modules certified indecomposable, of equal
    dims up to 3 at a vertex, with p^dim Hom(M, N) <= 2^8: in every other
    draw N is a `_rebased` copy of M, in the others a second module."""
    p = alg.field.p
    for i in range(draws):
        dims = {"a": rng.randint(1, 3), "b": rng.randint(1, 3)}
        m, n = (_sparse_rep(alg, dims, rng.choice((0.35, 0.5)), rng) for _ in range(2))
        if i % 2:
            n = _rebased(m, rng)
        if p ** hom_dimension(m, n) > 1 << 8:
            continue
        if is_indecomposable(m)[0] and is_indecomposable(n)[0]:
            yield m, n


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("make", [fx.kronecker, fx.three_kronecker])
def test_indecomposables_iso_agrees_with_the_digit_search(make, p):
    # the first invertible element of the Hom basis exists exactly when some
    # combination of the basis is invertible
    verdicts = set()
    for m, n in _indecomposable_pairs(make(GF(p)), random.Random(4), 80):
        iso = decomp._indecomposables_iso(m, n)
        assert (iso is None) == (_iso_by_digit_search(m, n) is None)
        if iso is not None:
            assert iso.source == m and iso.target == n
            assert iso.commutes() and iso.is_isomorphism()
        verdicts.add(iso is None)
    assert verdicts == {True, False}


# (alpha, beta, gamma) of two non-isomorphic 3-Kronecker modules over GF(2)
# of dims (4, 3), both certified indecomposable, with equal invariants: the
# 64 random trials of `_search_iso` find no iso
SEARCHED_ONCE_PAIR = (
    (
        [[1, 0, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0]],
        [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0]],
        [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
    ),
    (
        [[0, 0, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
        [[0, 1, 1, 1], [0, 0, 0, 0], [0, 1, 1, 1]],
    ),
)


def test_indecomposable_pair_is_searched_once(monkeypatch):
    # the summand match of two indecomposables scans the Hom basis and does
    # not repeat the search that are_isomorphic has just made
    alg = fx.three_kronecker(GF(2))
    arrows = ("alpha", "beta", "gamma")
    m, n = (
        Rep(alg, {"a": 4, "b": 3}, {a: Mat(alg.field, b) for a, b in zip(arrows, mats)})
        for mats in SEARCHED_ONCE_PAIR
    )
    assert is_indecomposable(m)[0] and is_indecomposable(n)[0]
    assert decomp._invariant_refutation(m, n) is None
    calls = []
    search = decomp._search_iso

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(decomp, "_search_iso", counted)
    out = are_isomorphic(m, n)
    assert out.verdict == "not-isomorphic"
    assert len(calls) == 1


def _quaternion_brick(a, b):
    """The 3-Kronecker module of dims (4, 4) whose arrows act on the
    quaternion algebra (a, b)_Q = Q<1, i, j, k> (i^2 = a, j^2 = b,
    ij = -ji = k) by left multiplication by 1, i and j."""
    alg = fx.three_kronecker(QQ)
    # columns are the images of 1, i, j, k
    left_i = [[0, a, 0, 0], [1, 0, 0, 0], [0, 0, 0, a], [0, 0, 1, 0]]
    left_j = [[0, 0, b, 0], [0, 0, 0, -b], [1, 0, 0, 0], [0, -1, 0, 0]]
    action = {
        "alpha": Mat.identity(QQ, 4),
        "beta": Mat(QQ, left_i),
        "gamma": Mat(QQ, left_j),
    }
    return Rep(alg, {"a": 4, "b": 4}, action)


def _doubled_gf2_bricks():
    """Each of the seven 3-Kronecker modules of dims (1, 1) over GF(2),
    twice."""
    alg = fx.three_kronecker(GF(2))
    bricks = []
    for point in product(range(2), repeat=3):
        if any(point):
            action = {a: Mat(alg.field, [[c]]) for a, c in zip(("alpha", "beta", "gamma"), point)}
            bricks.append(Rep(alg, {"a": 1, "b": 1}, action))
    return sum_module(bricks + bricks)


@pytest.mark.parametrize("seed", [0, 1])
def test_gf2_doubled_bricks_are_isomorphic(seed):
    # dim Hom = 28 rules out the exhaustive search, and the 64 random
    # trials find no invertible hom: the summand match decides
    m = _doubled_gf2_bricks()
    n = _rebased(m, random.Random(1))
    assert decomp._search_iso(m, n, seed) is None
    out = are_isomorphic(m, n, seed=seed)
    assert out.verdict == "isomorphic"
    assert out.witness.source == m and out.witness.target == n
    assert out.witness.commutes() and out.witness.is_isomorphism()


@pytest.mark.parametrize("a, b", [(-1, -1), (2, 7)])
def test_doubled_quaternion_bricks_are_isomorphic(a, b):
    # the random trials decide these pairs; the summand match could not
    # decide (-1, -1), whose summands (a division algebra) are not certified
    m = sum_module([_quaternion_brick(a, b)] * 2)
    n = _rebased(m, random.Random(1))
    out = are_isomorphic(m, n)
    assert out.verdict == "isomorphic"
    assert out.witness.commutes() and out.witness.is_isomorphism()


def test_split_kronecker_truncation_is_found_by_the_random_trials():
    # H[3] of P(b) -> P(a)^2 with v0 = 2 w0 against H^3 in another basis:
    # dim Hom = 27, and the random trials find an isomorphism
    w0, _ = _random_seed(fx.kronecker(QQ), "b", "aa", random.Random(0))
    lad = build_ladder(w0, w0.scale(2), depth=3)
    m = lad.truncation(3).rep
    n = _rebased(sum_module([lad.basis_module] * 3), random.Random(0))
    out = decomp._search_iso(m, n, 0)
    assert out.verdict == "isomorphic"
    assert out.witness.source == m and out.witness.target == n
    assert out.witness.commutes() and out.witness.is_isomorphism()


def test_zero_modules_are_equal(kronecker, kron_regular):
    # however a zero module is built, each arrow acts by the canonical empty
    # matrix, so the equality stage decides every pair of zero modules
    third = combine([Fraction(1, 3)], [ModHom.identity(kron_regular)], kron_regular, kron_regular)
    zeros = [Rep.zero(kronecker), sum_module([], kronecker), kernel(third)[0]]
    for z in zeros:
        assert z.is_zero()
        for y in zeros:
            assert z == y
            out = are_isomorphic(z, y)
            assert out.verdict == "isomorphic"
            assert out.witness == ModHom.identity(z)


def test_uncertified_summand_is_inconclusive(monkeypatch):
    q = _quaternion_brick(-1, -1)
    with pytest.raises(Inconclusive):
        is_indecomposable(q)
    m = sum_module([q, q])
    monkeypatch.setattr(decomp, "_search_iso", lambda m, n, seed: None)
    out = are_isomorphic(m, _rebased(m, random.Random(1)))
    assert out.verdict == "inconclusive"
    assert out.witness is None and out.refutation is None
