"""Endomorphism algebras, indecomposability certificates, Krull-Remak-Schmidt
decomposition, and isomorphism testing.

`is_indecomposable` decides in this order, over Q and over every GF(p):

1. `end-dim-1`: dim End = 1.
2. `local-residue-1`: the kernel J of the trace form (f, g) -> tr(fg) on End
   has codimension 1 and is verified directly to be a nilpotent two-sided
   ideal.  Then End/J is the ground field, so End is local.  Verification
   fails when p divides dim M (the identity then lies in J).
3. `split`: candidate endomorphisms (the hom basis, pairwise sums and
   seeded random combinations) are tested through exact factorization of
   their minimal polynomials; two coprime factors give a generalized-kernel
   splitting with inclusion and projection witnesses.
4. `local-residue-field`: J verified as in 2, and End/J a field generated by
   one element with irreducible minimal polynomial.
5. Over GF(p) with p^dim End <= 2^16: exhaustive search for a nontrivial
   idempotent, giving `no-idempotents-exhaustive` or a split.

Anything else raises Inconclusive, which never silently maps to a verdict.
Locality comes before the search because no candidate can split a local
module.  Step 2 draws no random numbers, so the search sees the same
candidates as without it.  Over Q the trace-form kernel of a decomposable
module has codimension at least 2 (orthogonal idempotents have nonzero
traces), so split verdicts never pay for the verification.

`are_isomorphic` decides in this order, the first three stages being
`_search_iso`: equality; invariant refutations (dimension vector,
annihilator dimension, dim Hom = dim End both ways); 64 seeded random
combinations of the `hom_space(M, N)` basis, each verified by
`is_isomorphism` (Schwartz, J. ACM 27, 1980); then Krull-Remak-Schmidt,
matching the summands certified indecomposable exactly
(`_match_summands`).  Two indecomposables M, N of equal dimension vectors
are isomorphic iff some element of the
`hom_space(M, N)` basis is invertible: End M is local, so for an iso phi the
non-isomorphisms phi.J(End M) are a proper subspace of Hom(M, N), which
cannot hold the whole basis.  So `are_isomorphic` answers `inconclusive`
only when a summand's indecomposability raises Inconclusive.
Over GF(p) with p^dim End M <= 2^16 that cannot happen: the End ring of a
summand is a corner of End M, so step 5 always applies to it.

`factor_polynomial` imports `quivrep.poly` (exact factorization over Q and
GF(p)) only when a search needs it.
"""

import random
from fractions import Fraction
from itertools import product

from .errors import AlgebraMismatch, Inconclusive, QuivrepError, ZeroModule
from .linalg import Mat, block_diagonal
from .rep import (
    ModHom,
    annihilator_dimension,
    combine,
    coordinate_rows,
    direct_sum,
    hom_dimension,
    hom_from_blocks,
    hom_space,
    independent_indices,
    kernel,
)


class EndAlgebra:
    """End(M) with the canonical `hom_space(M, M)` basis of ModHoms."""

    def __init__(self, module):
        self.module = module
        self.basis = hom_space(module, module)
        self.dim = len(self.basis)

    def from_coordinates(self, coords):
        return combine(coords, self.basis, self.module, self.module)


def end_algebra(m):
    return EndAlgebra(m)


def total_matrix(h):
    """The block-diagonal matrix of an endomorphism on the total space."""
    alg = h.source.algebra
    return block_diagonal(alg.field, [h.blocks[v] for v in alg.quiver.vertices])


def minimal_polynomial(mat):
    """Monic minimal polynomial coefficients (ascending), exact."""
    field = mat.field
    n = mat.nrows
    if n == 0:
        return [field.one()]  # minimal polynomial 1 of the empty matrix
    # Krylov on the full matrix space: powers of mat until dependence
    powers = [Mat.identity(field, n)]
    while True:
        powers.append(powers[-1] * mat)
        stacked = Mat.stack_flat(field, [[p] for p in powers], n * n)
        if stacked.rank() < len(powers):
            break
    # the powers before the last are independent, so the relation among the
    # flattened powers is one null vector, and its free (last) entry is 1
    return stacked.transpose().null_space().col(0)  # ascending: c0 + c1 x + ... + x^d


def factor_polynomial(coeffs, field):
    """Factor an exact univariate polynomial (ascending coefficients) into
    [(factor coefficients, multiplicity)] in the normal form and order of
    `quivrep.poly`."""
    from . import poly  # loaded on first use, so `import quivrep` does not load it

    if field.p:
        return [([field.conv(c) for c in f], m) for f, m in poly.factor_mod(coeffs, field.p)]
    return [([Fraction(c) for c in f], m) for f, m in poly.factor_rational(coeffs)]


def eval_poly_hom(coeffs, h):
    """Polynomial in an endomorphism, as a ModHom."""
    m = h.source
    powers = [ModHom.identity(m)]
    for _ in coeffs[1:]:
        powers.append(powers[-1].then(h))
    return combine(coeffs, powers, m, m)


class SummandData:
    """A direct summand with inclusion and projection witnesses."""

    def __init__(self, rep, incl, proj):
        self.rep = rep
        self.incl = incl
        self.proj = proj


def _split_by_hom(m, h):
    """Split M along a coprime factorization of the minimal polynomial of h.

    Returns a list of SummandData with at least two entries, or None.
    """
    field = m.algebra.field
    tm = total_matrix(h)
    mu = minimal_polynomial(tm)
    factors = factor_polynomial(mu, field)
    if len(factors) < 2:
        return None
    parts = []
    for fac, mult in factors:
        op = eval_poly_hom(fac, h)
        powered = op
        for _ in range(mult - 1):
            powered = powered.then(op)
        parts.append(kernel(powered))
    return _summands(m, parts)


def _summands(m, parts):
    """SummandData for M as the direct sum of the (rep, inclusion) parts,
    each projection the inverse of the assembled inclusion followed by the
    sum's projection.

    The parts are the generalized kernels of the coprime factors of a
    minimal polynomial, so each is nonzero and M is their direct sum;
    `ModHom.inverse` raises if the assembled inclusion is not invertible.
    """
    total = direct_sum([rep for rep, _ in parts])
    incl = hom_from_blocks(total, m, {(0, i): inc for i, (_, inc) in enumerate(parts)})
    inverse = incl.inverse()
    return [
        SummandData(rep, inc, inverse.then(proj)) for (rep, inc), proj in zip(parts, total[2])
    ]


def _candidate_endos(end, rng):
    field = end.module.algebra.field
    for b in end.basis:
        yield b
    for i in range(len(end.basis)):
        for j in range(i + 1, min(len(end.basis), i + 4)):
            yield end.basis[i] + end.basis[j]
    for _ in range(48):
        yield end.from_coordinates([field.random(rng, span=3) for _ in end.basis])


def _end_radical(end):
    """The kernel of the trace form of End, as a basis of endomorphisms.

    It is the Jacobson radical only once `_is_nilpotent_ideal` has verified
    it.  The Gram matrix is one product, of the flattened vertex blocks of
    the basis with the flattened transposed blocks:
    tr(fg) = sum over vertices v and entries (k, l) of f_v[k][l] * g_v[l][k].
    """
    field = end.module.algebra.field
    verts = end.module.algebra.quiver.vertices
    size = sum(d * d for d in end.module.dims.values())
    transposed = [[b.blocks[v].transpose() for v in verts] for b in end.basis]
    gram = coordinate_rows(end.basis) * Mat.stack_flat(field, transposed, size).transpose()
    coords = gram.null_space()
    return [end.from_coordinates(coords.col(j)) for j in range(coords.ncols)]


def _is_nilpotent_ideal(end, rad):
    """True iff the span of `rad` is a two-sided ideal of End whose powers reach zero."""
    # The first product outside the span of rad is independent of rad and
    # of the products before it, so one elimination tests them all.
    prods = [prod for r in rad for b in end.basis for prod in (r.then(b), b.then(r))]
    if any(i >= len(rad) for i in independent_indices(rad + prods)):
        return False
    layer = [rad[i] for i in independent_indices(rad)]
    for _ in range(end.dim + 1):
        if not layer:
            break
        nxt = [r.then(s) for r in layer for s in rad]
        layer = [nxt[i] for i in independent_indices(nxt)]
    return not layer


def _s_is_field_certificate(end, rad, rng):
    """Try to certify that S = End/J is a field: S is commutative and some
    random element has an irreducible minimal polynomial of degree dim S.

    One row reduction of the coordinate columns of J's basis, End's basis and
    every product of two basis elements of End gives both: its pivots in
    End's basis pick the basis elements whose cosets are a basis of S, and
    its reduced rows for them hold the coordinates mod J of the products.
    Row i of `table` is the matrix of left multiplication by basis element i
    of S, read row by row, so an element's matrix is one product of its
    coordinate row with `table`.
    """
    field = end.module.algebra.field
    start, dim = len(rad), end.dim
    homs = rad + end.basis + [a.then(b) for a in end.basis for b in end.basis]
    _, pivots, red = coordinate_rows(homs).transpose().rref()
    if pivots[-1] >= start + dim:
        raise QuivrepError("a product of endomorphisms outside End")
    chosen = [i - start for i in pivots[start:]]
    dim_s = len(chosen)
    ints, den = red.int_form()
    mod_j = ints[start : start + dim_s]
    # cols[i][j]: the column of basis element chosen[i] then chosen[j]
    cols = [[start + dim + a * dim + b for b in chosen] for a in chosen]
    if any(r[cols[i][j]] != r[cols[j][i]] for r in mod_j for i in range(dim_s) for j in range(i)):
        return False
    flat = [[r[c] for r in mod_j for c in cols[i]] for i in range(dim_s)]
    table = Mat.from_ints(field, flat, den, dim_s, dim_s * dim_s)
    for _ in range(24):
        row = Mat(field, [[field.random(rng, span=4) for _ in range(dim_s)]], 1, dim_s)
        mu = minimal_polynomial((row * table).unstack_flat([(dim_s, dim_s)])[0][0])
        if len(mu) - 1 != dim_s:
            continue
        facs = factor_polynomial(mu, field)
        if len(facs) == 1 and facs[0][1] == 1:
            return True
    return False


def is_indecomposable(m, seed=0):
    """(verdict, certificate); certificate explains the decision.

    Certificates, in order of attempt (see the module docstring), each over
    Q and every GF(p) unless noted:

    - ("end-dim-1",)
    - ("local-residue-1",)
    - ("split", [SummandData, ...]), from the seeded candidate search
    - ("local-residue-field", dim End/J)
    - over GF(p) with p^dim End <= 2^16 only: ("no-idempotents-exhaustive",),
      or a split from the exhaustive search

    Raises Inconclusive when none applies (never on the shipped fixtures).
    """
    if m.is_zero():
        raise ZeroModule("indecomposability of the zero module")
    rng = random.Random(seed)
    end = EndAlgebra(m)
    if end.dim == 1:
        return True, ("end-dim-1",)
    rad = _end_radical(end)
    dim_s = end.dim - len(rad)
    if dim_s == 1 and _is_nilpotent_ideal(end, rad):
        return True, ("local-residue-1",)
    for h in _candidate_endos(end, rng):
        parts = _split_by_hom(m, h)
        if parts is not None:
            return False, ("split", parts)
    if dim_s > 1 and _is_nilpotent_ideal(end, rad) and _s_is_field_certificate(end, rad, rng):
        return True, ("local-residue-field", dim_s)
    field = m.algebra.field
    if field.p and field.p ** end.dim <= 1 << 16:
        idem = _exhaustive_idempotent(end)
        if idem is None:
            return True, ("no-idempotents-exhaustive",)
        # a nontrivial idempotent e splits M into ker e and im e
        return False, ("split", _split_by_hom(m, idem))
    raise Inconclusive(
        "cannot certify indecomposability: dim End = %d over %s" % (end.dim, field)
    )


def _exhaustive_idempotent(end):
    """Search all of End for a nontrivial idempotent (small prime fields)."""
    field = end.module.algebra.field
    ident = ModHom.identity(end.module)
    for tup in product(range(field.p), repeat=end.dim):
        h = end.from_coordinates([field.conv(c) for c in tup])
        if h.is_zero() or h == ident:
            continue
        if h.then(h) == h:
            return h
    return None


def split_indecomposable_parts(m, seed=0):
    """Full list of SummandData with each part certified indecomposable."""
    if m.is_zero():
        return []
    verdict, cert = is_indecomposable(m, seed=seed)
    if verdict:
        ident = ModHom.identity(m)
        return [SummandData(m, ident, ident)]
    parts = []
    for sd in cert[1]:
        for inner in split_indecomposable_parts(sd.rep, seed=seed + 1):
            parts.append(
                SummandData(inner.rep, inner.incl.then(sd.incl), sd.proj.then(inner.proj))
            )
    # verify the idempotents are orthogonal and complete
    idems = [sd.proj.then(sd.incl) for sd in parts]
    if sum(idems[1:], idems[0]) != ModHom.identity(m):
        raise QuivrepError("split witnesses do not sum to the identity")
    return parts


def decompose(m, seed=0):
    """[(indecomposable summand, multiplicity)] via Krull-Remak-Schmidt."""
    parts = split_indecomposable_parts(m, seed=seed)
    groups = []
    for sd in parts:
        for g in groups:
            if _indecomposables_iso(g[0].rep, sd.rep) is not None:
                g.append(sd)
                break
        else:
            groups.append([sd])
    return [(g[0].rep, len(g)) for g in groups]


class IsoReport:
    """Outcome of an isomorphism test with witness or refutation."""

    def __init__(self, verdict, witness=None, refutation=None):
        self.verdict = verdict
        self.witness = witness
        self.refutation = refutation

    def __repr__(self):
        return "IsoReport(%s)" % self.verdict


def _invariant_refutation(m, n):
    if m.dims != n.dims:
        return "dimension vectors differ: %s vs %s" % (m.dims, n.dims)
    am = annihilator_dimension(m)[0]
    an = annihilator_dimension(n)[0]
    if am != an:
        return "annihilator dimensions differ: %d vs %d" % (am, an)
    dim_mn = hom_dimension(m, n)
    dim_nm = hom_dimension(n, m)
    dim_end_m = hom_dimension(m, m)
    dim_end_n = hom_dimension(n, n)
    if dim_end_m != dim_end_n:
        return "dim End differs: %d vs %d" % (dim_end_m, dim_end_n)
    if dim_mn != dim_end_m or dim_nm != dim_end_m:
        return "dim Hom differs from dim End: hom=%d/%d end=%d" % (
            dim_mn,
            dim_nm,
            dim_end_m,
        )
    return None


def _search_iso(m, n, seed):
    """`are_isomorphic` up to the summand match: an IsoReport, or None
    where no stage decides.

    The stages: the algebra check, equality, the invariant refutation, and
    64 seeded random combinations of the `hom_space(M, N)` basis, each
    verified by `is_isomorphism`.  Two zero modules over one algebra are
    equal, and the invariants give dim Hom(M, N) = dim End M >= 1 for M
    nonzero, so the basis is never empty here."""
    if m.algebra != n.algebra:
        raise AlgebraMismatch("modules over different algebras")
    if m == n:
        return IsoReport("isomorphic", ModHom.identity(m))
    ref = _invariant_refutation(m, n)
    if ref is not None:
        return IsoReport("not-isomorphic", refutation=ref)
    homs = hom_space(m, n)
    field = m.algebra.field
    rng = random.Random(seed)
    for _ in range(64):
        coefs = [field.random(rng, span=7) for _ in homs]
        cand = combine(coefs, homs, m, n)
        if cand.is_isomorphism():
            return IsoReport("isomorphic", cand)
    return None


def _indecomposables_iso(m, n):
    """An isomorphism M -> N, or None when there is none, for modules
    certified indecomposable; never inconclusive.

    It is the first element of the `hom_space(M, N)` basis that is
    invertible.  End(M) is local, so if some phi: M -> N is invertible, the
    non-isomorphisms M -> N form phi.J(End M), a proper subspace of Hom(M, N)
    that cannot hold the whole basis.
    """
    if m == n:
        return ModHom.identity(m)
    if m.dims != n.dims:
        return None
    return next((f for f in hom_space(m, n) if f.is_isomorphism()), None)


def _match_summands(m, n, seed):
    """IsoReport from matching the indecomposable summands of M and N: the
    assembled witness, or a refutation by the summand counts or by the
    first summand of M without a match.  Raises Inconclusive where a
    summand's indecomposability does."""
    pm = split_indecomposable_parts(m, seed=seed)
    pn = split_indecomposable_parts(n, seed=seed)
    if len(pm) != len(pn):
        return IsoReport(
            "not-isomorphic", refutation="summand counts differ: %d vs %d" % (len(pm), len(pn))
        )
    used = [False] * len(pn)
    pieces = []
    for sd in pm:
        for j, td in enumerate(pn):
            if used[j]:
                continue
            iso = _indecomposables_iso(sd.rep, td.rep)
            if iso is not None:
                used[j] = True
                pieces.append(sd.proj.then(iso).then(td.incl))
                break
        else:
            return IsoReport(
                "not-isomorphic",
                refutation="no summand of N is isomorphic to the summand of M with dims %s"
                % sd.rep.dims,
            )
    witness = sum(pieces[1:], pieces[0]) if pieces else ModHom.zero_hom(m, n)
    if not witness.is_isomorphism():
        raise QuivrepError("matched summands assemble to a hom that is not an isomorphism")
    return IsoReport("isomorphic", witness)


def match_decompositions(m, n, seed=0):
    """Iso witness M -> N assembled by matching indecomposable summands.

    Returns None when the multisets of summands do not match.
    """
    return _match_summands(m, n, seed).witness


def are_isomorphic(m, n, seed=0):
    """IsoReport with a verified witness or a recomputable refutation.

    The stages, in order (see the module docstring): equality, invariant
    refutations and the seeded random trials of `_search_iso`, then the
    summand match.  The verdict is "inconclusive" only when a summand's
    indecomposability raises Inconclusive."""
    report = _search_iso(m, n, seed)
    if report is not None:
        return report
    try:
        return _match_summands(m, n, seed)
    except Inconclusive:
        return IsoReport("inconclusive")
