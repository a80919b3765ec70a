"""Projective covers, syzygies, Ext^1, and the standard-self-extension
subgroup with its conversion to ladder seeds.

Ext^1(M, N) is represented relative to a fixed minimal projective
presentation 0 -> Omega M -u-> PM -p-> M -> 0 as
Hom(Omega M, N) / Im(Hom(u, N)); two representatives are equal as classes
iff their difference lies in that image.
"""

from operator import mul

from .algebra import projective
from .errors import NotStandard, QuivrepError, ZeroModule
from .linalg import Mat
from .rep import (
    ModHom,
    QuotientData,
    descend_through_epi,
    factor_through,
    hom_coordinates,
    hom_space,
    independent_indices,
    kernel,
    lift_through_mono,
    radical,
    sum_module,
    top_data,
)
from .squares import ShortExact, pushout, pushout_factor


def _cover(m):
    """(P, p, Omega M, u): P = direct sum of P(i)^{dim top(M)_i}, p minimal
    onto M, and its kernel with the inclusion."""
    if m.is_zero():
        raise ZeroModule("projective cover of the zero module")
    alg = m.algebra
    td = top_data(m)
    parts = []
    generators = []  # image in M of each projective generator
    for v in alg.quiver.vertices:
        mult = td.rep.dims[v]
        if mult == 0:
            continue
        p_v, gen_idx = projective(alg, v)
        lifts = td.section[v]  # columns lift the top basis back to M
        for j in range(mult):
            parts.append((p_v, gen_idx, v, lifts.col(j)))
    total = sum_module([p for p, _, _, _ in parts])
    columns = {v: [] for v in m.dims}  # of the block at v, in order
    pb = alg.path_basis()
    for p_v, gen_idx, src, lift in parts:
        # the generator e_src goes to the lifted top vector; every basis path
        # rho: src -> t sends it to rho acting on that vector
        words = pb.words_from(src)
        for t in m.dims:
            for w in words[t]:
                if w == ():
                    columns[t].append(lift)
                    continue
                rows = m.path_action(w).rows
                columns[t].append([alg.field.conv(sum(map(mul, row, lift))) for row in rows])
    blocks = {
        v: Mat(alg.field, [[c[i] for c in columns[v]] for i in range(m.dims[v])],
               m.dims[v], total.dims[v])
        for v in m.dims
    }
    p = ModHom(total, m, blocks)
    if not p.is_surjective():
        raise QuivrepError("projective cover map is not surjective")
    # minimality: ker(p) inside rad(P)
    omega, u = kernel(p)
    rad_p = radical(total)
    for v in m.dims:
        combined = rad_p.basis[v].hstack(u.blocks[v]).column_space()
        if combined.ncols != rad_p.basis[v].ncols:
            raise QuivrepError("projective cover is not minimal")
    return total, p, omega, u


def projective_cover(m):
    """(P, p) with P = direct sum of P(i)^{dim top(M)_i} and p minimal onto M."""
    return _cover(m)[:2]


def syzygy(m):
    """(Omega M, u) = kernel of the projective cover with its inclusion."""
    if m.is_zero():
        raise ZeroModule("syzygy of the zero module")
    return _cover(m)[2:]


class Presentation:
    """Cached minimal presentation 0 -> Omega -u-> P -p-> M -> 0."""

    def __init__(self, m):
        self.module = m
        self.p_total, self.p, self.omega, self.u = _cover(m)


class ExtClass:
    """An element of Ext^1(M, N) given by a representative Omega M -> N."""

    def __init__(self, m, n, representative, presentation):
        self.m = m
        self.n = n
        self.representative = representative
        self.presentation = presentation

    def is_zero_class(self):
        return _in_u_image(self.presentation, self.n, self.representative)

    def equals(self, other):
        if self.presentation is not other.presentation or self.n != other.n:
            raise QuivrepError("classes live in different Ext groups")
        return _in_u_image(self.presentation, self.n, self.representative - other.representative)


def hom_u_image(pres, n):
    """Basis (as ModHoms Omega -> N) of Im(Hom(u, N))."""
    maps = hom_space(pres.p_total, n)
    return [pres.u.then(h) for h in maps]


def _in_u_image(pres, n, f):
    image = [h for h in hom_u_image(pres, n) if not h.is_zero()]
    return hom_coordinates(image, f) is not None


def ext1(m, n, presentation=None):
    """(dim Ext^1(M, N), basis of classes).

    dim = dim Hom(Omega M, N) - dim Im(Hom(u, N)); the class basis lifts a
    complement of the image inside the hom space.
    """
    if m.is_zero():
        return 0, []
    pres = presentation or Presentation(m)
    homs = hom_space(pres.omega, n)
    if not homs:
        return 0, []
    image = [h for h in hom_u_image(pres, n) if not h.is_zero()]
    # the homs that extend the u-image: as many as dim Hom - dim Im
    chosen = [
        ExtClass(m, n, homs[i - len(image)], pres)
        for i in independent_indices(image + homs)
        if i >= len(image)
    ]
    return len(chosen), chosen


def class_to_sequence(c):
    """Realize an Ext class as a short exact sequence by pushout."""
    pres = c.presentation
    sq = pushout(pres.u, c.representative)
    # epi E -> M induced by p, which kills u(Omega) and hence descends
    epi = pushout_factor(sq, pres.p, ModHom.zero_hom(c.n, c.m))
    mono = sq.fp  # N -> E
    return ShortExact(c.n, sq.z, c.m, mono, epi)


def ext_class_of_sequence(ses, presentation=None):
    """The Ext class of 0 -> N -> E -> M -> 0 relative to the presentation.

    Lifts p: PM -> M through the epi, then reads off Omega M -> N.
    """
    m = ses.c
    n = ses.a
    pres = presentation or Presentation(m)
    lift = factor_through(ses.p, pres.p)
    if lift is None:
        raise QuivrepError("projective lifting failed (epi not surjective?)")
    # restrict to Omega M: lands in ker(p) = im(i); express through i
    omega_to_e = pres.u.then(lift)
    rep = lift_through_mono(ses.i, omega_to_e)
    if rep is None:
        raise QuivrepError("map does not land in the mono image")
    return ExtClass(m, n, rep, pres)


def standard_subspace(m, presentation=None):
    """(dimension, basis classes) of Ext^1(M,M)_s = Im(Hom(Omega,p)) / Im(Hom(u,M))."""
    if m.is_zero():
        return 0, []
    pres = presentation or Presentation(m)
    maps = hom_space(pres.omega, pres.p_total)
    through_p = [h.then(pres.p) for h in maps]
    image_u = [h for h in hom_u_image(pres, m) if not h.is_zero()]
    # verify the containment Im(Hom(u, M)) <= Im(Hom(Omega, p)): no element
    # of the u-image is independent of the maps through p
    if any(i >= len(through_p) for i in independent_indices(through_p + image_u)):
        raise QuivrepError("containment of hom images fails")
    nonzero_p = [h for h in through_p if not h.is_zero()]
    basis = [
        ExtClass(m, m, nonzero_p[i - len(image_u)], pres)
        for i in independent_indices(image_u + nonzero_p)
        if i >= len(image_u)
    ]
    return len(basis), basis


def is_standard(c):
    """True iff the representative factors through the cover map p."""
    return factor_through(c.presentation.p, c.representative) is not None


def standard_to_ladder(c):
    """Ladder seed (u, w') with p o w' = representative; NotStandard if none.

    The depth-2 ladder of the seed rebuilds the extension of the class.
    """
    pres = c.presentation
    wprime = factor_through(pres.p, c.representative)
    if wprime is None:
        raise NotStandard("representative does not factor through the cover")
    return pres.u, wprime


def reduced_presentation_seed(c):
    """Ladder seed through the quotient presentation PM/u(K), K = ker(representative).

    Returns (qbar, v0) where qbar: PM/u(K) -> M is the induced epi and v0
    lifts the induced map ker(qbar) -> M through qbar; None when no lift
    exists.  Feeding these to ladder_extension rebuilds the extension when
    it is a ladder extension of this shape.
    """
    pres = c.presentation
    f = c.representative
    k_rep, k_incl = kernel(f)
    uk = k_incl.then(pres.u)  # K -> PM
    qd = QuotientData(pres.p_total, uk.blocks)
    qbar = qd.induce_from(pres.p)  # PM/u(K) -> M
    if not qbar.is_surjective():
        return None
    w0 = kernel(qbar)[1]
    # Omega -> PM/u(K) lands in ker(qbar); corestricted there it is an epi
    # theta with kernel K = ker f, so f descends through theta to the map
    # fbar: ker(qbar) -> M that v0 lifts through qbar
    theta = lift_through_mono(w0, pres.u.then(qd.proj))
    if theta is None:
        return None
    fbar = descend_through_epi(theta, f)
    if fbar is None or theta.then(fbar) != f:
        return None
    v0 = factor_through(qbar, fbar)
    if v0 is None:
        return None
    return qbar, v0


def proj_dim_at_most_one(m):
    """True iff the syzygy is projective (its cover map is an isomorphism)."""
    if m.is_zero():
        return True
    omega, _ = syzygy(m)
    if omega.is_zero():
        return True
    p_total, p = projective_cover(omega)
    return p.is_isomorphism()
