"""Pushouts, pullbacks, exact squares, and split mono/epi tests.

A square

        X --f--> Y1
        |g       |g'
        v        v
        Y2 -f'-> Z

is exact when 0 -> X -> Y1 + Y2 -> Z -> 0 (maps [f; g] and [g', -f']) is a
short exact sequence, i.e. the square commutes and is simultaneously a
pushout and a pullback.  A `Square` is a record of its corners and edges,
checked by no constructor: `is_exact_square` decides commutation together
with the ranks.  Splitness is solved in hom-space coordinates: a retraction
r of f solves f.then(r) == id (`rep.factor_from`) and a section s solves
s.then(f) == id (`rep.factor_through`), each exactly inside the hom space,
never by randomized search.
"""

from .errors import EdgeMismatch, NotExact, QuivrepError
from .rep import (
    ModHom,
    QuotientData,
    descend_through_epi,
    direct_sum,
    factor_from,
    factor_through,
    hom_from_blocks,
    kernel,
    sum_module,
)


class Square:
    """Four corner modules and four maps, unchecked; `commutes` and
    `is_exact_square` test them."""

    def __init__(self, x, y1, y2, z, f, g, gp, fp):
        self.x, self.y1, self.y2, self.z = x, y1, y2, z
        self.f, self.g, self.gp, self.fp = f, g, gp, fp

    def commutes(self):
        return self.f.then(self.gp) == self.g.then(self.fp)

    def __repr__(self):
        return "Square(X=%s, Z=%s)" % (self.x.dims, self.z.dims)


def _rank_failure(vertices):
    """Why 0 -> A -i-> B -p-> C -> 0 fails the rank test of exactness at a
    vertex (i injective, p surjective, rank i + rank p = dim B), or None.
    `vertices` yields (v, i_v, p_v, dim A_v, dim B_v, dim C_v)."""
    for v, i, p, da, db, dc in vertices:
        ri = i.rank()
        if ri != da:
            return "inclusion not injective at vertex %s (rank %d of %d)" % (v, ri, da)
        rp = p.rank()
        if rp != dc:
            return "projection not surjective at vertex %s (rank %d of %d)" % (v, rp, dc)
        if ri + rp != db:
            return "middle exactness fails at vertex %s: rank(i)=%d, rank(p)=%d, dim=%d" % (
                v, ri, rp, db,
            )
    return None


class ShortExact:
    """0 -> A -i-> B -p-> C -> 0 with exactness verified on construction."""

    def __init__(self, a, b, c, i, p):
        self.a, self.b, self.c = a, b, c
        self.i, self.p = i, p
        err = self.exactness_failure()
        if err:
            raise NotExact(err)

    def exactness_failure(self):
        err = _rank_failure(
            (v, self.i.blocks[v], self.p.blocks[v], self.a.dims[v], dim, self.c.dims[v])
            for v, dim in self.b.dims.items()
        )
        if err:
            return err
        if not self.i.then(self.p).is_zero():
            return "composite i;p nonzero"
        return None

    def __repr__(self):
        return "ShortExact(%s -> %s -> %s)" % (self.a.dims, self.b.dims, self.c.dims)


def pushout(w, v):
    """Pushout square of two maps with common source.

    Z is the cokernel of x |-> (w(x), -v(x)) into Y1 + Y2; the returned
    square has f = w, g = v.  When [w; v] is injective the square is exact.
    The maps g' and f' are the projection onto Z composed with the
    injections of Y1 and Y2, so their blocks are column slices of the
    projection's: at each vertex, the columns at Y1's coordinates and the
    columns at Y2's, which come after them.
    """
    if w.source != v.source:
        raise QuivrepError("pushout needs a common source")
    y1, y2 = w.target, v.target
    # the image of x |-> (w(x), -v(x)) is spanned by the columns of [w; -v]
    q = QuotientData(
        sum_module([y1, y2]), {s: w.blocks[s].vstack(-v.blocks[s]) for s in w.blocks}
    )
    proj = q.proj.blocks
    gp = ModHom(y1, q.rep, {s: b.columns(0, y1.dims[s]) for s, b in proj.items()}, check=False)
    fp = ModHom(y2, q.rep, {s: b.columns(y1.dims[s], b.ncols) for s, b in proj.items()},
                check=False)
    return Square(w.source, y1, y2, q.rep, w, v, gp, fp)


def pullback(f, g):
    """Pullback square of two maps with common target.

    X is the kernel of (y1, y2) |-> f(y1) - g(y2); the returned square has
    g' = f and f' = g.
    """
    if f.target != g.target:
        raise QuivrepError("pullback needs a common target")
    y1, y2 = f.source, g.source
    total = direct_sum([y1, y2])
    x, incl = kernel(hom_from_blocks(total, f.target, {(0, 0): f, (0, 1): -g}))
    to_y1, to_y2 = (incl.then(p) for p in total[2])
    return Square(x, y1, y2, f.target, to_y1, to_y2, f, g)


def is_exact_square(s):
    """True iff the 4-term sequence of the square is short exact: its
    composite is zero, as the square commutes, and it passes the rank test."""
    return s.commutes() and _rank_failure(
        (v, s.f.blocks[v].vstack(s.g.blocks[v]), s.gp.blocks[v].hstack(-s.fp.blocks[v]),
         dim, s.y1.dims[v] + s.y2.dims[v], s.z.dims[v])
        for v, dim in s.x.dims.items()
    ) is None


def square_sequence(s):
    """The short exact sequence 0 -> X -> Y1+Y2 -> Z -> 0 of an exact square."""
    total = direct_sum([s.y1, s.y2])
    mono = hom_from_blocks(s.x, total, {(0, 0): s.f, (1, 0): s.g})
    epi = hom_from_blocks(total, s.z, {(0, 0): s.gp, (0, 1): -s.fp})
    return ShortExact(s.x, total[0], s.z, mono, epi)


def pushout_factor(sq, g1, g2):
    """The unique map h out of a pushout with gp;h = g1 and fp;h = g2.

    g1: Y1 -> T and g2: Y2 -> T must agree on the glued image
    (g1 o f = g2 o g); solved exactly and re-verified.
    """
    if g1.target != g2.target:
        raise QuivrepError("factorization maps need a common target")
    total = direct_sum([sq.y1, sq.y2])
    epi = hom_from_blocks(total, sq.z, {(0, 0): sq.gp, (0, 1): sq.fp})
    g = hom_from_blocks(total, g1.target, {(0, 0): g1, (0, 1): g2})
    out = descend_through_epi(epi, g)
    if out is None:
        raise QuivrepError("maps do not factor through the pushout")
    if sq.gp.then(out) != g1 or sq.fp.then(out) != g2:
        raise QuivrepError("pushout factorization failed")
    return out


def compose_squares(left, right, orientation="horizontal"):
    """Paste two squares along the shared edge.

    horizontal: right.g must equal left.gp (the shared vertical edge);
    vertical: right.f must equal left.fp (the shared horizontal edge).
    Exactness is preserved when both inputs are exact.
    """
    if orientation == "horizontal":
        if left.y1 != right.x or left.z != right.y2 or right.g != left.gp:
            raise EdgeMismatch("horizontal composition: shared edge mismatch")
        return Square(
            left.x,
            right.y1,
            left.y2,
            right.z,
            left.f.then(right.f),
            left.g,
            right.gp,
            left.fp.then(right.fp),
        )
    if orientation == "vertical":
        if left.y2 != right.x or left.z != right.y1 or right.f != left.fp:
            raise EdgeMismatch("vertical composition: shared edge mismatch")
        return Square(
            left.x,
            left.y1,
            right.y2,
            right.z,
            left.f,
            left.g.then(right.g),
            left.gp.then(right.gp),
            right.fp,
        )
    raise QuivrepError("orientation must be horizontal or vertical")


def trivial_square(a, x):
    """The always-exact square padding a map by a direct summand X.

        U --a--> V
        |[1;0]   |[1;0]
        v        v
        U+X -a+1-> V+X
    """
    u, vmod = a.source, a.target
    ux, vx = direct_sum([u, x]), direct_sum([vmod, x])
    bottom = hom_from_blocks(ux, vx, {(0, 0): a, (1, 1): ModHom.identity(x)})
    return Square(u, vmod, ux[0], vx[0], a, ux[1][0], vx[1][0], bottom)


def is_split_mono(f):
    """Retraction r with r o f = id, or None; decided by exact solving."""
    if not f.is_injective():
        return None
    one = ModHom.identity(f.source)
    r = factor_from(f, one)
    if r is not None and f.then(r) != one:
        raise QuivrepError("solved retraction is not a one-sided inverse")
    return r


def is_split_epi(f):
    """Section s with f o s = id, or None; decided by exact solving."""
    if not f.is_surjective():
        return None
    one = ModHom.identity(f.target)
    sec = factor_through(f, one)
    if sec is not None and sec.then(f) != one:
        raise QuivrepError("solved section is not a one-sided inverse")
    return sec
