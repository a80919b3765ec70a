"""Finite-dimensional modules over a presented algebra, and their maps.

A Rep assigns a matrix to every arrow; zero-dimensional vertex spaces are
first class.  A ModHom is a vertex-indexed family of blocks commuting with
the arrow actions.  Submodules are stored by canonical echelonized spanning
sets so every derived object (kernel, image, quotient) is reproducible.

Maps are factored one way for each kind of map they factor through: a map
into the image of a mono by `lift_through_mono`, a map out of a quotient by
`QuotientData.induce_from`, and a map out of any other epi by
`descend_through_epi`.  Maps into and between direct sums are placed
block by block by `hom_from_blocks`.
"""

from itertools import accumulate
from math import lcm

from .errors import AlgebraMismatch, QuivrepError
from .linalg import Mat, block_diagonal, place_blocks, quotient_maps, sylvester_system


class Rep:
    """A representation: dims per vertex, one matrix per arrow."""

    def __init__(self, algebra, dims, action, check=True):
        self.algebra = algebra
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        self.action = {}
        for a, s, t in algebra.quiver.arrows:
            m = action.get(a)
            if m is None:
                m = Mat.zeros(algebra.field, self.dims[t], self.dims[s])
            if m.shape != (self.dims[t], self.dims[s]):
                raise QuivrepError(
                    "matrix for arrow %s has shape %s, expected (%d, %d)"
                    % (a, m.shape, self.dims[t], self.dims[s])
                )
            self.action[a] = m
        if check:
            bad = self.failing_relation()
            if bad is not None:
                raise QuivrepError("relation %r does not vanish on representation" % (bad,))

    def failing_relation(self):
        for rel in self.algebra.relations:
            total = None
            for c, w in rel:
                m = self.path_action(w).scale(c)
                total = m if total is None else total + m
            if total is not None and not total.is_zero():
                return rel
        return None

    def path_action(self, word):
        """Matrix of a path (execution order): M = M_last * ... * M_first."""
        if not word:
            raise QuivrepError("path_action needs a nonempty word (idempotents act as identity)")
        m = self.action[word[0]]
        for a in word[1:]:
            m = self.action[a] * m
        return m

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim() == 0

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.algebra == other.algebra
            and self.dims == other.dims
            and self.action == other.action
        )

    def __repr__(self):
        return "Rep(dims=%s)" % (self.dims,)

    @staticmethod
    def zero(algebra):
        return Rep(algebra, {}, {}, check=False)

    @staticmethod
    def simple(algebra, vertex):
        return Rep(algebra, {vertex: 1}, {}, check=False)


class ModHom:
    """A homomorphism of representations: one block per vertex."""

    def __init__(self, source, target, blocks, check=True):
        if source.algebra != target.algebra:
            raise AlgebraMismatch("hom between modules over different algebras")
        self.source = source
        self.target = target
        self.blocks = {}
        for v in source.algebra.quiver.vertices:
            b = blocks.get(v)
            if b is None:
                b = Mat.zeros(source.algebra.field, target.dims[v], source.dims[v])
            if b.shape != (target.dims[v], source.dims[v]):
                raise QuivrepError(
                    "block at %s has shape %s, expected (%d, %d)"
                    % (v, b.shape, target.dims[v], source.dims[v])
                )
            self.blocks[v] = b
        if check:
            bad = self.failing_arrow()
            if bad is not None:
                raise QuivrepError(
                    "blocks do not commute with the action of arrow %r" % (bad,)
                )

    def failing_arrow(self):
        for a, s, t in self.source.algebra.quiver.arrows:
            if self.target.action[a] * self.blocks[s] != self.blocks[t] * self.source.action[a]:
                return a
        return None

    def commutes(self):
        return self.failing_arrow() is None

    def then(self, other):
        """Composite `other o self` (apply self first)."""
        if other.source is not self.target and other.source != self.target:
            raise QuivrepError("composition endpoint mismatch")
        return ModHom(
            self.source,
            other.target,
            {v: other.blocks[v] * self.blocks[v] for v in self.blocks},
            check=False,
        )

    def _check_parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise QuivrepError("hom arithmetic needs equal endpoints")

    def __add__(self, other):
        self._check_parallel(other)
        return ModHom(
            self.source,
            self.target,
            {v: self.blocks[v] + other.blocks[v] for v in self.blocks},
            check=False,
        )

    def __sub__(self, other):
        self._check_parallel(other)
        return ModHom(
            self.source,
            self.target,
            {v: self.blocks[v] - other.blocks[v] for v in self.blocks},
            check=False,
        )

    def __neg__(self):
        return ModHom(
            self.source, self.target, {v: -self.blocks[v] for v in self.blocks}, check=False
        )

    def scale(self, c):
        return ModHom(
            self.source,
            self.target,
            {v: self.blocks[v].scale(c) for v in self.blocks},
            check=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModHom)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks.values())

    def is_injective(self):
        return all(b.nrows >= b.ncols and b.rank() == b.ncols for b in self.blocks.values())

    def is_surjective(self):
        return all(b.ncols >= b.nrows and b.rank() == b.nrows for b in self.blocks.values())

    def is_isomorphism(self):
        return all(
            b.nrows == b.ncols and b.rank() == b.nrows for b in self.blocks.values()
        )

    def inverse(self):
        """The inverse hom, block by block; raises when a block is not an
        invertible square matrix."""
        blocks = {}
        for v, b in self.blocks.items():
            blocks[v] = b.inverse()
            if blocks[v] is None:
                raise QuivrepError("inverse of a non-isomorphism")
        return ModHom(self.target, self.source, blocks, check=False)

    def __repr__(self):
        return "ModHom(%s -> %s)" % (self.source.dims, self.target.dims)

    @staticmethod
    def identity(m):
        return ModHom(
            m, m, {v: Mat.identity(m.algebra.field, m.dims[v]) for v in m.dims}, check=False
        )

    @staticmethod
    def zero_hom(source, target):
        return ModHom(source, target, {}, check=False)


class Submodule:
    """A submodule of an ambient Rep, stored by canonical spanning matrices."""

    def __init__(self, ambient, basis):
        self.ambient = ambient
        self.basis = basis  # vertex -> Mat (dims[v] x k_v), echelonized columns
        self.dims = {v: basis[v].ncols for v in basis}

    def total_dim(self):
        return sum(self.dims.values())

    def inclusion_rep(self):
        """The submodule as a Rep plus its inclusion ModHom."""
        amb = self.ambient
        action = {}
        for a, s, t in amb.algebra.quiver.arrows:
            mapped = amb.action[a] * self.basis[s]
            coeff = self.basis[t].solve_right(mapped)
            if coeff is None:
                raise QuivrepError("spanning set is not arrow-stable")
            action[a] = coeff
        sub = Rep(amb.algebra, self.dims, action)
        incl = ModHom(sub, amb, dict(self.basis))
        return sub, incl


def _check_same_algebra(*reps):
    alg = reps[0].algebra
    for r in reps[1:]:
        if r.algebra != alg:
            raise AlgebraMismatch("representations over different algebras")


def hom_space(m, n):
    """Basis of Hom(M, N) as a list of ModHom.

    Solves the commutation system T_a B_i = B_j S_a for all arrows a: i->j.
    """
    _check_same_algebra(m, n)
    verts = m.algebra.quiver.vertices
    shapes = [(n.dims[v], m.dims[v]) for v in verts]
    basis = _commutation_system(m, n).null_space().transpose().unstack_flat(shapes)
    return [ModHom(m, n, dict(zip(verts, blocks)), check=False) for blocks in basis]


def hom_dimension(m, n):
    """dim Hom(M, N), with no basis built: the number of unknowns of the
    commutation system minus its rank."""
    _check_same_algebra(m, n)
    system = _commutation_system(m, n)
    return system.ncols - system.rank()


def _commutation_system(m, n):
    """The system T_a B_s - B_t S_a = 0, one equation for every arrow
    a: s -> t, in the unknown blocks B_v of a hom M -> N, each flattened row
    by row, one vertex after the other; the canonical basis of its null
    space is `hom_space`."""
    verts = m.algebra.quiver.vertices
    index = {v: i for i, v in enumerate(verts)}
    shapes = [(n.dims[v], m.dims[v]) for v in verts]
    arrows = m.algebra.quiver.arrows
    equations = [(index[s], index[t], n.action[a], m.action[a]) for a, s, t in arrows]
    return sylvester_system(m.algebra.field, shapes, equations)


def coordinate_rows(homs):
    """The matrix whose row k holds the coordinates of homs[k], as in
    `hom_space`: its blocks, each read row by row, one vertex after the
    other.  The homs all go from one source to one target."""
    src, tgt = homs[0].source, homs[0].target
    verts = src.algebra.quiver.vertices
    length = sum(tgt.dims[v] * src.dims[v] for v in verts)
    return Mat.stack_flat(src.algebra.field, [[h.blocks[v] for v in verts] for h in homs], length)


def combine(coeffs, homs, source, target):
    """The hom sum c_i * h_i: source -> target, for homs from source to target.

    Each vertex block is summed over one denominator, the lcm of the
    coefficients' times the blocks' denominators, with no product taken.
    """
    if len(coeffs) != len(homs):
        raise QuivrepError("%d coefficients for %d homs" % (len(coeffs), len(homs)))
    field = source.algebra.field
    p = field.p
    # each nonzero c_i as an integer over a positive denominator
    terms = [((c, 1) if p else (c.numerator, c.denominator), h)
             for c, h in zip(map(field.conv, coeffs), homs) if c]
    blocks = {}
    for v in source.algebra.quiver.vertices:
        nrows, ncols = target.dims[v], source.dims[v]
        if not (terms and nrows and ncols):
            continue
        forms = [(num, cden, h.blocks[v].int_form()) for (num, cden), h in terms]
        den = lcm(*(cden * d for _, cden, (_, d) in forms))
        acc = [[0] * ncols for _ in range(nrows)]
        for num, cden, (ints, d) in forms:
            mult = num * (den // (cden * d))
            for arow, brow in zip(acc, ints):
                for j, x in enumerate(brow):
                    if x:
                        arow[j] += mult * x
        if p:
            acc = [[x % p for x in row] for row in acc]
        blocks[v] = Mat.from_ints(field, acc, den, nrows, ncols)
    return ModHom(source, target, blocks, check=False)


def hom_coordinates(basis, h):
    """Coordinates c, one per element of `basis`, with sum c_i * basis_i == h,
    or None when h is not in their span.  Free coordinates are zero, so the
    answer is canonical; `combine` maps it back to h."""
    if not basis:
        return [] if h.is_zero() else None
    sol = coordinate_rows(basis).transpose().solve_right(coordinate_rows([h]).transpose())
    return None if sol is None else sol.col(0)


def independent_indices(homs):
    """Indices of the homs not in the span of the earlier ones: the pivot
    columns of the matrix whose columns are their coordinate vectors."""
    if not homs:
        return []
    return coordinate_rows(homs).transpose().rref()[1]


def factor_through(given, target):
    """x: target.source -> given.source with x.then(given) == target, or None."""
    homs = hom_space(target.source, given.source)
    coords = hom_coordinates([h.then(given) for h in homs], target)
    return None if coords is None else combine(coords, homs, target.source, given.source)


def factor_from(through, target):
    """t: through.target -> target.target with through.then(t) == target, or None."""
    homs = hom_space(through.target, target.target)
    coords = hom_coordinates([through.then(h) for h in homs], target)
    return None if coords is None else combine(coords, homs, through.target, target.target)


def kernel(f):
    """(K, incl) with K the kernel subrepresentation of f."""
    amb = f.source
    basis = {v: f.blocks[v].null_space() for v in amb.dims}
    sub = Submodule(amb, basis)
    return sub.inclusion_rep()


def image(f):
    """(I, incl, proj): the image with inclusion into target, projection from source."""
    basis = {v: f.blocks[v].column_space() for v in f.source.dims}
    sub = Submodule(f.target, basis)
    img, incl = sub.inclusion_rep()
    return img, incl, lift_through_mono(incl, f)


class QuotientData:
    """Quotient of a Rep by a submodule, with projection and a linear section.

    `span` maps each vertex to a matrix whose columns span the submodule
    there: any spanning columns, such as the blocks of a hom whose image it
    is, since the quotient maps depend only on their column space.

    An arrow a: s -> t acts on the quotient by moved * section_s, with
    moved = proj_t * S_a, and the same product checks it: the projection
    commutes with a exactly when action * proj_s == moved (the equality
    `ModHom.failing_arrow` tests), that is, when the span is stable under
    a.  Each arrow is checked, so the projection is built with no second
    check.  The quotient `Rep` needs no check of the relations either:
    once proj commutes with every arrow it commutes with every path, so a
    relation r acts on the quotient by Q_r with Q_r proj = proj S_r = 0,
    since the ambient module satisfies r, and proj is onto, so Q_r = 0.
    A map induced from a commuting map commutes for the same reason, with
    no check of its own (see `induce_from`).
    """

    def __init__(self, ambient, span):
        self.ambient = ambient
        proj_blocks = {}
        self.section = {}
        for v in ambient.dims:
            p, s = quotient_maps(span[v])
            proj_blocks[v] = p
            self.section[v] = s
        dims = {v: proj_blocks[v].nrows for v in ambient.dims}
        arrows = ambient.algebra.quiver.arrows
        moved = {a: proj_blocks[t] * ambient.action[a] for a, _, t in arrows}
        action = {a: moved[a] * self.section[s] for a, s, _ in arrows}
        self.rep = Rep(ambient.algebra, dims, action, check=False)
        for a, s, _ in arrows:
            if action[a] * proj_blocks[s] != moved[a]:
                raise QuivrepError("blocks do not commute with the action of arrow %r" % (a,))
        self.proj = ModHom(ambient, self.rep, proj_blocks, check=False)

    def induce_from(self, f):
        """Induce g: self.rep -> T from f: self.ambient -> T killing the submodule.

        g commutes whenever f does, so only g * proj == f is checked: for an
        arrow a: s -> t, T_a g_s proj_s = T_a f_s = f_t M_a = g_t proj_t M_a
        = g_t Q_a proj_s, since proj commutes (checked arrow by arrow when
        the quotient is built), and proj_s is onto, so T_a g_s = g_t Q_a.
        """
        blocks = {v: f.blocks[v] * self.section[v] for v in f.blocks}
        cand = ModHom(self.rep, f.target, blocks, check=False)
        if any(cand.blocks[v] * self.proj.blocks[v] != f.blocks[v] for v in f.blocks):
            raise QuivrepError("map does not descend to the quotient")
        return cand


def cokernel(f):
    """(C, proj) with C = target / image(f)."""
    q = cokernel_data(f)
    return q.rep, q.proj


def cokernel_data(f):
    return QuotientData(f.target, f.blocks)


def sum_module(parts, algebra=None):
    """The direct sum of the modules, with block-diagonal actions.

    A sum of one part is that module itself.  The empty sum is the zero
    module; it needs the algebra passed explicitly.
    """
    if not parts:
        if algebra is None:
            raise QuivrepError("empty direct sum needs an explicit algebra")
        return Rep.zero(algebra)
    if len(parts) == 1:
        return parts[0]
    _check_same_algebra(*parts)
    alg = parts[0].algebra
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.quiver.vertices}
    action = {}
    for a, _, _ in alg.quiver.arrows:
        action[a] = block_diagonal(alg.field, [p.action[a] for p in parts])
    return Rep(alg, dims, action, check=False)


def direct_sum(parts, algebra=None):
    """(S, injections, projections): `sum_module` with the structure maps."""
    total = sum_module(parts, algebra)
    if not parts:
        return total, [], []
    field = total.algebra.field
    dims = total.dims
    injections = []
    projections = []
    roffs = {v: 0 for v in dims}
    for p in parts:
        inj_blocks = {}
        proj_blocks = {}
        for v in dims:
            k, off, n = p.dims[v], roffs[v], dims[v]
            inj = [[0] * k for _ in range(n)]
            proj = [[0] * n for _ in range(k)]
            for i in range(k):
                inj[off + i][i] = proj[i][off + i] = 1
            inj_blocks[v] = Mat.from_ints(field, inj, 1, n, k)
            proj_blocks[v] = Mat.from_ints(field, proj, 1, k, n)
        injections.append(ModHom(p, total, inj_blocks, check=False))
        projections.append(ModHom(total, p, proj_blocks, check=False))
        for v in dims:
            roffs[v] += p.dims[v]
    return total, injections, projections


def _summands(end):
    """(module, parts) of a `hom_from_blocks` endpoint."""
    if isinstance(end, Rep):
        return end, [end]
    return end[0], [inj.source for inj in end[1]]


def hom_from_blocks(source, target, blocks):
    """Assemble a ModHom between direct sums from a grid of component maps.

    Each endpoint is a (rep, injections, projections) triple as returned by
    direct_sum, or a plain module, which is a sum of one part; blocks maps
    (i, j) -> ModHom(source part j -> target part i).  Each component's
    block is written at the offsets of its parts, so no product is taken.
    """
    src, src_parts = _summands(source)
    tgt, tgt_parts = _summands(target)
    for (i, j), h in blocks.items():
        for end, part in ((h.source, src_parts[j]), (h.target, tgt_parts[i])):
            if end is not part and end != part:
                raise QuivrepError("block (%d, %d) does not map part %d to part %d" % (i, j, j, i))
    field = src.algebra.field
    out = {}
    for v in src.dims:
        cols = list(accumulate((p.dims[v] for p in src_parts), initial=0))
        rows = list(accumulate((p.dims[v] for p in tgt_parts), initial=0))
        placed = [(rows[i], cols[j], h.blocks[v]) for (i, j), h in blocks.items()]
        out[v] = place_blocks(field, tgt.dims[v], src.dims[v], placed)
    return ModHom(src, tgt, out, check=False)


def submodule_closure(ambient, generators):
    """Smallest submodule containing the given vectors (vertex -> list of vecs)."""
    field = ambient.algebra.field
    span = {}
    for v in ambient.dims:
        vecs = generators.get(v, [])
        if any(len(vec) != ambient.dims[v] for vec in vecs):
            raise QuivrepError("generator length mismatch at vertex %s" % v)
        rows = [[vec[i] for vec in vecs] for i in range(ambient.dims[v])]
        span[v] = Mat(field, rows, ambient.dims[v], len(vecs)).column_space()
    changed = True
    while changed:
        changed = False
        for a, s, t in ambient.algebra.quiver.arrows:
            mapped = ambient.action[a] * span[s]
            if mapped.ncols == 0:
                continue
            combined = span[t].hstack(mapped).column_space()
            if combined.ncols != span[t].ncols:
                span[t] = combined
                changed = True
    return Submodule(ambient, span)


def quotient(m, sub):
    """(Q, proj) for the quotient of m by the submodule."""
    if sub.ambient is not m and sub.ambient != m:
        raise QuivrepError("submodule of a different ambient module")
    q = QuotientData(m, sub.basis)
    return q.rep, q.proj


def radical(m):
    """Sum of all arrow images; the arrow-ideal action (admissible algebras)."""
    basis = {}
    for v in m.dims:
        incoming = [m.action[a] for a in m.algebra.quiver.arrows_into(v)]
        if incoming:
            total = incoming[0]
            for extra in incoming[1:]:
                total = total.hstack(extra)
            basis[v] = total.column_space()
        else:
            basis[v] = Mat.zeros(m.algebra.field, m.dims[v], 0)
    return Submodule(m, basis)


def top(m):
    """The semisimple quotient M / rad M."""
    q = top_data(m)
    return q.rep, q.proj


def top_data(m):
    return QuotientData(m, radical(m).basis)


def socle(m):
    """Largest submodule annihilated by every arrow."""
    field = m.algebra.field
    basis = {}
    for v in m.dims:
        outgoing = [m.action[a] for a in m.algebra.quiver.arrows_from(v)]
        if not outgoing:
            basis[v] = Mat.identity(field, m.dims[v])
            continue
        stacked = outgoing[0]
        for extra in outgoing[1:]:
            stacked = stacked.vstack(extra)
        basis[v] = stacked.null_space()
    return Submodule(m, basis)


def annihilator_dimension(m):
    """(dimension, basis elements) of the annihilator of M inside Lambda.

    A basis element e: s -> t of Lambda acts on the total space of M by its
    path action in the (t, s) block.  The annihilator is the null space of
    the matrix whose column i is the action of basis element i, flattened.
    """
    alg = m.algebra
    field = alg.field
    elements = alg.path_basis().basis_with_sources()
    verts = alg.quiver.vertices
    offset = dict(zip(verts, accumulate((m.dims[v] for v in verts), initial=0)))
    total = m.total_dim()
    actions = []
    for w, s, t in elements:
        act = m.path_action(w) if w else Mat.identity(field, m.dims[s])
        actions.append([place_blocks(field, total, total, [(offset[t], offset[s], act)])])
    coords = Mat.stack_flat(field, actions, total * total).transpose().null_space()
    ann_basis = [
        [(c, e) for c, e in zip(coords.col(j), elements) if c] for j in range(coords.ncols)
    ]
    return len(ann_basis), ann_basis


def is_faithful(m):
    return annihilator_dimension(m)[0] == 0


def is_generated_by(m, gens):
    """True iff the images of the given maps generate M as a module.

    The image of a hom is a submodule, and so is a sum of images, so no
    arrow adds to their span: the maps generate M iff at every vertex v
    their blocks, side by side, have rank dim M_v.
    """
    for g in gens:
        if g.target is not m and g.target != m:
            raise QuivrepError("generator map does not land in the module")
    for v, d in m.dims.items():
        blocks = Mat.zeros(m.algebra.field, d, 0)
        for g in gens:
            blocks = blocks.hstack(g.blocks[v])
        if blocks.rank() != d:
            return False
    return True


def lift_through_mono(mono, f):
    """g with g.then(mono) == f, solved vertex by vertex; None when f does
    not land in the image of the injective map mono."""
    blocks = {}
    for v in f.blocks:
        sol = mono.blocks[v].solve_right(f.blocks[v])
        if sol is None:
            return None
        blocks[v] = sol
    return ModHom(f.source, mono.source, blocks)


def descend_through_epi(epi, f):
    """g with epi.then(g) == f, solved vertex by vertex; None when f does
    not kill the kernel of the surjective map epi.  Maps out of a quotient
    descend by `QuotientData.induce_from`, which knows its section."""
    blocks = {}
    for v in f.blocks:
        sol = epi.blocks[v].transpose().solve_right(f.blocks[v].transpose())
        if sol is None:
            return None
        blocks[v] = sol.transpose()
    return ModHom(epi.target, f.target, blocks)
