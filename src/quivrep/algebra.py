"""Quivers, admissible relation ideals, path bases, indecomposable projectives.

Path convention, stated once and enforced everywhere: a stored path is a
tuple of arrow names in execution order (first arrow first), and the matrix
of a path on a representation is the product of the arrow matrices applied
right to left, so M(x then y) = M_y * M_x acting on column vectors.
"""

from .errors import BoundExceeded, NotAdmissible, QuivrepError
from .linalg import Mat


class Quiver:
    """A finite directed multigraph with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple((str(a), str(s), str(t)) for a, s, t in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuivrepError("duplicate vertex ids")
        names = [a for a, _, _ in self.arrows]
        if len(set(names)) != len(names):
            raise QuivrepError("duplicate arrow ids")
        if set(names) & set(self.vertices):
            raise QuivrepError("arrow id collides with a vertex id")
        vset = set(self.vertices)
        for a, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise QuivrepError("arrow %s has undeclared endpoint" % a)
        self.source = {a: s for a, s, _ in self.arrows}
        self.target = {a: t for a, _, t in self.arrows}
        self.arrow_names = tuple(names)

    def arrows_from(self, v):
        return [a for a, s, _ in self.arrows if s == v]

    def arrows_into(self, v):
        return [a for a, _, t in self.arrows if t == v]

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return "Quiver(%r, %r)" % (list(self.vertices), list(self.arrows))


def path_source(quiver, word):
    return quiver.source[word[0]]


def path_target(quiver, word):
    return quiver.target[word[-1]]


def relation_terms(quiver, field, rel):
    """The (coefficient, word) terms of a relation as a tuple, coefficients
    in the field; raises unless the words are composable paths of length
    >= 2 that share source, target and length."""
    terms = [(field.conv(c), tuple(w)) for c, w in rel]
    if not terms:
        return ()
    for _, w in terms:
        if len(w) < 2:
            raise NotAdmissible("relation term %r has length < 2" % (w,))
        for a in w:
            if a not in quiver.source:
                raise QuivrepError("unknown arrow %r in relation" % (a,))
        for x, y in zip(w, w[1:]):
            if quiver.target[x] != quiver.source[y]:
                raise NotAdmissible("relation word %r is not composable" % (w,))
    src = path_source(quiver, terms[0][1])
    tgt = path_target(quiver, terms[0][1])
    deg = len(terms[0][1])
    for _, w in terms:
        if path_source(quiver, w) != src or path_target(quiver, w) != tgt:
            raise NotAdmissible("relation mixes parallel classes: %r" % (terms,))
        if len(w) != deg:
            raise NotAdmissible(
                "relation mixes path lengths (degree-graded ideals only): %r" % (terms,)
            )
    return tuple(terms)


class AlgebraPresentation:
    """A quiver with admissible relations over an exact field.

    Relations are lists of (coefficient, word) pairs where each word is a
    tuple of arrow names in execution order.  Every word in a relation must
    share source, target and length, and have length >= 2.
    """

    def __init__(self, quiver, field, relations=(), loewy_bound=12, name="algebra"):
        self.quiver = quiver
        self.field = field
        self.name = name
        self.loewy_bound = int(loewy_bound)
        if self.loewy_bound < 1:
            raise QuivrepError("loewy bound must be positive")
        terms = (relation_terms(quiver, field, rel) for rel in relations)
        self.relations = tuple(t for t in terms if t)
        self._basis = None
        self._projectives = {}  # vertex -> projective(self, vertex)

    def is_hereditary(self):
        return not self.relations

    def path_basis(self):
        if self._basis is None:
            self._basis = PathBasis(self)
        return self._basis

    def __eq__(self, other):
        return self is other or (
            isinstance(other, AlgebraPresentation)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.relations == other.relations
            and self.loewy_bound == other.loewy_bound
        )

    def __repr__(self):
        return "AlgebraPresentation(%s over %s)" % (self.name, self.field)


class PathBasis:
    """Basis of Lambda = kQ/I computed degree by degree.

    For each degree the ideal component is echelonized over the full span of
    length-d words; the basis words are the non-pivot words, which makes all
    reductions canonical.  The multiplication table is closed: products of
    basis words reduce to stored linear combinations.
    """

    def __init__(self, alg):
        self.algebra = alg
        quiver = alg.quiver
        field = alg.field
        bound = alg.loewy_bound

        # words[d] = ordered list of composable words of length d
        words = {0: [()], 1: [(a,) for a in quiver.arrow_names]}
        d = 1
        while d < bound:
            nxt = []
            for w in words[d]:
                tgt = path_target(quiver, w)
                for a in quiver.arrow_names:
                    if quiver.source[a] == tgt:
                        nxt.append(w + (a,))
            words[d + 1] = nxt
            if not nxt:
                break
            d += 1

        rel_by_degree = {}
        for rel in alg.relations:
            rel_by_degree.setdefault(len(rel[0][1]), []).append(rel)

        # ideal_rows[d]: echelonized rows of the degree-d ideal component in
        # coordinates over words[d]; reduce[d]: word -> {word: coef}
        self.basis_words = {0: list(words[0]), 1: list(words[1])}
        self.reduce_table = {0: {(): {(): field.one()}}, 1: {w: {w: field.one()} for w in words[1]}}
        ideal_basis = {0: [], 1: []}
        max_deg = max(words)
        for deg in range(2, max_deg + 1):
            wlist = words[deg]
            index = {w: i for i, w in enumerate(wlist)}
            rows = []
            # two-sided ideal: extend lower-degree ideal elements by one arrow
            prev = ideal_basis[deg - 1]
            prev_words = words[deg - 1]
            for vec in prev:
                for a in quiver.arrow_names:
                    left = [field.zero()] * len(wlist)
                    right = [field.zero()] * len(wlist)
                    any_l = any_r = False
                    for i, c in enumerate(vec):
                        if c == field.zero():
                            continue
                        w = prev_words[i]
                        if quiver.target[a] == path_source(quiver, w):
                            left[index[(a,) + w]] = c
                            any_l = True
                        if path_target(quiver, w) == quiver.source[a]:
                            right[index[w + (a,)]] = c
                            any_r = True
                    if any_l:
                        rows.append(left)
                    if any_r:
                        rows.append(right)
            for rel in rel_by_degree.get(deg, []):
                vec = [field.zero()] * len(wlist)
                for c, w in rel:
                    vec[index[w]] = field.add(vec[index[w]], c)
                rows.append(vec)
            if rows:
                mat = Mat(field, rows, len(rows), len(wlist))
                rank, pivots, red = mat.rref()
                ech = red.rows[:rank]
            else:
                pivots, ech = [], []
            ideal_basis[deg] = ech
            pivset = set(pivots)
            self.basis_words[deg] = [w for i, w in enumerate(wlist) if i not in pivset]
            table = {}
            for i, w in enumerate(wlist):
                if i not in pivset:
                    table[w] = {w: field.one()}
            for r, pc in enumerate(pivots):
                combo = {}
                for j in range(len(wlist)):
                    if j in pivset or ech[r][j] == field.zero():
                        continue
                    combo[wlist[j]] = field.neg(ech[r][j])
                table[wlist[pc]] = combo
            self.reduce_table[deg] = table

        # admissibility: at the bound, every word must reduce to zero
        top = self.basis_words.get(bound)
        if top:
            raise BoundExceeded(
                "paths of length %d do not all lie in the relation ideal "
                "(e.g. %r); raise relations or the loewy bound" % (bound, top[0])
            )

        # nonempty basis words; the degree-0 part is one idempotent per vertex
        self.basis = []
        for deg in sorted(self.basis_words):
            if deg == 0 or deg >= bound:
                continue
            self.basis.extend(self.basis_words[deg])
        self.total_dimension = len(quiver.vertices) + len(self.basis)

    def reduce_word(self, word):
        """Express a composable word as {basis word: coefficient}; every
        one shorter than the bound has a row in `reduce_table`."""
        deg = len(word)
        if deg >= self.algebra.loewy_bound:
            return {}
        return self.reduce_table[deg][word]

    def multiply_elements(self, e1, e2):
        """Product of two basis elements given as (word, source, target).

        Returns {(word, source, target): coefficient}; zero when the
        elements are not composable (target of e1 != source of e2).
        """
        w1, s1, t1 = e1
        w2, s2, t2 = e2
        if t1 != s2:
            return {}
        q = self.algebra.quiver
        combo = self.reduce_word(w1 + w2)
        out = {}
        for w, c in combo.items():
            if w == ():
                out[((), s1, s1)] = c
            else:
                out[(w, path_source(q, w), path_target(q, w))] = c
        return out

    def words_from(self, v):
        """The basis of P(v): {target vertex: basis words from v to it}, in
        basis order, with the empty word () first at v."""
        q = self.algebra.quiver
        out = {t: [] for t in q.vertices}
        out[v].append(())
        for w in self.basis:
            if path_source(q, w) == v:
                out[path_target(q, w)].append(w)
        return out

    def basis_with_sources(self):
        """All basis elements as (word, source, target) including idempotents."""
        q = self.algebra.quiver
        out = []
        for v in q.vertices:
            out.append(((), v, v))
        for w in self.basis:
            if w:
                out.append((w, path_source(q, w), path_target(q, w)))
        return out


def path_basis(alg):
    """Compute (and cache) the path basis of the quotient algebra."""
    return alg.path_basis()


def projective(alg, vertex):
    """The indecomposable projective P(vertex) with its top generator.

    P(vertex)_j has basis the classes of paths vertex -> j; arrows act by
    right concatenation, reduced through the path basis.
    Returns (Rep, index of the empty path inside P(vertex)_vertex), computed
    once per algebra and vertex.
    """
    from .rep import Rep

    cached = alg._projectives.get(vertex)
    if cached is not None:
        return cached
    pb = alg.path_basis()
    quiver = alg.quiver
    if vertex not in quiver.vertices:
        raise QuivrepError("unknown vertex %r" % (vertex,))
    by_target = pb.words_from(vertex)
    dims = {v: len(by_target[v]) for v in quiver.vertices}
    index = {v: {w: i for i, w in enumerate(by_target[v])} for v in quiver.vertices}
    action = {}
    for a, s, t in quiver.arrows:
        rows = [[alg.field.zero()] * dims[s] for _ in range(dims[t])]
        for w, col in index[s].items():
            for w2, c in pb.reduce_word(w + (a,)).items():
                rows[index[t][w2]][col] = c
        action[a] = Mat(alg.field, rows, dims[t], dims[s])
    out = alg._projectives[vertex] = (Rep(alg, dims, action), index[vertex][()])
    return out
