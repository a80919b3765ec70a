"""Ladders of finitely generated abelian groups via Smith normal form.

This is the classical integer example and an oracle for the representation
ladder: it runs on a different computational substrate (integer presentation
matrices and SNF) so agreement between the two is meaningful evidence.

Each rung U_(i+2) is the pushout of two copies of U_(i+1), so its raw
presentation has twice the generators of the one before, and U_k would
have 2^(k-1).  `z_ladder` therefore replaces every rung by its Smith form
(`AbGroup.smith_form`): one generator for each invariant factor other than
1, with diagonal relations, and the inclusions of the two copies moved to
those coordinates.  U_k contains U_0 = Z with quotient H[k], which is built
from k copies of the cyclic group H[1], so U_k then has at most k + 1
generators, and the groups H[k] are the same as from the raw presentations.
"""

from .errors import QuivrepError
from .linalg import int_mat_mul, smith_normal_form


class AbGroup:
    """A finitely generated abelian group given by a presentation matrix.

    Rows are relations among the generators.  Invariant factors (> 1) and
    the free rank are derived through SNF.
    """

    def __init__(self, generators, relations):
        self.generators = int(generators)
        self.relations = [list(map(int, row)) for row in relations]
        for row in self.relations:
            if len(row) != self.generators:
                raise QuivrepError("relation width does not match generator count")
        self._snf = smith_normal_form(self.relations) if self.relations else None
        d = self._snf.d if self._snf else []
        self.invariant_factors = tuple(x for x in d if x > 1)
        rank = sum(1 for x in d if x != 0)
        self.free_rank = self.generators - rank

    def smith_form(self):
        """(group, coords): the same group on one generator for each
        invariant factor other than 1, free ones included, with diagonal
        relations, and the matrix taking coordinates on the old generators
        (columns) to coordinates on the new ones.

        With L A R = diag(d) for the relation rows A, a row x of old
        coordinates is a relation exactly when x R is one of diag(d), so the
        new coordinates are x R, as a column R^T x; a generator with
        invariant factor 1 is zero and is dropped."""
        n = self.generators
        if self._snf is None:  # no relations: every generator is free
            return self, [[int(i == j) for j in range(n)] for i in range(n)]
        d = self._snf.d + [0] * (n - len(self._snf.d))
        keep = [i for i, x in enumerate(d) if x != 1]
        coords = [[row[i] for row in self._snf.transform_right] for i in keep]
        rels = [[d[i] * (j == k) for j in range(len(keep))] for k, i in enumerate(keep) if d[i]]
        return AbGroup(len(keep), rels), coords

    def order(self):
        """Group order; None when infinite."""
        if self.free_rank > 0:
            return None
        out = 1
        for x in self.invariant_factors:
            out *= x
        return out

    def exponent(self):
        if self.free_rank > 0:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def describe(self):
        parts = ["Z/%d" % x for x in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "AbGroup(%s)" % self.describe()


def _pushout_group(a, b, c, w, v):
    """Pushout of w: A -> B, v: A -> C in abelian groups (generator matrices):
    generators of B then C, relations of both plus the glue rows
    (w(a), -v(a))."""
    gens = b.generators + c.generators
    rels = []
    for row in b.relations:
        rels.append(row + [0] * c.generators)
    for row in c.relations:
        rels.append([0] * b.generators + row)
    for j in range(a.generators):
        glue = [w[i][j] for i in range(b.generators)] + [
            -v[i][j] for i in range(c.generators)
        ]
        rels.append(glue)
    return AbGroup(gens, rels)


def z_ladder(w, v, depth):
    """Truncations H[1..depth] of the integer ladder with seed (w, v) on Z.

    Maps Z -> Z are integers; w must be nonzero (injectivity).  Returns the
    list of AbGroups H[k] = U_k / U_0.
    """
    w = int(w)
    v = int(v)
    if w == 0:
        raise QuivrepError("w must be nonzero for multiplication to be injective")
    if depth < 1:
        raise QuivrepError("depth must be at least 1")
    z = AbGroup(1, [])
    modules = [z, z]
    w_mats = [[[w]]]
    v_mats = [[[v]]]
    for i in range(depth - 1):
        u = modules[i + 1]
        nxt, coords = _pushout_group(modules[i], u, u, w_mats[i], v_mats[i]).smith_form()
        modules.append(nxt)
        # mirror the representation convention: the new w embeds the v-target
        # copy (the second), the new v embeds the w-target copy (the first)
        w_mats.append([row[u.generators:] for row in coords])
        v_mats.append([row[: u.generators] for row in coords])
    out = []
    for k in range(1, depth + 1):
        emb = [[1]]
        for i in range(k):
            emb = int_mat_mul(w_mats[i], emb)
        uk = modules[k]
        rels = list(uk.relations)
        for j in range(len(emb[0])):
            rels.append([emb[i][j] for i in range(uk.generators)])
        out.append(AbGroup(uk.generators, rels))
    return out


def z_pushout_of_multiplications(w, v):
    """The pushout of (multiplication by w, by v) on Z, as an AbGroup."""
    z = AbGroup(1, [])
    return _pushout_group(z, z, z, [[int(w)]], [[int(v)]])
