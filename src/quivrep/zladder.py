"""Ladders of finitely generated abelian groups via Smith normal form.

This is the classical integer example and an oracle for the representation
ladder: it runs on a different computational substrate (integer presentation
matrices and SNF) so agreement between the two is meaningful evidence.
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
        if self.relations:
            snf = smith_normal_form(self.relations)
            d = snf.d
        else:
            d = []
        self.invariant_factors = tuple(x for x in d if x > 1)
        rank = sum(1 for x in d if x != 0)
        self.free_rank = self.generators - rank

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
    """Pushout of w: A -> B, v: A -> C in abelian groups (generator matrices).

    Returns (group, incl_b, incl_c): generators of B then C, relations of
    both plus the glue rows (w(a), -v(a)).
    """
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
    out = AbGroup(gens, rels)
    incl_b = [[1 if i == j else 0 for j in range(b.generators)] for i in range(gens)]
    incl_c = [
        [1 if i - b.generators == j else 0 for j in range(c.generators)]
        for i in range(gens)
    ]
    return out, incl_b, incl_c


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
        nxt, incl_b, incl_c = _pushout_group(
            modules[i], modules[i + 1], modules[i + 1], w_mats[i], v_mats[i]
        )
        modules.append(nxt)
        # mirror the representation convention: the new w embeds the v-target
        # copy, the new v embeds the w-target copy
        w_mats.append(incl_c)
        v_mats.append(incl_b)
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
    out, _, _ = _pushout_group(z, z, z, [[int(w)]], [[int(v)]])
    return out
