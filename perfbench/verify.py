"""Independent checks of the ladder workloads' outputs.

The matrices the library emits (``Mat.fmt()``) are read into sympy
``DomainMatrix`` over QQ or GF(p), and every rank, product and hom-space
dimension below is computed there, apart from ``quivrep.linalg``.  Each
check function returns a list of problems; an empty list means the item's
outputs have every property the method promises.
"""

from sympy import GF as SymGF
from sympy import QQ as SymQQ
from sympy.polys.matrices import DomainMatrix

from quivrep.degen import DegenerationCertificate, RZSequence
from quivrep.ladder import Ladder, Truncation
from quivrep.linalg import Mat
from quivrep.rep import ModHom, Rep
from quivrep.selfext import ExtClass, Presentation
from quivrep.squares import ShortExact, Square


HEREDITARY = ("kronecker", "three-kronecker", "d4")


class Ref:
    """Reference linear algebra over one field."""

    def __init__(self, field):
        self.p = field.p
        self.K = SymGF(field.p) if field.p else SymQQ
        self._cache = {}

    def _el(self, text):
        if self.p:
            return self.K(int(text))
        num, _, den = text.partition("/")
        return self.K(int(num), int(den or 1))

    def m(self, mat):
        key = id(mat)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is mat:
            return hit[1]
        if mat.nrows == 0 or mat.ncols == 0:
            out = DomainMatrix.zeros((mat.nrows, mat.ncols), self.K)
        else:
            rows = [[self._el(x) for x in row] for row in mat.fmt()]
            out = DomainMatrix(rows, (mat.nrows, mat.ncols), self.K)
        self._cache[key] = (mat, out)
        return out

    def rank(self, dm):
        return 0 if 0 in dm.shape else dm.rank()

    def is_zero(self, dm):
        return 0 in dm.shape or dm.is_zero_matrix

    def eq(self, a, b):
        return a.shape == b.shape and self.is_zero(a - b)

    # -- homomorphisms -------------------------------------------------

    def commutes(self, h):
        for a, s, t in h.source.algebra.quiver.arrows:
            left = self.m(h.target.action[a]) * self.m(h.blocks[s])
            right = self.m(h.blocks[t]) * self.m(h.source.action[a])
            if not self.eq(left, right):
                return False
        return True

    def ranks(self, h):
        return {v: self.rank(self.m(b)) for v, b in h.blocks.items()}

    def injective(self, h):
        return all(r == h.source.dims[v] for v, r in self.ranks(h).items())

    def surjective(self, h):
        return all(r == h.target.dims[v] for v, r in self.ranks(h).items())

    def invertible(self, h):
        for v, b in h.blocks.items():
            if b.nrows != b.ncols or (b.nrows and self.m(b).det() == self.K.zero):
                return False
        return True

    def compose(self, f, g):
        """Blocks of g o f (apply f first)."""
        return {v: self.m(g.blocks[v]) * self.m(f.blocks[v]) for v in f.blocks}

    def exact(self, i, p, label):
        """Problems of 0 -> A -i-> B -p-> C -> 0."""
        out = []
        if not (self.commutes(i) and self.commutes(p)):
            out.append("%s: a map does not commute with the arrows" % label)
        ri, rp = self.ranks(i), self.ranks(p)
        for v, d in i.target.dims.items():
            if ri[v] != i.source.dims[v] or rp[v] != p.target.dims[v] or ri[v] + rp[v] != d:
                out.append("%s: not exact at vertex %s" % (label, v))
        if not all(self.is_zero(b) for b in self.compose(i, p).values()):
            out.append("%s: composite is nonzero" % label)
        return out

    # -- hom spaces ----------------------------------------------------

    def _hom_system(self, m, n):
        verts = m.algebra.quiver.vertices
        index, pos = {}, 0
        for v in verts:
            index[v] = pos
            pos += n.dims[v] * m.dims[v]
        zero = self.K.zero
        rows = []
        for a, s, t in m.algebra.quiver.arrows:
            na, ma = self.m(n.action[a]), self.m(m.action[a])
            na_rows = na.to_list() if na.shape[0] and na.shape[1] else []
            ma_rows = ma.to_list() if ma.shape[0] and ma.shape[1] else []
            for r in range(n.dims[t]):
                for c in range(m.dims[s]):
                    row = [zero] * pos
                    # (N_a B_s)[r, c] - (B_t M_a)[r, c], B_v stored row-major
                    for k in range(n.dims[s]):
                        row[index[s] + k * m.dims[s] + c] += na_rows[r][k]
                    for k in range(m.dims[t]):
                        row[index[t] + r * m.dims[t] + k] -= ma_rows[k][c]
                    rows.append(row)
        return index, pos, rows

    def hom_dim(self, m, n):
        _, nvars, rows = self._hom_system(m, n)
        if not rows or not nvars:
            return nvars
        return nvars - DomainMatrix(rows, (len(rows), nvars), self.K).rank()

    def hom_basis(self, m, n):
        """Basis of Hom(M, N) as vertex -> DomainMatrix block dicts."""
        index, nvars, rows = self._hom_system(m, n)
        if not nvars:
            return []
        if rows:
            null = DomainMatrix(rows, (len(rows), nvars), self.K).nullspace().to_list()
        else:
            null = DomainMatrix.eye(nvars, self.K).to_list()
        out = []
        for vec in null:
            blocks = {}
            for v in m.algebra.quiver.vertices:
                nr, nc = n.dims[v], m.dims[v]
                if nr and nc:
                    flat = vec[index[v]: index[v] + nr * nc]
                    blocks[v] = DomainMatrix([flat[r * nc:(r + 1) * nc] for r in range(nr)],
                                             (nr, nc), self.K)
                else:
                    blocks[v] = DomainMatrix.zeros((nr, nc), self.K)
            out.append(blocks)
        return out

    def in_span(self, vectors, target):
        """True iff the flattened target lies in the span of the vectors."""
        if not vectors:
            return all(x == self.K.zero for x in target)
        base = DomainMatrix(vectors, (len(vectors), len(target)), self.K)
        both = DomainMatrix(vectors + [target], (len(vectors) + 1, len(target)), self.K)
        return base.rank() == both.rank()


def _flat(blocks, verts):
    out = []
    for v in verts:
        b = blocks[v]
        if b.shape[0] and b.shape[1]:
            for row in b.to_list():
                out.extend(row)
    return out


def euler(alg, x, y):
    """The Euler form <x, y> of a hereditary quiver algebra."""
    q = alg.quiver
    return sum(x[v] * y[v] for v in q.vertices) - sum(x[s] * y[t] for _, s, t in q.arrows)


def _dims_plus(a, b, k=1):
    return {v: a[v] + k * b[v] for v in a}


def _scaled(a, k):
    return {v: k * a[v] for v in a}


def _coker_dims(ref, h):
    return {v: h.target.dims[v] - r for v, r in ref.ranks(h).items()}


# -------------------------------------------------------------- items


def check_ladder(ref, lad, truncs, label="ladder"):
    out = []
    hd = _coker_dims(ref, lad.w_maps[0])
    u1 = lad.modules[1].dims
    if not any(hd.values()):
        out.append("%s: zero cokernel H" % label)
    for n, u in enumerate(lad.modules[1:], start=1):
        if u.dims != _dims_plus(u1, hd, n - 1):
            out.append("%s: dim U_%d is not dim U_1 + %d dim H" % (label, n, n - 1))
    for i, (w, v) in enumerate(zip(lad.w_maps, lad.v_maps)):
        if not (ref.commutes(w) and ref.commutes(v)):
            out.append("%s: w_%d or v_%d does not commute" % (label, i, i))
        if not ref.injective(w):
            out.append("%s: w_%d is not injective" % (label, i))
    for i in range(lad.depth - 1):
        w, v, w1, v1 = lad.w_maps[i], lad.v_maps[i], lad.w_maps[i + 1], lad.v_maps[i + 1]
        for x in lad.modules[i].dims:
            a, b = ref.m(w.blocks[x]), ref.m(v.blocks[x])
            c, d = ref.m(w1.blocks[x]), ref.m(v1.blocks[x])
            if not ref.eq(d * a, c * b):
                out.append("%s: rung square %d does not commute at %s" % (label, i, x))
                continue
            r1 = ref.rank(a.vstack(b))
            r2 = ref.rank(d.hstack(-c))
            dims = (lad.modules[i].dims[x], lad.modules[i + 1].dims[x], lad.modules[i + 2].dims[x])
            if r1 != dims[0] or r2 != dims[2] or r1 + r2 != 2 * dims[1]:
                out.append("%s: rung square %d is not exact at %s" % (label, i, x))
    prev = None
    iota = None
    for n, t in enumerate(truncs, start=1):
        if t.rep.dims != _scaled(hd, n):
            out.append("%s: dim H[%d] is not %d dim H" % (label, n, n))
        if n >= 2:
            if not (ref.commutes(t.phi) and ref.commutes(t.incl)):
                out.append("%s: phi or incl of H[%d] does not commute" % (label, n))
            if not ref.surjective(t.phi) or t.phi.target.dims != prev.rep.dims:
                out.append("%s: phi of H[%d] is not onto H[%d]" % (label, n, n - 1))
            if not ref.injective(t.incl) or t.incl.source.dims != prev.rep.dims:
                out.append("%s: incl of H[%d] is not injective" % (label, n))
            step = {v: ref.m(b) for v, b in t.incl.blocks.items()}
            iota = step if iota is None else {v: step[v] * iota[v] for v in step}
            phi_ranks = ref.ranks(t.phi)
            for v, d in t.rep.dims.items():
                killed = ref.m(t.phi.blocks[v]) * iota[v]
                if not ref.is_zero(killed) or ref.rank(iota[v]) + phi_ranks[v] != d:
                    out.append("%s: 0 -> H[1] -> H[%d] -> H[%d] -> 0 not exact at %s"
                               % (label, n, n - 1, v))
        prev = t
    return out


def check_ladder_item(ref, res):
    lad, vert = res["ladder"], res["vertical"]
    out = check_ladder(ref, lad, res["truncs"])
    if any(a is not b for a, b in zip(lad.modules, vert.modules)) or any(
        a is not b for a, b in zip(lad.w_maps, vert.v_maps)
    ):
        out.append("chessboard: the vertical ladder does not swap the seed roles")
    out += check_ladder(ref, vert, res["vtruncs"], "vertical ladder")
    pb, r = res["pullback"], res["pullback_rung"]
    if pb.x.dims != lad.modules[r].dims:
        out.append("pullback of rung %d: dim X is not dim U_%d" % (r, r))
    lhs = ref.compose(pb.f, pb.gp)
    rhs = ref.compose(pb.g, pb.fp)
    if not all(ref.eq(lhs[v], rhs[v]) for v in lhs):
        out.append("pullback square does not commute")
    return out


def check_ext_item(ref, res, algebra_name):
    out = []
    h, u0, pres = res["h"], res["u0"], res["pres"]
    out += ref.exact(pres.u, pres.p, "presentation of H")
    for n, got, label in ((h, res["dim_hh"], "Ext^1(H, H)"), (u0, res["dim_hu"], "Ext^1(H, U0)")):
        hom_hn = ref.hom_dim(h, n)
        want = ref.hom_dim(pres.omega, n) - ref.hom_dim(pres.p_total, n) + hom_hn
        if got != want:
            out.append("dim %s = %d, the long exact sequence gives %d" % (label, got, want))
        if algebra_name in HEREDITARY and got != hom_hn - euler(h.algebra, h.dims, n.dims):
            out.append("dim %s breaks the Euler form" % label)
    if res["n_classes"] != res["dim_hh"]:
        out.append("Ext^1(H, H) class basis has the wrong size")
    dim_s = res["dim_s"]
    if not 0 <= dim_s <= res["dim_hh"]:
        out.append("standard subspace dimension %d outside 0..%d" % (dim_s, res["dim_hh"]))
    if algebra_name in HEREDITARY and dim_s != res["dim_hh"]:
        out.append("projective dimension <= 1 but standard part != Ext^1(H, H)")
    if len(res["trips"]) != dim_s:
        out.append("standard basis has the wrong size")
    verts = h.algebra.quiver.vertices
    u_image = None
    for k, trip in enumerate(res["trips"]):
        c = trip["class"]
        pw = ref.compose(trip["wprime"], pres.p)
        if not ref.commutes(trip["wprime"]) or not all(
            ref.eq(pw[v], ref.m(c.representative.blocks[v])) for v in verts
        ):
            out.append("class %d: p o w' is not the representative" % k)
        ext = trip["ext"]
        if trip["h2"].dims != _scaled(h.dims, 2) or ext.a.dims != h.dims or ext.c.dims != h.dims:
            out.append("class %d: H[2] is not an extension of H by H" % k)
        out += ref.exact(ext.i, ext.p, "class %d ladder extension" % k)
        if u_image is None:
            u_image = [
                _flat({v: hb[v] * ref.m(pres.u.blocks[v]) for v in verts}, verts)
                for hb in ref.hom_basis(pres.p_total, h)
            ]
        diff = {v: ref.m(trip["back"].representative.blocks[v]) - ref.m(c.representative.blocks[v])
                for v in verts}
        if not trip["equal"] or not ref.in_span(u_image, _flat(diff, verts)):
            out.append("class %d: the round trip returns another class" % k)
    return out


def check_rigid_item(ref, res):
    out = []
    w0, v0, rz, n0 = res["w0"], res["v0"], res["rz"], res["n0"]
    alg = w0.source.algebra
    wd, wpd = _coker_dims(ref, w0), _coker_dims(ref, v0)
    w_mod, u0 = rz.x, w0.source
    if w_mod.dims != wd or rz.y.dims != wpd:
        out.append("degeneration: X is not coker(w0) or Y is not coker(v0)")
    if ref.hom_dim(w_mod, w_mod) - euler(alg, wd, wd) != 0:
        out.append("degeneration: coker(w0) is not rigid")
    bound = ref.hom_dim(w_mod, u0) - euler(alg, wd, u0.dims)
    if not 0 <= n0 <= bound:
        out.append("degeneration: first split stage %d exceeds dim Ext^1(W, U0) = %d" % (n0, bound))
    un = u0.dims if n0 == 0 else _dims_plus(w0.target.dims, wd, n0 - 1)
    if rz.u.dims != un:
        out.append("degeneration: U is not the rung U_%d" % n0)
    out += ref.exact(rz.mono, rz.epi, "degeneration sequence")
    return out


def check_rz_item(ref, res):
    out = []
    rz, cert = res["rz"], res["cert"]
    t = cert.index
    out += ref.exact(rz.mono, rz.epi, "nilpotent RZ sequence")
    phi = {v: ref.m(b) for v, b in rz.steering.blocks.items()}
    if t == 0:
        if any(rz.u.dims.values()):
            out.append("nilpotency index 0 on a nonzero steering module")
    else:
        power = {v: DomainMatrix.eye(phi[v].shape[0], ref.K) for v in phi}
        for _ in range(t - 1):
            power = {v: power[v] * phi[v] for v in phi}
        if all(ref.is_zero(power[v]) for v in phi):
            out.append("steering vanishes before its nilpotency index %d" % t)
        if not all(ref.is_zero(power[v] * phi[v]) for v in phi):
            out.append("steering^%d is nonzero" % t)
    xd = rz.x.dims
    for n, omega in res["witnesses"]:
        yn, yn1 = cert.truncation(n).rep.dims, cert.truncation(n + 1).rep.dims
        if yn != _scaled(xd, n) or yn1 != _scaled(xd, n + 1):
            out.append("dim Y[%d] is not %d dim X" % (n, n))
        if omega.source.dims != _dims_plus(yn, xd) or omega.target.dims != yn1:
            out.append("splitting witness %d has the wrong endpoints" % n)
        if not ref.invertible(omega) or not ref.commutes(omega):
            out.append("splitting witness %d is not an isomorphism of modules" % n)
    dual = res["dual"]
    if dual.a.dims != rz.y.dims or dual.c.dims != cert.truncation(t).rep.dims:
        out.append("dual sequence has the wrong end terms")
    out += ref.exact(dual.i, dual.p, "dual sequence")
    return out


def check_item(ref, item_id, res, spec):
    kind = item_id.split(":")[0]
    if kind == "ladder":
        return check_ladder_item(ref, res)
    if kind == "ext":
        return check_ext_item(ref, res, spec["algebra"])
    if kind == "degen":
        return check_rigid_item(ref, res)
    return check_rz_item(ref, res)


# ------------------------------------------------------ round identity


def signature(obj):
    """Every matrix and number an item returned, in a fixed order.

    Two rounds of the same inputs must give equal signatures: the library
    promises the same matrices bit for bit on every run.
    """
    out = []
    _walk(obj, out)
    return out


def _walk(obj, out):
    if isinstance(obj, Mat):
        out.append((obj.nrows, obj.ncols, tuple(map(tuple, obj.rows))))
    elif isinstance(obj, (bool, int, str)):
        out.append(obj)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _walk(obj[k], out)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _walk(x, out)
    elif isinstance(obj, Rep):
        _walk([obj.dims, obj.action], out)
    elif isinstance(obj, ModHom):
        _walk(obj.blocks, out)
    elif isinstance(obj, Ladder):
        _walk([obj.modules, obj.w_maps, obj.v_maps], out)
    elif isinstance(obj, Truncation):
        _walk([obj.rep, obj.phi, obj.incl], out)
    elif isinstance(obj, Square):
        _walk([obj.x, obj.f, obj.g], out)
    elif isinstance(obj, ShortExact):
        _walk([obj.i, obj.p], out)
    elif isinstance(obj, RZSequence):
        _walk([obj.mono, obj.epi], out)
    elif isinstance(obj, DegenerationCertificate):
        _walk([obj.index, obj.ladder], out)
    elif isinstance(obj, ExtClass):
        _walk(obj.representative, out)
    elif isinstance(obj, Presentation):
        _walk([obj.p, obj.u], out)
    elif obj is not None:
        raise TypeError("no signature for %r" % type(obj).__name__)
