"""The ladder construction: rung iteration, truncations, chessboard,
ladder extensions, and the simple-socle witness for self-extensions.

A seed is a pair w0, v0: U0 -> U1 with w0 injective and coker(w0) nonzero.
Iterated pushouts produce rungs U_i with maps w_i, v_i; the truncations
H[n] = U_n / U_0 carry a surjection phi: H[n] -> H[n-1] whose kernel is a
copy of H = coker(w0), and an inclusion H[n-1] -> H[n] with cokernel H.
H[1] is H itself, and the epi H[n] -> H that ends the second exact row is
phi iterated down to H[1], so no cokernel of a w_i is ever built.
Each rung fact is verified once, every rung dimension is read off block
ranks, and `chessboard`'s vertical ladder rests on the horizontal check.

A ladder computes its stages lazily.  Stage n is built from the finished
stage n-1, and is published in the ladder's stage table only once both of
its exact sequences are verified, so no caller ever sees a partial stage.
Every composite a stage keeps (U_0 -> U_n and U_1 -> U_n along the w-chain,
H[n] -> H and H[1] -> H[n]) extends the same composite of stage n-1 by one
map, so no stage recomposes a chain from the identity.

The ladder owns its stages, and no stage refers back to its ladder, so a
dropped ladder and its stages are freed at once by reference counting,
never left to the cyclic garbage collector.
"""

from .errors import (
    NotEpi,
    NotMono,
    NotSelfExtension,
    NotSimple,
    OutOfRange,
    QuivrepError,
    ZeroCokernel,
)
from .rep import (
    ModHom,
    QuotientData,
    factor_from,
    factor_through,
    kernel,
)
from .selfext import ext1
from .squares import ShortExact, Square, is_exact_square, is_split_epi, pushout, pullback


class Ladder:
    """Rung modules U_0..U_depth with structure maps w_i, v_i: U_i -> U_{i+1}."""

    def __init__(self, modules, w_maps, v_maps, verify=True):
        self.modules = list(modules)
        self.w_maps = list(w_maps)
        self.v_maps = list(v_maps)
        if not (len(self.modules) == len(self.w_maps) + 1 == len(self.v_maps) + 1):
            raise QuivrepError("ladder map/module counts inconsistent")
        if not self.w_maps:
            raise QuivrepError("a ladder needs its seed maps w0 and v0")
        self._stages = {}
        if verify:
            self.verify()

    @property
    def depth(self):
        return len(self.modules) - 1

    @property
    def seed(self):
        return self.w_maps[0], self.v_maps[0]

    @property
    def basis_module(self):
        """H = coker(w0) = H[1], the basis of the associated truncation family."""
        return self.truncation(1).rep

    def rung_square(self, i):
        """The rung square with top w_i, left v_i; `verify` checks that it
        commutes and is exact."""
        return Square(
            self.modules[i],
            self.modules[i + 1],
            self.modules[i + 1],
            self.modules[i + 2],
            self.w_maps[i],
            self.v_maps[i],
            self.v_maps[i + 1],
            self.w_maps[i + 1],
        )

    def verify(self):
        k0, h_dims = _kernel_cokernel_dims(self.w_maps[0])
        if any(k0.values()):
            raise NotMono("ladder seed w0 is not injective")
        if not any(h_dims.values()):
            raise ZeroCokernel("ladder seed has zero cokernel")
        for i, w in enumerate(self.w_maps[1:], 1):
            kw, cw = _kernel_cokernel_dims(w)
            if any(kw.values()):
                raise NotMono("ladder map w_%d is not injective" % i)
            if cw != h_dims:
                raise QuivrepError("coker(w_%d) has wrong dimension vector" % i)
        k_dims, q_dims = _kernel_cokernel_dims(self.v_maps[0])
        for i, v in enumerate(self.v_maps[1:], 1):
            kv, cv = _kernel_cokernel_dims(v)
            if kv != k_dims:
                raise QuivrepError("ker(v_%d) dimension vector changed" % i)
            if cv != q_dims:
                raise QuivrepError("coker(v_%d) dimension vector changed" % i)
        for i in range(self.depth - 1):
            if not is_exact_square(self.rung_square(i)):
                raise QuivrepError("rung square %d is not exact" % i)

    def canonical_generators(self, i):
        """The i canonical maps U_1 -> U_i that generate U_i.

        The j-th map is w_(i-1) ... w_(j+1) o v_j ... v_1 for j = 0..i-1;
        each generator extends the previous one's v-chain by one map.
        """
        gens = []
        v_chain = ModHom.identity(self.modules[1])
        for j in range(i):
            if j:
                v_chain = v_chain.then(self.v_maps[j])
            f = v_chain
            for k in range(j + 1, i):
                f = f.then(self.w_maps[k])
            gens.append(f)
        return gens

    def truncation(self, n):
        if n < 0 or n > self.depth:
            raise OutOfRange("truncation stage %d outside 0..%d" % (n, self.depth))
        # setdefault keeps the first stage built when two threads race
        stage = self._stages.get(n)
        return self._stages.setdefault(n, Truncation(self, n)) if stage is None else stage


def _kernel_cokernel_dims(f):
    """dim ker f and dim coker f at each vertex, from one rank per block."""
    ranks = {x: b.rank() for x, b in f.blocks.items()}
    return ({x: f.blocks[x].ncols - r for x, r in ranks.items()},
            {x: f.blocks[x].nrows - r for x, r in ranks.items()})


class Truncation:
    """H[n] = U_n / U_0 with its structure maps, built from stage n-1.

    Exact rows, verified on construction:
        0 -> H[1] -h1_incl-> H[n] -phi-> H[n-1] -> 0
        0 -> H[n-1] -incl-> H[n] -pi_to_h-> H -> 0
    pi_to_h: H[n] -> H[1] = H iterates phi down to H[1], and h1_incl:
    H[1] -> H[n] composes the inclusions; both are the identity at n = 1.
    The second row proves coker(w_{n-1}) = H[n] / H[n-1] isomorphic to H
    with no cokernel of w_{n-1} built.  from_u0 and
    from_u1 are the w-chain composites U_0 -> U_n and U_1 -> U_n (from_u1 is
    None for n = 0).
    """

    def __init__(self, ladder, n):
        self.n = n
        if n == 0:
            self.from_u0, self.from_u1 = ModHom.identity(ladder.modules[0]), None
        else:
            prev = ladder.truncation(n - 1)
            w = ladder.w_maps[n - 1]
            self.from_u0 = prev.from_u0.then(w)
            self.from_u1 = ModHom.identity(ladder.modules[1]) if n == 1 else prev.from_u1.then(w)
        self.quot = QuotientData(ladder.modules[n], self.from_u0.blocks)
        self.rep = self.quot.rep
        self.proj = self.quot.proj
        if n == 0:
            self.phi = self.incl = self.pi_to_h = self.h1_incl = None
            return
        # phi = (v-bar)^{-1} o p with p: U_n/U_0 -> U_n/U_1 and
        # v-bar: U_{n-1}/U_0 -> U_n/U_1 induced by v_{n-1}
        bq = QuotientData(ladder.modules[n], self.from_u1.blocks)
        p_bar = self.quot.induce_from(bq.proj)
        vbar = prev.quot.induce_from(ladder.v_maps[n - 1].then(bq.proj))
        self.phi = p_bar.then(vbar.inverse())
        # inclusion H[n-1] -> H[n] induced by w_{n-1}
        self.incl = prev.quot.induce_from(w.then(self.quot.proj))
        if n == 1:
            self.h1_incl = self.pi_to_h = ModHom.identity(self.rep)
        else:
            self.h1_incl = prev.h1_incl.then(self.incl)
            self.pi_to_h = self.phi.then(prev.pi_to_h)
        ShortExact(self.h1_incl.source, self.rep, prev.rep, self.h1_incl, self.phi)
        ShortExact(prev.rep, self.rep, self.pi_to_h.target, self.incl, self.pi_to_h)


def build_ladder(w0, v0, depth=6):
    """Iterated pushouts from the seed pair; all ladder invariants verified."""
    if w0.source != v0.source or w0.target != v0.target:
        raise QuivrepError("seed maps need common source and target")
    if depth < 1:
        raise QuivrepError("depth must be at least 1")
    modules = [w0.source, w0.target]
    w_maps = [w0]
    v_maps = [v0]
    for i in range(depth - 1):
        sq = pushout(w_maps[i], v_maps[i])
        modules.append(sq.z)
        v_maps.append(sq.gp)
        w_maps.append(sq.fp)
    return Ladder(modules, w_maps, v_maps)


def chessboard(w0, v0, depth=6):
    """Two ladders sharing the same rung modules with the seed roles swapped.

    Only the horizontal ladder is verified, w0 included.  That settles the
    vertical one: ker(v_i) keeps the vector of ker(v0) = 0, the vertical
    squares are the horizontal ones transposed, and coker(v0) != 0 as
    coker(w0) != 0.
    """
    if not v0.is_injective():
        raise NotMono("chessboard needs an injective v0")
    horizontal = build_ladder(w0, v0, depth)
    vertical = Ladder(horizontal.modules, horizontal.v_maps, horizontal.w_maps, verify=False)
    return horizontal, vertical


def ladder_extension(q, v0):
    """The self-extension H[2; w0, v0] built from an epi q: U1 -> H.

    w0 is the kernel inclusion of q; v0 must be a map from that kernel into
    U1.  Returns (ShortExact 0 -> H -> H[2] -> H -> 0, H[2]).
    """
    if not q.is_surjective():
        raise NotEpi("q must be an epimorphism onto H")
    k, w0 = kernel(q)
    if v0.source != k:
        raise QuivrepError("v0 must start at the kernel of q (use rep.kernel(q))")
    if v0.target != q.source:
        raise QuivrepError("v0 must land in the source of q")
    lad = build_ladder(w0, v0, depth=2)
    t2 = lad.truncation(2)
    h2 = t2.rep
    # identify the canonical H = H[1] = coker(w0) with the given target of q
    ident = lad.truncation(1).quot.induce_from(q)  # H[1] -> H_ext
    left = ident.inverse().then(t2.h1_incl)
    right = t2.pi_to_h.then(ident)
    ext = ShortExact(q.target, h2, q.target, left, right)
    return ext, h2


def ladder_seed_from_simple(ext, s_incl):
    """Recover a ladder seed for a self-extension from a simple submodule.

    Given ext: 0 -> H -> E -> H -> 0 and a simple S <= H, returns (w, v,
    q_u): w, v: S -> U with U inside E, and q_u: U -> H the epi with kernel
    w(S), so that ladder_extension(q_u, v) rebuilds the extension.  None
    exactly when Ext^1(S, S) != 0 or H -> H/S does not factor through E.
    """
    h = ext.a
    if ext.c != h:
        raise NotSelfExtension("end terms of the sequence differ")
    s = s_incl.source
    if s.total_dim() != 1:
        raise NotSimple("the submodule datum must be a simple module")
    if not s_incl.is_injective():
        raise NotSimple("the map from the simple module is not injective")
    if s_incl.target != h:
        raise QuivrepError("the simple module must sit inside the end term")
    if ext1(s, s)[0] != 0:
        return None
    # factor H -> H/S through E: solve t o i = can
    can = QuotientData(h, s_incl.blocks).proj
    t = factor_from(ext.i, can)
    if t is None:
        return None
    # U = ker t meets i(H) in i(S), so q_u = p on U is onto H, with kernel i(S)
    kappa = kernel(t)[1]
    q_u = kappa.then(ext.p)
    ker_incl = kernel(q_u)[1]
    # identify S with ker(q_u) through the ambient module E
    iota = factor_through(ker_incl.then(kappa), s_incl.then(ext.i))
    w = iota.then(ker_incl)
    # the pullback of q_u along S -> H extends S by ker(q_u) = S, and splits
    # as Ext^1(S, S) = 0
    sq = pullback(q_u, s_incl)
    section = is_split_epi(sq.g)
    # v.q_u = section.f.q_u = section.g.s_incl = s_incl, as the pullback commutes
    return w, section.then(sq.f), q_u
