"""Degeneration certificates: Riedtmann-Zwara sequences, nilpotent steering,
the associated truncation ladder, eventual splitting, the dual sequence, and
the rigid-cokernel applications.

A Riedtmann-Zwara sequence 0 -> U -> X+U -> Y -> 0 certifies that Y is a
degeneration of X.  The mono is stored in blocks [g; phi] with g: U -> X and
phi: U -> U the steering map.  With phi nilpotent, the ladder with seed
(mono, canonical inclusion) has rungs U_n = X^n + U, direct sums whose maps
are placed blockwise by `rep.hom_from_blocks`, with U_0 = U a sum of one
part.  Each rung square is verified exact, so each rung is the pushout of
the one before it.  The truncations Y[n] satisfy Y[n+1] ~ Y[n] + X from the
nilpotency index on, with witnesses assembled from a retraction and a Schur
complement; no search anywhere.
"""

from .errors import BelowIndex, NotMono, NotNilpotent, NotRigid, QuivrepError
from .ladder import Ladder, build_ladder, coker_transport
from .rep import (
    ModHom,
    cokernel_data,
    direct_sum,
    hom_from_blocks,
    kernel,
    lift_through_mono,
    sum_module,
)
from .squares import ShortExact, is_split_mono
from . import selfext
from . import decomp


class RZSequence:
    """A validated sequence 0 -> U -> X+U -> Y -> 0 with steering map."""

    def __init__(self, u, x, y, mono, epi):
        self.u = u
        self.x = x
        self.y = y
        self.middle_sum = direct_sum([x, u])
        self.middle, (self.from_x, self.from_u), (self.to_x, self.to_u) = self.middle_sum
        if mono.source != u or mono.target != self.middle:
            raise QuivrepError("mono must map U into the literal direct sum X + U")
        if epi.source != self.middle or epi.target != y:
            raise QuivrepError("epi must map X + U onto Y")
        self.mono = mono
        self.epi = epi
        self.steering = mono.then(self.to_u)
        self.g = mono.then(self.to_x)
        ShortExact(u, self.middle, y, mono, epi)

    def nilpotency_index(self):
        """Least t with steering^t = 0, or None if never."""
        phi = self.steering
        ident = ModHom.identity(self.u)
        cur = ident
        for t in range(self.u.total_dim() + 1):
            if cur.is_zero():
                return t
            cur = cur.then(phi)
        return None

    def __repr__(self):
        return "RZSequence(U=%s, X=%s, Y=%s)" % (self.u.dims, self.x.dims, self.y.dims)


def check_rz(u, x, y, mono, epi):
    """Validate the data as a Riedtmann-Zwara sequence."""
    return RZSequence(u, x, y, mono, epi)


def make_steering_nilpotent(rz):
    """Replace U by the generalized kernel of the steering map.

    Fitting: U = ker(phi^m) + im(phi^m) with m = dim U; the invertible part
    is cancelled, leaving an equivalent sequence with nilpotent steering.
    The returned `RZSequence` checks the new sequence exact, which fails
    unless the generalized kernel is a direct summand cancelling U's rest.
    """
    phi = rz.steering
    m = rz.u.total_dim()
    power = ModHom.identity(rz.u)
    for _ in range(max(m, 1)):
        power = power.then(phi)
    k_rep, k_incl = kernel(power)
    phi_k = lift_through_mono(k_incl, k_incl.then(phi))
    if phi_k is None:
        raise QuivrepError("steering map does not preserve its generalized kernel")
    middle_k = direct_sum([rz.x, k_rep])
    mono_k = hom_from_blocks(k_rep, middle_k, {(0, 0): k_incl.then(rz.g), (1, 0): phi_k})
    # section X + K -> X + U, then the old epi
    sigma = hom_from_blocks(
        middle_k, rz.middle_sum, {(0, 0): ModHom.identity(rz.x), (1, 1): k_incl}
    )
    return RZSequence(k_rep, rz.x, rz.y, mono_k, sigma.then(rz.epi))


class DegenerationCertificate:
    """An RZ sequence with nilpotent steering plus its truncation ladder."""

    def __init__(self, rz, index, ladder, sums, h1_to_y):
        self.rz = rz
        self.index = index
        self.ladder = ladder
        self.sums = sums  # U_n = X^n + U as a direct sum; U_0 = U is one part
        self.h1_to_y = h1_to_y  # identification Y[1] -> Y
        self.witnesses = {}

    def truncation(self, n):
        return self.ladder.truncation(n)


def rz_to_prufer(rz, depth=6):
    """Certificate with the explicit block ladder U_n = X^n + U.

    The rungs are built from the block recipes, and `Ladder` checks that
    every rung square is exact.  An exact square is a pushout, so each rung
    is the pushout of the one before it.
    """
    t = rz.nilpotency_index()
    if t is None:
        raise NotNilpotent("steering map is not nilpotent; apply make_steering_nilpotent")
    depth = max(depth, t + 1)
    modules = [rz.u, rz.middle]
    sums = [rz.u, rz.middle_sum]
    w_maps = [rz.mono]
    v_maps = [rz.from_u]
    for n in range(1, depth):
        parts = [rz.x] * (n + 1) + [rz.u]
        nxt = direct_sum(parts)
        cur = sums[n]
        blocks = {}
        # w_n: (x_1..x_n, u) -> (g u, x_1..x_n, phi u)
        blocks[(0, n)] = rz.g
        for k in range(n):
            blocks[(k + 1, k)] = ModHom.identity(rz.x)
        blocks[(n + 1, n)] = rz.steering
        w_n = hom_from_blocks(cur, nxt, blocks)
        # v_n: (x_1..x_n, u) -> (x_1..x_n, 0, u)
        vblocks = {}
        for k in range(n):
            vblocks[(k, k)] = ModHom.identity(rz.x)
        vblocks[(n + 1, n)] = ModHom.identity(rz.u)
        v_n = hom_from_blocks(cur, nxt, vblocks)
        modules.append(nxt[0])
        sums.append(nxt)
        w_maps.append(w_n)
        v_maps.append(v_n)
    ladder = Ladder(modules, w_maps, v_maps)
    # identification Y[1] -> Y through the epi: an iso, as the RZ sequence is exact
    ident_c = ladder.cokernels()[0].induce_from(rz.epi)  # coker(w0) -> Y
    h1_to_y = ladder.truncation(1).pi_to_h.then(ident_c)
    return DegenerationCertificate(rz, t, ladder, sums, h1_to_y)


def eventual_splitting(cert, n):
    """Explicit iso witness Y[n] + X -> Y[n+1], valid for n >= index.

    Built from the quotient-induced retraction of h_n and a Schur
    complement; verified invertible and commuting before returning.
    """
    if n < cert.index:
        raise BelowIndex("stage %d below nilpotency index %d" % (n, cert.index))
    if n + 1 > cert.ladder.depth:
        raise QuivrepError("ladder too shallow; rebuild the certificate deeper")
    if n in cert.witnesses:
        return cert.witnesses[n]
    rz = cert.rz
    lad = cert.ladder
    tn = lad.truncation(n)
    tn1 = lad.truncation(n + 1)
    # h_n: U -> Y[n], the image of U under the quotient of U_n; the v-chain
    # U -> U_n is the injection of the last part
    u_into_un = ModHom.identity(rz.u) if n == 0 else cert.sums[n][1][n]
    h_n = u_into_un.then(tn.proj)
    # retraction: the U-projection of U_n descends because phi^n = 0
    proj_u = hom_from_blocks(cert.sums[n], rz.u, {(0, n): ModHom.identity(rz.u)})
    r = tn.quot.induce_from(proj_u)
    if h_n.then(r) != ModHom.identity(rz.u):
        raise QuivrepError("U-projection does not retract U -> Y[%d]" % n)
    # square edges
    s = tn.quot.induce_from(lad.w_maps[n].then(tn1.proj))
    # the v-chain U_1 -> U_{n+1} keeps the first and last parts in place
    injs = cert.sums[n + 1][1]
    b_u = injs[n + 1].then(tn1.proj)
    b_x = injs[0].then(tn1.proj)
    gamma = b_u - h_n.then(s)  # U -> Y[n+1], adjusted
    # witness on X + Y[n]: [b_x, -s - gamma o r]
    omega = hom_from_blocks(
        direct_sum([tn.rep, rz.x]), tn1.rep, {(0, 1): b_x, (0, 0): (-s) - r.then(gamma)}
    )
    if not omega.is_isomorphism():
        raise QuivrepError("splitting witness failed to invert")
    cert.witnesses[n] = omega
    return omega


def co_rz(cert):
    """The dual sequence 0 -> Y -> Y[t] + X -> Y[t] -> 0 at t = index.

    Both it and the eventual-splitting sequence use the steering module Y[t].
    """
    t = cert.index
    lad = cert.ladder
    omega = eventual_splitting(cert, t)  # Y[t] + X -> Y[t+1]; checks the depth
    tn1 = lad.truncation(t + 1)
    iota = tn1.h1_incl  # Y[1] -> Y[t+1]
    y_to_h1 = cert.h1_to_y.inverse()
    left = y_to_h1.then(iota).then(omega.inverse())
    right = omega.then(tn1.phi)
    seq = ShortExact(cert.rz.y, omega.source, lad.truncation(t).rep, left, right)
    return seq


def power_degeneration(cert, n):
    """The stage-n certificate: Y[n] as a degeneration of X^n.

    The composed exact squares give 0 -> U -> X^n + U -> Y[n] -> 0 with
    steering map the n-th power of the original one.
    """
    rz = cert.rz
    lad = cert.ladder
    if n < 1 or n > lad.depth:
        raise QuivrepError("stage outside the built ladder")
    xn = sum_module([rz.x] * n)
    t = lad.truncation(n)
    return RZSequence(rz.u, xn, t.rep, t.from_u0, t.proj)


def steering_combinations_split(rz, scalars=(0, 1, -1, 2)):
    """With nilpotent steering, [g; 1 + c*phi] is split mono for each scalar c."""
    if rz.nilpotency_index() is None:
        raise NotNilpotent("requires nilpotent steering")
    results = {}
    for c in scalars:
        phi_c = ModHom.identity(rz.u) + rz.steering.scale(c)
        cand = hom_from_blocks(rz.u, rz.middle_sum, {(0, 0): rz.g, (1, 0): phi_c})
        results[c] = is_split_mono(cand) is not None
    return results


def _rigid_seed(w0, v0, *rigid):
    """The cokernel of each seed map named in `rigid` ("w0", "v0"), with the
    presentation its rigidity check built (None for the zero module).

    A seed of the rigid-cokernel results is a pair of injective maps w0, v0:
    U0 -> U1.  Both are tested first, so a bad seed costs no Ext^1 group;
    then each named cokernel must have Ext^1(M, M) = 0.
    """
    if not w0.is_injective() or not v0.is_injective():
        raise NotMono("both seed maps must be injective")
    if w0.source != v0.source or w0.target != v0.target:
        raise QuivrepError("seed maps need common endpoints")
    seeds, out = {"w0": w0, "v0": v0}, []
    for name in rigid:
        mod = cokernel_data(seeds[name]).rep
        pres = None if mod.is_zero() else selfext.Presentation(mod)
        dim = selfext.ext1(mod, mod, pres)[0]
        if dim != 0:
            raise NotRigid("coker(%s) has Ext^1 of dimension %d" % (name, dim))
        out.append((mod, pres))
    return out


def cokernel_degeneration(w0, v0):
    """Bautista-Perez path: the cokernel of v0 as a degeneration of coker(w0).

    Requires both maps injective with common endpoints and coker(w0) rigid.
    Returns (RZSequence 0 -> U_n0 -> W + U_n0 -> W', n0) with n0 the first
    split stage; n0 is bounded by dim Ext^1(W, U_0), enforced as a hard cap.
    """
    cokers = _rigid_seed(w0, v0, "w0")
    bound = max(selfext.ext1(mod, w0.source, pres)[0] for mod, pres in cokers)
    lad = build_ladder(w0, v0, depth=bound + 1)
    for n0 in range(bound + 1):
        r = is_split_mono(lad.w_maps[n0])
        if r is not None:
            return _rz_from_split_stage(lad, n0, r), n0
    raise QuivrepError("internal error: no split stage within the Ext bound %d" % bound)


def _rz_from_split_stage(lad, n, r):
    """Assemble 0 -> U_n -> W + U_n -> W' -> 0 from the split w_n with
    retraction r."""
    w_mod = lad.basis_module
    u_n = lad.modules[n]
    to_w = lad.cokernels()[n].proj.then(lad.coker_ident(n))  # U_{n+1} -> W
    psi = hom_from_blocks(to_w.source, direct_sum([w_mod, u_n]), {(0, 0): to_w, (1, 0): r})
    mono = lad.v_maps[n].then(psi)
    # coker(v_n) -> coker(v_0) = W' along the horizontal maps
    v_cds = [cokernel_data(v) for v in lad.v_maps[: n + 1]]
    ident = coker_transport(v_cds, lad.w_maps)[n]
    epi = psi.inverse().then(v_cds[n].proj).then(ident)
    return RZSequence(u_n, w_mod, v_cds[0].rep, mono, epi)


def rigid_cokernel_iso(w0, v0, seed=0):
    """Iso witness coker(w0) ~ coker(v0) when both cokernels are rigid.

    Checks that both ladder maps split at a common stage n within the Ext^1
    bounds, then matches the decompositions of coker(w0) and coker(v0) by
    Krull-Remak-Schmidt (`match_decompositions`).
    """
    cokers = _rigid_seed(w0, v0, "w0", "v0")
    (w_mod, _), (v_mod, _) = cokers
    if w0 == v0:
        return ModHom.identity(w_mod)
    bound = max(selfext.ext1(mod, w0.source, pres)[0] for mod, pres in cokers)
    lad = build_ladder(w0, v0, depth=bound + 1)
    if not any(
        is_split_mono(lad.w_maps[n]) is not None and is_split_mono(lad.v_maps[n]) is not None
        for n in range(bound + 1)
    ):
        raise QuivrepError("no common split stage within the Ext bounds")
    witness = decomp.match_decompositions(w_mod, v_mod, seed=seed)
    if witness is None:
        raise QuivrepError("Krull-Remak-Schmidt matching failed unexpectedly")
    return witness


def split_iff_split(w0, v0):
    """For seeds w0, v0: U0 -> U1 with rigid cokernels, w0 splits iff v0
    splits."""
    _rigid_seed(w0, v0, "w0", "v0")
    return (is_split_mono(w0) is not None, is_split_mono(v0) is not None)
