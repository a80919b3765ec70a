"""Per-module invariant suites, runnable from tests and from `check`.

Each suite generates seeded random instances (plus the fixed fixtures),
verifies the module's stated invariants, and reports claim by claim.

Over an algebra with relations a random module is the cokernel of a random
map between two sums of projectives, and the sums and their hom space
depend only on the algebra and the two lists of projective tops.  A suite
that draws such modules makes one dict for each of its algebras, keyed by
(source tops, target tops) and holding the two sums and the `hom_space`
basis between them, and passes it to every `_random_module` call.  The
dicts live for one suite call: nothing is kept at module level, so every
run, and every suite call in one process, builds them anew.
"""

import random
from fractions import Fraction

from . import decomp, degen, io as qio, ladder, rep, selfext, squares, zladder
from . import fixtures as fx
from .algebra import projective
from .linalg import GF, QQ, Mat, int_mat_mul, smith_normal_form
from .scenarios import Report


def _random_mat(field, rng, nrows, ncols, span=4):
    return Mat(
        field,
        [[field.random(rng, span) for _ in range(ncols)] for _ in range(nrows)],
        nrows,
        ncols,
    )


def _random_rep(alg, rng, maxdim=3, allow_zero=False):
    dims = {v: rng.randrange(0, maxdim + 1) for v in alg.quiver.vertices}
    if not allow_zero and sum(dims.values()) == 0:
        dims[alg.quiver.vertices[rng.randrange(len(alg.quiver.vertices))]] = 1
    action = {}
    for a, s, t in alg.quiver.arrows:
        action[a] = _random_mat(alg.field, rng, dims[t], dims[s], span=2)
    return rep.Rep(alg, dims, action)


def _random_hom(m, n, rng, span=2, basis=None):
    if basis is None:
        basis = rep.hom_space(m, n)
    field = m.algebra.field
    return rep.combine([field.random(rng, span) for _ in basis], basis, m, n)


def _random_mono(m, n, rng, tries=40):
    if any(m.dims[v] > n.dims[v] for v in m.dims):
        # No hom m -> n is injective.  Make the draws the tries would have
        # made, so every later instance stays the same.
        field = m.algebra.field
        for _ in range(tries * rep.hom_dimension(m, n)):
            field.random(rng, 2)
        return None
    basis = rep.hom_space(m, n)
    if not basis and not m.is_zero():
        return None  # only the zero hom, which is not injective; no draws
    for _ in range(tries):
        h = _random_hom(m, n, rng, basis=basis)
        if h.is_injective():
            return h
    return None


def _random_module(alg, rng, maxdim=3, max_summands=2, homs=None):
    """A random module that satisfies the relations.

    Hereditary presentations take raw random matrices; otherwise the module
    is the cokernel of a random map between random sums of projectives.
    `homs` (see the module docstring) keeps those sums and the hom spaces
    between them for the next call on the same algebra.
    """
    if alg.is_hereditary():
        return _random_rep(alg, rng, maxdim)
    if homs is None:
        homs = {}
    verts = alg.quiver.vertices

    def tops(count):
        return tuple(verts[rng.randrange(len(verts))] for _ in range(count))

    for _ in range(20):
        tgt_tops = tops(rng.randrange(1, max_summands + 1))
        src_tops = tops(rng.randrange(0, max_summands + 1))
        key = (src_tops, tgt_tops)
        if key not in homs:
            src, tgt = (rep.sum_module([projective(alg, v)[0] for v in t], alg)
                        for t in key)
            homs[key] = src, tgt, rep.hom_space(src, tgt) if src_tops else []
        src, tgt, basis = homs[key]
        if not src_tops:
            return tgt
        f = _random_hom(src, tgt, rng, basis=basis)
        cok = rep.cokernel(f)[0]
        if not cok.is_zero():
            return cok
    return tgt


def suite_linalg(seed=0):
    rounds = 40
    rp = Report("suite-linalg", {"seed": seed, "rounds": rounds})
    rng = random.Random(seed)
    ok_null = ok_rank = ok_idem = True
    for _ in range(rounds):
        field = QQ if rng.random() < 0.5 else GF(rng.choice([2, 3, 5]))
        a = _random_mat(field, rng, rng.randrange(0, 5), rng.randrange(0, 5))
        rank, pivots, red = a.rref()
        null = a.null_space()
        for j in range(null.ncols):
            col = Mat.column(field, null.col(j))
            if not (a * col).is_zero():
                ok_null = False
        if rank + null.ncols != a.ncols:
            ok_rank = False
        if red.rref()[2] != red:
            ok_idem = False
    rp.claim("null space vectors are killed by the matrix", "linalg.null_space", ok_null)
    rp.claim("rank + nullity = columns", "linalg.rref", ok_rank)
    rp.claim("rref is idempotent", "linalg.rref", ok_idem)
    ok_snf = True
    for _ in range(rounds):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(a)
        d = int_mat_mul(int_mat_mul(res.transform_left, a), res.transform_right)
        for i in range(m):
            for j in range(n):
                want = res.d[i] if i == j and i < len(res.d) else 0
                if d[i][j] != want:
                    ok_snf = False
        for i in range(len(res.d) - 1):
            if res.d[i] and res.d[i + 1] % res.d[i]:
                ok_snf = False
            if not res.d[i] and res.d[i + 1]:
                ok_snf = False
    rp.claim("SNF reconstruction and divisibility", "linalg.smith_normal_form", ok_snf)
    return rp


def suite_algebra(seed=0):
    rp = Report("suite-algebra")
    algebras = [fx.kronecker(), fx.three_kronecker(), fx.loop_beta(), fx.loop_square(), fx.commuting_square_tower()]
    ok_assoc = True
    for alg in algebras:
        pb = alg.path_basis()
        elements = pb.basis_with_sources()
        for e1 in elements:
            for e2 in elements:
                p12 = pb.multiply_elements(e1, e2)
                for e3 in elements:
                    left = _combo_mult(pb, p12, e3, right=True)
                    p23 = pb.multiply_elements(e2, e3)
                    right_c = _combo_mult(pb, p23, e1, right=False)
                    if left != right_c:
                        ok_assoc = False
    rp.claim("multiplication table associative on all basis triples", "algebra.path_basis", ok_assoc)
    ok_proj = True
    for alg in algebras:
        for v in alg.quiver.vertices:
            p, _ = projective(alg, v)
            if p.failing_relation() is not None:
                ok_proj = False
    rp.claim("relations vanish on every projective", "algebra.projective", ok_proj)
    ok_hered = True
    for alg in (fx.kronecker(), fx.three_kronecker(), fx.d4_subspace()):
        for v in alg.quiver.vertices:
            p, _ = projective(alg, v)
            omega, _ = selfext.syzygy(p)
            if not omega.is_zero():
                ok_hered = False
    rp.claim("projectives of hereditary presentations have zero syzygy", "selfext.syzygy", ok_hered)
    return rp


def _combo_mult(pb, combo, e, right):
    """Multiply a {element: coef} combo by a basis element (on the given side)."""
    field = pb.algebra.field
    out = {}
    for elem, c in combo.items():
        prod = pb.multiply_elements(elem, e) if right else pb.multiply_elements(e, elem)
        for elem2, c2 in prod.items():
            val = field.add(out.get(elem2, field.zero()), field.mul(c, c2))
            if val == field.zero():
                out.pop(elem2, None)
            else:
                out[elem2] = val
    return out


def suite_rep(seed=0):
    rp = Report("suite-rep", {"seed": seed})
    rng = random.Random(seed)
    algebras = [(fx.kronecker(), {}), (fx.loop_beta(), {}), (fx.commuting_square_tower(), {})]
    ok_exact = ok_bilin = True
    for _ in range(12):
        alg, homs = rng.choice(algebras)
        m = _random_module(alg, rng, homs=homs)
        n = _random_module(alg, rng, homs=homs)
        f = _random_hom(m, n, rng)
        k_rep, k_incl = rep.kernel(f)
        c_rep, c_proj = rep.cokernel(f)
        i_rep, i_incl, i_proj = rep.image(f)
        if not k_incl.is_injective() or not c_proj.is_surjective():
            ok_exact = False
        for v in m.dims:
            if k_rep.dims[v] + i_rep.dims[v] != m.dims[v]:
                ok_exact = False
            if c_rep.dims[v] != n.dims[v] - i_rep.dims[v]:
                ok_exact = False
        if not k_incl.then(f).is_zero():
            ok_exact = False
        if not f.then(c_proj).is_zero():
            ok_exact = False
        p = _random_module(alg, rng, 2, homs=homs)
        s = rep.sum_module([n, p])
        if len(rep.hom_space(m, s)) != len(rep.hom_space(m, n)) + len(rep.hom_space(m, p)):
            ok_bilin = False
    rp.claim("kernel/cokernel/image exactness audit", "rep.kernel", ok_exact)
    rp.claim("Hom(M, N1+N2) dimension is additive", "rep.hom_space", ok_bilin)
    ok_rad = ok_top = True
    for alg, _ in algebras:
        for v in alg.quiver.vertices:
            p, _ = projective(alg, v)
            r = rep.radical(p)
            if p.total_dim() and r.total_dim() >= p.total_dim():
                ok_rad = False
            t, _ = rep.top(p)
            for a in alg.quiver.arrow_names:
                if not t.action[a].is_zero():
                    ok_top = False
    rp.claim("radical of a projective is proper", "rep.radical", ok_rad)
    rp.claim("top has zero arrow actions", "rep.top", ok_top)
    return rp


def suite_squares(seed=0):
    rounds = 100
    rp = Report("suite-squares", {"seed": seed, "rounds": rounds})
    rng = random.Random(seed)
    algebras = [(fx.kronecker(), {}), (fx.commuting_square_tower(), {})]
    ok_compose = True
    ok_mono = True
    built = 0
    while built < rounds:
        alg, homs = rng.choice(algebras)
        x = _random_module(alg, rng, 2, homs=homs)
        y1 = _random_module(alg, rng, 3, homs=homs)
        w = _random_mono(x, y1, rng)
        if w is None:
            continue
        y2 = _random_module(alg, rng, 2, homs=homs)
        v = _random_hom(x, y2, rng)
        sq1 = squares.pushout(w, v)
        if not squares.is_exact_square(sq1):
            ok_compose = False
        if not sq1.fp.is_injective():
            ok_mono = False
        z1 = _random_module(alg, rng, 2, homs=homs)
        w2 = _random_mono(sq1.y1, rep.sum_module([sq1.y1, z1]), rng)
        if w2 is None:
            continue
        sq2 = squares.pushout(w2, sq1.gp)
        comp = squares.compose_squares(sq1, sq2, "horizontal")
        if not squares.is_exact_square(comp):
            ok_compose = False
        built += 1
    rp.claim("pushout squares along monos compose to exact squares", "squares.compose_squares", ok_compose)
    rp.claim("pushout of a mono is a mono", "squares.pushout", ok_mono)
    # zero-leg squares: the opposite map splits
    ok_zero_leg = True
    ok_split_seq = True
    tried = 0
    while tried < 20:
        alg, homs = rng.choice(algebras)
        x = _random_module(alg, rng, 2, homs=homs)
        y1 = _random_module(alg, rng, 3, homs=homs)
        f = _random_mono(x, y1, rng)
        if f is None:
            continue
        y2 = _random_module(alg, rng, 2, homs=homs)
        sq = squares.pushout(f, rep.ModHom.zero_hom(x, y2))
        if squares.is_split_mono(sq.fp) is None:
            ok_zero_leg = False
        # padded square: the left vertical is split mono, so the associated
        # 4-term sequence splits
        pad = _random_module(alg, rng, 2, homs=homs)
        tsq = squares.trivial_square(f, pad)
        seq = squares.square_sequence(tsq)
        if squares.is_split_epi(seq.p) is None or squares.is_split_mono(seq.i) is None:
            ok_split_seq = False
        tried += 1
    rp.claim("squares with a zero leg produce a split mono opposite", "squares.is_split_mono", ok_zero_leg)
    rp.claim("split-leg squares give split 4-term sequences", "squares.is_split_epi", ok_split_seq)
    return rp


def suite_ladder(seed=0):
    rp = Report("suite-ladder", {"seed": seed})
    alg = fx.kronecker()
    w0, v0 = fx.kronecker_regular_seed(alg)
    lad = ladder.build_ladder(w0, v0, depth=5)
    h = lad.basis_module
    # each w_i is verified injective, so dim coker(w_i) = dim U_{i+1} - dim U_i
    ok = all(
        {x: lad.modules[i + 1].dims[x] - d for x, d in lad.modules[i].dims.items()} == h.dims
        for i in range(lad.depth)
    )
    rp.claim("coker(w_i) keeps the dimension vector of H", "ladder.build_ladder", ok)
    ok_gen = all(
        rep.is_generated_by(lad.modules[i], lad.canonical_generators(i))
        for i in range(1, 6)
    )
    rp.claim("generation by canonical copies of U_1", "rep.is_generated_by", ok_gen)
    # scalar shift: both truncations isomorphic and classes equal
    field = alg.field
    mu = field.conv(Fraction(3, 2))
    lad_a = ladder.build_ladder(w0, v0, depth=2)
    lad_b = ladder.build_ladder(w0, v0 + w0.scale(mu), depth=2)
    h2a = lad_a.truncation(2).rep
    h2b = lad_b.truncation(2).rep
    rp.claim(
        "seed shift by a multiple of w0 keeps H[2]",
        "ladder.build_ladder",
        decomp.are_isomorphic(h2a, h2b, seed=seed).verdict == "isomorphic",
    )
    # the two-sided truncation sequences are verified on construction; record
    for n in range(1, 6):
        lad.truncation(n)
    rp.claim("both truncation sequences exact at stages 1..5", "ladder.truncation", True)
    return rp


def suite_selfext(seed=0):
    rp = Report("suite-selfext", {"seed": seed})
    alg = fx.kronecker()
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    w0, v0 = fx.kronecker_regular_seed(alg)
    h, _ = rep.cokernel(w0)
    h_pa = rep.sum_module([h, pa])
    fixtures = [pa, pb, h, h_pa]
    ok_euler = True
    for m in fixtures:
        if m.is_zero():
            continue
        pres = selfext.Presentation(m)
        for n in fixtures:
            dim_ext = selfext.ext1(m, n, pres)[0]
            expected = (
                len(rep.hom_space(pres.omega, n))
                - len(rep.hom_space(pres.p_total, n))
                + len(rep.hom_space(m, n))
            )
            if dim_ext != expected:
                ok_euler = False
    rp.claim(
        "Ext dimension formula for projective dimension <= 1",
        "selfext.ext1",
        ok_euler,
    )
    ok_standard = True
    for m in fixtures:
        if selfext.proj_dim_at_most_one(m):
            pres = selfext.Presentation(m)
            if selfext.standard_subspace(m, pres)[0] != selfext.ext1(m, m, pres)[0]:
                ok_standard = False
    rp.claim(
        "projective dimension <= 1 forces standard = full Ext",
        "selfext.standard_subspace",
        ok_standard,
    )
    # roundtrip every nonzero class on the regular module
    pres = selfext.Presentation(h)
    dim, classes = selfext.ext1(h, h, pres)
    ok_round = True
    for c in classes:
        u0, wp = selfext.standard_to_ladder(c)
        ext, h2 = ladder.ladder_extension(pres.p, wp)
        mid = selfext.class_to_sequence(c).b
        if decomp.are_isomorphic(h2, mid, seed=seed).verdict != "isomorphic":
            ok_round = False
        if not selfext.ext_class_of_sequence(ext, pres).equals(c):
            ok_round = False
    rp.claim("standard classes roundtrip through ladder seeds", "selfext.standard_to_ladder", ok_round)
    # inclusion chain via dimension count
    ok_chain = True
    for m in (h, pa, h_pa):  # Im Hom(u, M) is zero for H and P(a), not for H + P(a)
        pres_m = selfext.Presentation(m)
        maps = rep.hom_space(pres_m.omega, pres_m.p_total)
        through_p = [x.then(pres_m.p) for x in maps]
        for hh in selfext.hom_u_image(pres_m, m):
            if rep.hom_coordinates(through_p, hh) is None:
                ok_chain = False
    rp.claim(
        "Im Hom(u, H) sits inside Im Hom(Omega, p)",
        "selfext.standard_subspace",
        ok_chain,
    )
    # tower example: not standard but reconstructible through the quotient
    talg = fx.commuting_square_tower()
    field = talg.field
    htow = rep.Rep(talg, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    pres_t = selfext.Presentation(htow)
    _, classes_t = selfext.ext1(htow, htow, pres_t)
    c = classes_t[0]
    ok_tower = not selfext.is_standard(c)
    seed_pair = selfext.reduced_presentation_seed(c)
    if seed_pair is None:
        ok_tower = False
    else:
        qbar, v0t = seed_pair
        ext_t, h2t = ladder.ladder_extension(qbar, v0t)
        ok_tower = ok_tower and selfext.ext_class_of_sequence(ext_t, pres_t).equals(c)
    rp.claim(
        "non-standard class rebuilt through the quotient presentation",
        "selfext.reduced_presentation_seed",
        ok_tower,
    )
    return rp


def suite_degen(seed=0):
    rounds = 6
    rp = Report("suite-degen", {"seed": seed, "rounds": rounds})
    rng = random.Random(seed)
    algebras = [fx.kronecker(), fx.d4_subspace()]
    ok_pipe = ok_combo = ok_chain = True
    done = 0
    while done < rounds:
        alg = algebras[done % len(algebras)]
        rz = _random_rz(alg, rng)
        if rz is None:
            continue
        rz2 = degen.make_steering_nilpotent(rz)
        t = rz2.nilpotency_index()
        if t is None:
            ok_pipe = False
            break
        cert = degen.rz_to_prufer(rz2, depth=max(4, t + 1))
        for n in range(cert.index, max(4, t + 1)):
            wmap = degen.eventual_splitting(cert, n)
            if not wmap.is_isomorphism():
                ok_pipe = False
        degen.co_rz(cert)
        combos = degen.steering_combinations_split(rz2)
        if not all(combos.values()):
            ok_combo = False
        # corollary at finite stage: Y[n] ~ Y[t] + X^(n-t)
        tmax = max(4, t + 1)
        for n in range(cert.index, tmax):
            target = rep.sum_module([cert.truncation(cert.index).rep] + [rz2.x] * (n - cert.index))
            got = cert.truncation(n).rep
            if got.dims != target.dims:
                ok_chain = False
        done += 1
    rp.claim("nilpotent steering pipeline verifies end to end", "degen.rz_to_prufer", ok_pipe)
    rp.claim("unit-plus-scaled-steering maps split", "degen.steering_combinations_split", ok_combo)
    rp.claim("truncations grow by one copy of X per stage", "degen.eventual_splitting", ok_chain)
    # stabilization along a rigid ladder + monotone splitness (D4)
    alg = fx.d4_subspace()
    w0, v0 = fx.d4_seed(alg)
    w_mod = rep.cokernel(w0)[0]
    bound = selfext.ext1(w_mod, w0.source)[0]
    lad = ladder.build_ladder(w0, v0, depth=bound + 2)
    split_flags = [squares.is_split_mono(w) is not None for w in lad.w_maps]
    first = split_flags.index(True) if True in split_flags else None
    ok_bound = first is not None and first <= bound
    ok_mono = first is not None and all(split_flags[first:])
    rp.claim("first split stage within the Ext bound", "degen.cokernel_degeneration", ok_bound, split_flags)
    rp.claim("once split, always split", "squares.is_split_mono", ok_mono)
    return rp


def _random_rz(alg, rng):
    u = _random_rep(alg, rng, 2)
    x = _random_rep(alg, rng, 2)
    mid = rep.sum_module([x, u])
    mono = _random_mono(u, mid, rng)
    if mono is None:
        return None
    y, proj = rep.cokernel(mono)
    return degen.check_rz(u, x, y, mono, proj)


def suite_decomp(seed=0):
    rp = Report("suite-decomp", {"seed": seed})
    rng = random.Random(seed)
    alg = fx.kronecker()
    w0, v0 = fx.kronecker_regular_seed(alg)
    h, _ = rep.cokernel(w0)
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    mods = [h, pa, pb]
    ok_krs = ok_sym = ok_wit = True
    for _ in range(8):
        m = rng.choice(mods)
        n = rng.choice(mods)
        mn = rep.sum_module([m, n])
        left = decomp.decompose(mn, seed=seed)
        right = decomp.decompose(m, seed=seed) + decomp.decompose(n, seed=seed)
        lmulti = sorted((tuple(sorted(r.dims.items())), mult) for r, mult in left)
        rail = {}
        for r, mult in right:
            key = tuple(sorted(r.dims.items()))
            rail[key] = rail.get(key, 0) + mult
        rmulti = sorted(rail.items())
        if lmulti != rmulti:
            ok_krs = False
        va = decomp.are_isomorphic(m, n, seed=seed).verdict
        vb = decomp.are_isomorphic(n, m, seed=seed).verdict
        if va != vb:
            ok_sym = False
        repo = decomp.are_isomorphic(mn, rep.sum_module([n, m]), seed=seed)
        if repo.verdict != "isomorphic" or not repo.witness.is_isomorphism():
            ok_wit = False
    rp.claim("decompose is additive on direct sums", "decomp.decompose", ok_krs)
    rp.claim("are_isomorphic is symmetric", "decomp.are_isomorphic", ok_sym)
    rp.claim("iso verdicts carry verified witnesses", "decomp.are_isomorphic", ok_wit)
    # orthogonal complete idempotents
    mn = rep.sum_module([h, h, pa])
    parts = decomp.split_indecomposable_parts(mn, seed=seed)
    total = None
    ok_idem = True
    for sd in parts:
        e = sd.proj.then(sd.incl)
        if not sd.incl.then(sd.proj) == rep.ModHom.identity(sd.rep):
            ok_idem = False
        total = e if total is None else total + e
    ok_idem = ok_idem and total == rep.ModHom.identity(mn)
    rp.claim("split witnesses are orthogonal idempotents summing to 1", "decomp.split_indecomposable_parts", ok_idem)
    return rp


def suite_zladder(seed=0):
    rp = Report("suite-zladder")
    ok_orders = ok_exp = True
    for w, v, depth in ((2, 3, 6), (2, 2, 4), (2, 5, 5), (3, 2, 4), (2, 7, 4)):
        groups = zladder.z_ladder(w, v, depth)
        base = groups[0].order()
        for k, g in enumerate(groups):
            if g.order() != base ** (k + 1):
                ok_orders = False
        if v % 2 == 1 and w == 2:
            if not all(g.invariant_factors in ((), (2 ** (k + 1),)) for k, g in enumerate(groups)):
                ok_exp = False
        if v % 2 == 0 and w == 2:
            if not all((g.exponent() or 1) <= 2 for g in groups):
                ok_exp = False
    rp.claim("orders multiply along the ladder", "zladder.z_ladder", ok_orders)
    rp.claim("odd seeds give cyclic 2-power groups, even seeds exponent 2", "zladder.z_ladder", ok_exp)
    return rp


def suite_io(seed=0):
    rp = Report("suite-io")
    alg = fx.commuting_square_tower()
    text = qio.emit_algebra(alg)
    ns = qio.parse_text(text)
    ok = ns.algebras[alg.name] == alg
    field = alg.field
    htow = rep.Rep(alg, {"a": 1, "b": 1}, {"beta": Mat(field, [[1]])})
    text2 = text + "\n" + qio.emit_module(htow, "H", alg.name)
    ns2 = qio.parse_text(text2)
    ok = ok and ns2.modules["H"] == htow
    hom = rep.ModHom.identity(htow)
    text3 = text2 + "\n" + qio.emit_hom(hom, "idH", "H", "H")
    ns3 = qio.parse_text(text3)
    ok = ok and ns3.homs["idH"] == hom
    rp.claim("algebra/module/hom round trips through the text format", "io.parse_text", ok)
    return rp


SUITES = {
    "linalg": suite_linalg,
    "algebra": suite_algebra,
    "rep": suite_rep,
    "squares": suite_squares,
    "ladder": suite_ladder,
    "selfext": suite_selfext,
    "degen": suite_degen,
    "decomp": suite_decomp,
    "zladder": suite_zladder,
    "io": suite_io,
}
