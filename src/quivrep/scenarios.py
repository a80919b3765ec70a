"""Named runnable scenarios and invariant suites.

Every worked example ships as a named scenario producing claim-by-claim
results; `check` aggregates these with the per-module property suites.
Each entry records the operation that produced it so reports are auditable.
"""

from fractions import Fraction

from . import decomp, degen, ladder, rep, selfext, squares, zladder
from . import fixtures as fx
from .errors import NotRigid
from .linalg import GF, QQ, Mat


class Report:
    """Scenario outcome: named claims with pass/fail and evidence."""

    def __init__(self, scenario, inputs=None):
        self.scenario = scenario
        self.inputs = inputs or {}
        self.results = []

    def claim(self, name, op, ok, evidence=""):
        self.results.append(
            {"claim": name, "op": op, "status": "pass" if ok else "fail", "evidence": str(evidence)}
        )
        return ok

    @property
    def ok(self):
        return all(r["status"] == "pass" for r in self.results)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "inputs": self.inputs,
            "results": self.results,
            "ok": self.ok,
        }


def scenario_kronecker():
    """Regular ladder on the Kronecker algebra: truncation growth and
    indecomposability, plus the split case."""
    depth = 6
    rp = Report("kronecker", {"depth": depth})
    alg = fx.kronecker()
    w0, v0 = fx.kronecker_regular_seed(alg)
    lad = ladder.build_ladder(w0, v0, depth=depth)
    ok_dims = all(
        lad.truncation(n).rep.dims == {"a": n, "b": n} for n in range(1, depth + 1)
    )
    rp.claim("H[n] has dimension vector (n, n)", "ladder.truncation", ok_dims)
    ok_indec = True
    for n in range(1, depth + 1):
        verdict, _ = decomp.is_indecomposable(lad.truncation(n).rep)
        ok_indec = ok_indec and verdict
    rp.claim("H[n] indecomposable for n = 1..%d" % depth, "decomp.is_indecomposable", ok_indec)
    lad2 = ladder.build_ladder(w0, w0.scale(Fraction(2)), depth=4)
    h = lad.basis_module
    ok_split = True
    for n in range(1, 5):
        hn = lad2.truncation(n).rep
        hsum = rep.sum_module([h] * n)
        ok_split = ok_split and decomp.are_isomorphic(hn, hsum).verdict == "isomorphic"
    rp.claim("for v0 in k*w0: H[n] ~ H^n", "decomp.are_isomorphic", ok_split)
    gens_ok = all(
        rep.is_generated_by(lad.modules[i], lad.canonical_generators(i))
        for i in range(1, depth + 1)
    )
    rp.claim("U_i generated by i canonical copies of U_1", "rep.is_generated_by", gens_ok)
    return rp


def scenario_three_kronecker():
    """Two self-extension data with equal H[2] but different H[3]."""
    rp = Report("three-kronecker")
    alg = fx.three_kronecker()
    h, ph, q, omega, w, f, g = fx.three_kronecker_warning_data(alg)
    rp.claim("PH has dimension vector (1, 3)", "algebra.projective", ph.dims == {"a": 1, "b": 3})
    rp.claim("Omega H has dimension vector (0, 2)", "rep.kernel", omega.dims == {"a": 0, "b": 2})
    rp.claim("q o f = q o g", "rep.ModHom.then", f.then(q) == g.then(q))
    ladf = ladder.build_ladder(w, f, depth=3)
    ladg = ladder.build_ladder(w, g, depth=3)
    h2f, h2g = ladf.truncation(2).rep, ladg.truncation(2).rep
    iso2 = decomp.are_isomorphic(h2f, h2g)
    rp.claim("H[2;w,f] ~ H[2;w,g] with witness", "decomp.are_isomorphic", iso2.verdict == "isomorphic", iso2.verdict)
    ann2, basis2 = rep.annihilator_dimension(h2f)
    rp.claim(
        "H[2] is the self-extension annihilated by gamma",
        "rep.annihilator_dimension",
        any(len(c) == 1 and c[0][1][0] == ("gamma",) for c in basis2),
        "dim %d" % ann2,
    )
    h3f, h3g = ladf.truncation(3).rep, ladg.truncation(3).rep
    ann_f, basis_f = rep.annihilator_dimension(h3f)
    ann_g, _ = rep.annihilator_dimension(h3g)
    gamma_in = any(
        len(combo) == 1 and combo[0][1][0] == ("gamma",) for combo in basis_f
    )
    rp.claim("H[3;w,f] annihilated exactly by gamma", "rep.annihilator_dimension", ann_f == 1 and gamma_in, "dim %d" % ann_f)
    rp.claim("H[3;w,g] faithful", "rep.is_faithful", ann_g == 0, "dim %d" % ann_g)
    iso3 = decomp.are_isomorphic(h3f, h3g)
    rp.claim(
        "H[3] values not isomorphic, annihilator refutation",
        "decomp.are_isomorphic",
        iso3.verdict == "not-isomorphic" and "annihilator" in (iso3.refutation or ""),
        iso3.refutation,
    )
    return rp


def scenario_d4():
    """Rigid-cokernel degeneration on D4 with the field-size constraint."""
    rp = Report("d4")
    alg = fx.d4_subspace(QQ)
    w0, v0 = fx.d4_seed(alg)
    w_mod = rep.cokernel(w0)[0]
    wp_mod = rep.cokernel(v0)[0]
    u0 = w0.source
    rp.claim("dim Ext^1(W, U0) = 2", "selfext.ext1", selfext.ext1(w_mod, u0)[0] == 2)
    rp.claim("W rigid", "selfext.ext1", selfext.ext1(w_mod, w_mod)[0] == 0)
    dim_wp = selfext.ext1(wp_mod, wp_mod)[0]
    rp.claim(
        "W' not rigid (the failing hypothesis of the pair)",
        "selfext.ext1",
        dim_wp != 0,
        "dim Ext^1(W',W') = %d" % dim_wp,
    )
    lad = ladder.build_ladder(w0, v0, depth=3)
    u2 = lad.modules[2]
    parts = decomp.decompose(u2)
    vecs = sorted(tuple(r.dims[v] for v in ("a", "b", "c", "d")) for r, _ in parts)
    expected = [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]
    rp.claim(
        "U2 decomposes into the three listed indecomposables",
        "decomp.decompose",
        vecs == expected and all(m == 1 for _, m in parts),
        vecs,
    )
    rp.claim(
        "w1 does not split",
        "squares.is_split_mono",
        squares.is_split_mono(lad.w_maps[1]) is None,
    )
    u2w = rep.sum_module([u2, w_mod])
    iso = decomp.are_isomorphic(lad.modules[3], u2w)
    rp.claim("U3 ~ U2 + W", "decomp.are_isomorphic", iso.verdict == "isomorphic")
    rz, n0 = degen.cokernel_degeneration(w0, v0)
    rp.claim("cokernel degeneration found with n0 <= 2", "degen.cokernel_degeneration", n0 <= 2, "n0 = %d" % n0)
    rp.claim(
        "its Y is the cokernel of v0",
        "decomp.are_isomorphic",
        decomp.are_isomorphic(rz.y, wp_mod).verdict == "isomorphic",
    )
    # field size: over GF(2) no mono U0 -> U1 has cokernel W; over GF(3) one does
    ok2 = _d4_no_rigid_cokernel_over_gf2()
    rp.claim("no mono with cokernel W over GF(2)", "decomp.are_isomorphic", ok2)
    alg3 = fx.d4_subspace(GF(3))
    w03, _ = fx.d4_seed(alg3, q_scalar=2)
    w3 = rep.cokernel(w03)[0]
    sincere3 = _d4_sincere(alg3)
    rp.claim(
        "a mono with cokernel W exists over GF(3)",
        "decomp.are_isomorphic",
        decomp.are_isomorphic(w3, sincere3).verdict == "isomorphic",
    )
    try:
        degen.rigid_cokernel_iso(w0, v0)
        rp.claim("rigid_cokernel_iso reports the failing hypothesis", "degen.rigid_cokernel_iso", False, "no error raised")
    except NotRigid as exc:
        rp.claim(
            "rigid_cokernel_iso reports the failing hypothesis",
            "degen.rigid_cokernel_iso",
            "coker(v0)" in str(exc),
            exc,
        )
    isow = decomp.are_isomorphic(w_mod, wp_mod)
    rp.claim(
        "W and W' are not isomorphic",
        "decomp.are_isomorphic",
        isow.verdict == "not-isomorphic",
        isow.refutation,
    )
    return rp


def _d4_sincere(alg):
    field = alg.field
    return rep.Rep(
        alg,
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {
            "beta": Mat(field, [[1]]),
            "gamma": Mat(field, [[1]]),
            "delta": Mat(field, [[1]]),
        },
    )


def _d4_no_rigid_cokernel_over_gf2():
    alg = fx.d4_subspace(GF(2))
    u0, u1, mu_b, mu_c, mu_d = fx.d4_modules(alg)
    sincere = _d4_sincere(alg)
    field = alg.field
    for x1 in range(2):
        for x2 in range(2):
            if x1 == 0 and x2 == 0:
                continue
            cand = rep.ModHom(u0, u1, {"a": Mat(field, [[x1], [x2]])})
            if not cand.is_injective():
                return False
            cok = rep.cokernel(cand)[0]
            if decomp.are_isomorphic(cok, sincere).verdict == "isomorphic":
                return False
    return True


def scenario_loop_beta():
    """Self-extension over the arrow-plus-loop algebra: a nonzero class that
    is not standard (and is not a ladder extension at all)."""
    rp = Report("loop-beta")
    alg = fx.loop_beta()
    field = alg.field
    h = rep.Rep(
        alg,
        {"a": 1, "b": 2},
        {
            "alpha": Mat(field, [[1], [0]]),
            "beta": Mat(field, [[0, 0], [1, 0]]),
        },
    )
    pres = selfext.Presentation(h)
    rp.claim("PH = P(a) with dims (1, 3)", "selfext.projective_cover", pres.p_total.dims == {"a": 1, "b": 3})
    rp.claim("Omega H is the simple at b", "selfext.syzygy", pres.omega.dims == {"a": 0, "b": 1})
    dim, classes = selfext.ext1(h, h, pres)
    rp.claim("dim Ext^1(H, H) = 1", "selfext.ext1", dim == 1)
    dim_s, _ = selfext.standard_subspace(h, pres)
    rp.claim("standard subspace is zero", "selfext.standard_subspace", dim_s == 0)
    ses = selfext.class_to_sequence(classes[0])
    rp.claim("middle of the extension has dims (2, 4)", "selfext.class_to_sequence", ses.b.dims == {"a": 2, "b": 4})
    rp.claim(
        "the class is not standard",
        "selfext.is_standard",
        not selfext.is_standard(classes[0]),
    )
    rp.claim(
        "no quotient-presentation ladder seed exists",
        "selfext.reduced_presentation_seed",
        selfext.reduced_presentation_seed(classes[0]) is None,
    )
    return rp


def scenario_loop_square():
    """The x^2 = 0 point: nonzero Ext, zero standard part, no simple-socle
    ladder witness."""
    rp = Report("loop-square")
    alg = fx.loop_square()
    s = rep.Rep.simple(alg, "v")
    dim, classes = selfext.ext1(s, s)
    rp.claim("dim Ext^1(S, S) = 1", "selfext.ext1", dim == 1)
    dim_s, _ = selfext.standard_subspace(s)
    rp.claim("standard subspace is zero", "selfext.standard_subspace", dim_s == 0)
    rp.claim("projective dimension > 1", "selfext.proj_dim_at_most_one", not selfext.proj_dim_at_most_one(s))
    ses = selfext.class_to_sequence(classes[0])
    witness = ladder.ladder_seed_from_simple(ses, rep.ModHom.identity(s))
    rp.claim(
        "no ladder witness from the simple submodule (Ext^1(S,S) != 0)",
        "ladder.ladder_seed_from_simple",
        witness is None,
    )
    return rp


def scenario_z():
    """Integer ladders: the classical 2-power truncations and the even case."""
    depth = 6
    rp = Report("z", {"depth": depth})
    groups = zladder.z_ladder(2, 3, depth)
    rp.claim(
        "seed (2,3): H[k] ~ Z/2^k",
        "zladder.z_ladder",
        all(g.invariant_factors == (2 ** (k + 1),) for k, g in enumerate(groups)),
        [g.describe() for g in groups],
    )
    groups2 = zladder.z_ladder(2, 2, 4)
    rp.claim(
        "seed (2,2): H[k] elementary abelian of rank k",
        "zladder.z_ladder",
        all(g.invariant_factors == tuple([2] * (k + 1)) for k, g in enumerate(groups2)),
        [g.describe() for g in groups2],
    )
    groups3 = zladder.z_ladder(1, 5, 3)
    rp.claim("split seed gives trivial truncations", "zladder.z_ladder", all(g.is_trivial() for g in groups3))
    po = zladder.z_pushout_of_multiplications(2, 3)
    rp.claim("pushout of (2, 3) on Z is Z", "zladder.z_pushout_of_multiplications", po.describe() == "Z")
    orders = [g.order() for g in groups]
    rp.claim(
        "|H[k]| = |H[1]|^k",
        "zladder.z_ladder",
        all(orders[k] == orders[0] ** (k + 1) for k in range(len(orders))),
    )
    return rp


SCENARIOS = {
    "kronecker": scenario_kronecker,
    "three-kronecker": scenario_three_kronecker,
    "d4": scenario_d4,
    "loop-beta": scenario_loop_beta,
    "loop-square": scenario_loop_square,
    "z": scenario_z,
}
