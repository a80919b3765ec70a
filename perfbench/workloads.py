"""Inputs and rounds of the three benchmark workloads.

``check`` runs ``quivrep check --seed SEED`` through ``quivrep.cli``.  The
two ladder workloads run the paper's constructions on seed pairs generated
from the seed, over Q (``ladder-q``) and over GF(32003) (``ladder-gf``).
Inputs are generated in the benchmark's parent process and handed to the
measured process as text in the ``quivrep.io`` format, so that set-up pays
for parsing them exactly as a user reading input files would.

Every round runs the same items on the same inputs, so per-round times,
counts and outputs are comparable within and across runs.  Library calls
go through module attributes (``ladder.build_ladder``, not a name bound
here), so the traced run's wrappers see them.
"""

import contextlib
import io as _io
import json
import random
import time
from functools import partial

from quivrep import cli, degen, ladder, rep, selfext, squares
from quivrep import algebra as qalg
from quivrep import fixtures as fx
from quivrep import io as qio
from quivrep.linalg import GF, QQ, Mat

WORKLOADS = ("check", "ladder-q", "ladder-gf")
GF_PRIME = 32003

# (tag, algebra, projective tops of U0, projective tops of U1, depth).
# The tops list vertices; U0 and U1 are the direct sums of those
# indecomposable projectives.  For d4, U1 is the fixture's indecomposable
# module of dimension vector (2, 1, 1, 1) instead.  Both seeds are injective
# in every entry, so each also feeds a chessboard.
LADDER_SPECS = (
    ("kr", "kronecker", ("b", "b"), ("a", "a"), 4),
    ("k3", "three-kronecker", ("b",), ("a",), 4),
    ("d4", "d4", ("a",), None, 5),
    ("tw", "tower", ("c",), ("a", "b"), 3),
    ("lb", "loop-beta", ("b",), ("a", "b"), 3),
)
# Rigid-cokernel seeds for cokernel_degeneration: (tag, algebra, U0 tops,
# U1 tops).  Generic maps P(b) -> P(a)^2 on the Kronecker quiver have the
# preprojective cokernel of dimension vector (2, 3); the d4 entry reuses the
# ladder seed above, whose generic cokernel is the sincere rigid module.
RIGID_SPECS = (("krp", "kronecker", ("b",), ("a", "a")),)
# Riedtmann-Zwara sequences 0 -> U -> X + U -> Y -> 0 with random U and X of
# fixed dimension vectors: (algebra, dim U, dim X, count).
RZ_SPECS = (
    ("kronecker", (1, 2), (2, 1), 2),
    ("d4", (1, 1, 0, 1), (2, 1, 1, 1), 2),
)
RZ_DEPTH = 5
MAX_TRIES = 200


def algebras(field):
    return {
        "kronecker": fx.kronecker(field),
        "three-kronecker": fx.three_kronecker(field),
        "d4": fx.d4_subspace(field),
        "tower": fx.commuting_square_tower(field),
        "loop-beta": fx.loop_beta(field),
    }


def _sum_of_projectives(alg, tops):
    parts = [qalg.projective(alg, v)[0] for v in tops]
    return parts[0] if len(parts) == 1 else rep.direct_sum(parts)[0]


def _random_hom(m, n, rng, span=3):
    field = m.algebra.field
    out = rep.ModHom.zero_hom(m, n)
    for b in rep.hom_space(m, n):
        c = field.random(rng, span)
        if c != field.zero():
            out = out + b.scale(c)
    return out


def _random_rep(alg, rng, dim_vector):
    """A random module with no relations to satisfy (hereditary algebras)."""
    field = alg.field
    dims = dict(zip(alg.quiver.vertices, dim_vector))
    action = {}
    for a, s, t in alg.quiver.arrows:
        action[a] = Mat(
            field, [[field.random(rng, 2) for _ in range(dims[s])] for _ in range(dims[t])],
            dims[t], dims[s],
        )
    return rep.Rep(alg, dims, action)


def _seed_pair(u0, u1, rng, need_rigid=False):
    """(w0, v0): U0 -> U1, both injective, coker(w0) nonzero (and rigid)."""
    for _ in range(MAX_TRIES):
        w0 = _random_hom(u0, u1, rng)
        v0 = _random_hom(u0, u1, rng)
        if not (w0.is_injective() and v0.is_injective()):
            continue
        w_mod = rep.cokernel(w0)[0]
        if w_mod.is_zero():
            continue
        if need_rigid and selfext.ext1(w_mod, w_mod)[0] != 0:
            continue
        return w0, v0
    raise RuntimeError("no seed pair found in %d tries" % MAX_TRIES)


def _rz_sequence(alg, rng, dim_u, dim_x):
    """(U, X, X + U, Y, mono, epi) with a random injective mono."""
    for _ in range(MAX_TRIES):
        u = _random_rep(alg, rng, dim_u)
        x = _random_rep(alg, rng, dim_x)
        mid = rep.direct_sum([x, u])[0]
        mono = _random_hom(u, mid, rng, span=2)
        if not mono.is_injective():
            continue
        y, epi = rep.cokernel(mono)
        return u, x, mid, y, mono, epi
    raise RuntimeError("no injective RZ mono found in %d tries" % MAX_TRIES)


def generate(workload, seed):
    """The workload's inputs for a seed, as a JSON-serialisable payload."""
    if workload == "check":
        return {"workload": workload, "seed": seed}
    field = QQ if workload == "ladder-q" else GF(GF_PRIME)
    rng = random.Random("%s/%d" % (workload, seed))
    algs = algebras(field)
    chunks = [qio.emit_algebra(a) for a in algs.values()]

    def modules(tag, **named):
        chunks.extend(qio.emit_module(m, tag + "_" + part) for part, m in named.items())

    def seed_pair(tag, name, tops0, tops1, need_rigid):
        alg = algs[name]
        u0 = _sum_of_projectives(alg, tops0)
        u1 = fx.d4_modules(alg)[1] if tops1 is None else _sum_of_projectives(alg, tops1)
        w0, v0 = _seed_pair(u0, u1, rng, need_rigid)
        modules(tag, U0=u0, U1=u1)
        chunks.append(qio.emit_hom(w0, tag + "_w0", tag + "_U0", tag + "_U1"))
        chunks.append(qio.emit_hom(v0, tag + "_v0", tag + "_U0", tag + "_U1"))

    ladders, rigid, rzs = [], [], []
    for tag, name, tops0, tops1, depth in LADDER_SPECS:
        seed_pair(tag, name, tops0, tops1, need_rigid=name == "d4")
        ladders.append({"tag": tag, "algebra": name, "depth": depth})
        if name == "d4":
            rigid.append({"tag": tag, "algebra": name})
    for tag, name, tops0, tops1 in RIGID_SPECS:
        seed_pair(tag, name, tops0, tops1, need_rigid=True)
        rigid.append({"tag": tag, "algebra": name})
    for name, dim_u, dim_x, count in RZ_SPECS:
        for i in range(count):
            tag = "rz_%s_%d" % (name, i)
            u, x, mid, y, mono, epi = _rz_sequence(algs[name], rng, dim_u, dim_x)
            modules(tag, U=u, X=x, M=mid, Y=y)
            chunks.append(qio.emit_hom(mono, tag + "_mono", tag + "_U", tag + "_M"))
            chunks.append(qio.emit_hom(epi, tag + "_epi", tag + "_M", tag + "_Y"))
            rzs.append({"tag": tag, "algebra": name, "depth": RZ_DEPTH})
    return {
        "workload": workload,
        "seed": seed,
        "text": "\n".join(chunks),
        "ladders": ladders,
        "rigid": rigid,
        "rz": rzs,
    }


def load(payload):
    """Parse the payload's inputs and build what every round reuses.

    Path bases are computed here, so that rounds are identical: each
    algebra caches its path basis on first use.
    """
    if payload["workload"] == "check":
        return dict(payload)
    ns = qio.parse_text(payload["text"])
    for alg in ns.algebras.values():
        alg.path_basis()
    return dict(payload, ns=ns)


# ---------------------------------------------------------------- rounds


def _call_check(seed):
    """``quivrep check --seed SEED``; (exit status, stdout)."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.run(["check", "--seed", str(seed)])
    return status, buf.getvalue()


def _ladder_item(ns, spec):
    tag, depth = spec["tag"], spec["depth"]
    w0, v0 = ns.homs[tag + "_w0"], ns.homs[tag + "_v0"]
    horiz, vert = ladder.chessboard(w0, v0, depth=depth)
    truncs = [horiz.truncation(n) for n in range(1, depth + 1)]
    vtruncs = [vert.truncation(n) for n in range(1, depth + 1)]
    last = depth - 2
    pb = squares.pullback(horiz.v_maps[last + 1], horiz.w_maps[last + 1])
    return {"ladder": horiz, "truncs": truncs, "vertical": vert, "vtruncs": vtruncs,
            "pullback": pb, "pullback_rung": last}


def _ext_item(ns, spec):
    """Ext^1(H, H), Ext^1(H, U0), the standard subgroup and the round trip
    standard class -> ladder seed -> ladder extension -> class."""
    h = rep.cokernel(ns.homs[spec["tag"] + "_w0"])[0]
    u0 = ns.modules[spec["tag"] + "_U0"]
    pres = selfext.Presentation(h)
    dim_hh, classes = selfext.ext1(h, h, pres)
    dim_hu = selfext.ext1(h, u0, pres)[0]
    dim_s, std = selfext.standard_subspace(h, pres)
    trips = []
    for c in std:
        u, wprime = selfext.standard_to_ladder(c)
        ext, h2 = ladder.ladder_extension(pres.p, wprime)
        back = selfext.ext_class_of_sequence(ext, pres)
        trips.append({"class": c, "wprime": wprime, "ext": ext, "h2": h2,
                      "back": back, "equal": back.equals(c)})
    return {"h": h, "u0": u0, "pres": pres, "dim_hh": dim_hh, "n_classes": len(classes),
            "dim_hu": dim_hu, "dim_s": dim_s, "trips": trips}


def _rigid_item(ns, spec):
    tag = spec["tag"]
    w0, v0 = ns.homs[tag + "_w0"], ns.homs[tag + "_v0"]
    rz, n0 = degen.cokernel_degeneration(w0, v0)
    return {"w0": w0, "v0": v0, "rz": rz, "n0": n0}


def _rz_item(ns, spec):
    tag, depth = spec["tag"], spec["depth"]
    m = ns.modules
    rz = degen.check_rz(m[tag + "_U"], m[tag + "_X"], m[tag + "_Y"],
                        ns.homs[tag + "_mono"], ns.homs[tag + "_epi"])
    rz2 = degen.make_steering_nilpotent(rz)
    cert = degen.rz_to_prufer(rz2, depth=depth)
    top = cert.ladder.depth
    witnesses = [(n, degen.eventual_splitting(cert, n)) for n in range(cert.index, top)]
    dual = degen.co_rz(cert)
    return {"rz": rz2, "cert": cert, "witnesses": witnesses, "dual": dual}


def items(state):
    """[(item id, thunk)] of one round, in the order they run."""
    if state["workload"] == "check":
        return [("check", lambda: _call_check(state["seed"]))]
    ns = state["ns"]
    out = []
    for spec in state["ladders"]:
        out.append(("ladder:" + spec["tag"], partial(_ladder_item, ns, spec)))
        out.append(("ext:" + spec["tag"], partial(_ext_item, ns, spec)))
    out += [("degen:" + spec["tag"], partial(_rigid_item, ns, spec)) for spec in state["rigid"]]
    out += [("rz:" + spec["tag"], partial(_rz_item, ns, spec)) for spec in state["rz"]]
    return out


def run_round(state):
    """Run every item once.

    Returns (wall seconds of the items, {item id: result or exception}).
    """
    results = {}
    elapsed = 0.0
    for item_id, thunk in items(state):
        t0 = time.perf_counter()
        try:
            results[item_id] = thunk()
        except Exception as exc:  # a failed operation is counted, not fatal
            results[item_id] = exc
        elapsed += time.perf_counter() - t0
    return elapsed, results


def check_report(status, text):
    """(attempted, failed, problems) of one ``quivrep check`` invocation."""
    doc = json.loads(text)
    claims = [r for d in doc["reports"] for r in d["results"]]
    failed = sum(r["status"] != "pass" for r in claims)
    problems = []
    if (status == 0) != (failed == 0 and doc["ok"]):
        problems.append("exit status %d disagrees with the reports" % status)
    if any(d["ok"] != all(r["status"] == "pass" for r in d["results"]) for d in doc["reports"]):
        problems.append("a report's ok flag disagrees with its claims")
    return len(claims), failed, problems
