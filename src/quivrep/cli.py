"""Command-line front end.

Subcommands: ladder, chessboard, ext, degenerate, degenerate-cokernels,
decompose, zladder, example NAME, check.  Output is a single JSON report on
stdout (optionally to --out); exit status 0 iff every claim passed, 1 on a
mathematical failure, 2 on usage errors and malformed input files.
"""

import argparse
import json
import sys

from . import decomp, degen, io as qio, ladder, selfext, zladder
from .errors import ParseError, QuivrepError, UsageError
from .scenarios import SCENARIOS, Report
from . import suites


def _hom_matrices(h):
    return {v: h.blocks[v].fmt() for v in h.blocks}


def _load(args, required):
    """Parse the files the input flags name; every flag in `required` must
    be given, else a usage error."""
    for flag in required:
        if not getattr(args, flag, None):
            raise UsageError("%s needs --%s" % (args.command, flag))
    paths = [args.algebra] if args.algebra else []
    paths += args.module or []
    paths += [getattr(args, flag) for flag in required if flag != "module"]
    return qio.parse_inputs(paths)


def _hom_from_file(ns, path):
    names = ns.names_from("hom", str(path))
    if len(names) != 1:
        raise ParseError("%s must declare exactly one hom" % path)
    return ns.homs[names[0]]


def _module_from_file(ns, path):
    names = ns.names_from("module", str(path))
    if not names:
        raise ParseError("%s declares no module" % path)
    return ns.modules[names[-1]]


def cmd_ladder(args):
    ns = _load(args, ["w", "v"])
    w0 = _hom_from_file(ns, args.w)
    v0 = _hom_from_file(ns, args.v)
    lad = ladder.build_ladder(w0, v0, depth=args.depth)
    rp = Report("ladder", {"depth": args.depth})
    rp.claim("ladder invariants verified", "ladder.build_ladder", True,
             [m.dims for m in lad.modules])
    for n in range(1, args.depth + 1):
        t = lad.truncation(n)
        rp.claim("truncation %d sequences exact" % n, "ladder.truncation", True, t.rep.dims)
    doc = rp.to_dict()
    if args.emit_matrices:
        doc["matrices"] = {
            "w": [_hom_matrices(h) for h in lad.w_maps],
            "v": [_hom_matrices(h) for h in lad.v_maps],
        }
    return doc


def cmd_chessboard(args):
    ns = _load(args, ["w", "v"])
    w0 = _hom_from_file(ns, args.w)
    v0 = _hom_from_file(ns, args.v)
    horiz, vert = ladder.chessboard(w0, v0, depth=args.depth)
    rp = Report("chessboard", {"depth": args.depth})
    rp.claim("horizontal ladder verified", "ladder.chessboard", True,
             [m.dims for m in horiz.modules])
    rp.claim("vertical ladder shares the rung modules", "ladder.chessboard",
             all(a is b for a, b in zip(horiz.modules, vert.modules)))
    for n in range(1, args.depth + 1):
        rp.claim(
            "truncations at stage %d" % n,
            "ladder.truncation",
            True,
            {"horizontal": horiz.truncation(n).rep.dims, "vertical": vert.truncation(n).rep.dims},
        )
    return rp.to_dict()


def cmd_ext(args):
    ns = _load(args, ["module"])
    m = _module_from_file(ns, args.module[0])
    rp = Report("ext")
    pres = selfext.Presentation(m)
    rp.claim("projective cover dims", "selfext.projective_cover", True, pres.p_total.dims)
    rp.claim("syzygy dims", "selfext.syzygy", True, pres.omega.dims)
    rp.claim("projective dimension <= 1", "selfext.proj_dim_at_most_one", True,
             selfext.proj_dim_at_most_one(m))
    doc_extra = {}
    if args.self_ext:
        dim, classes = selfext.ext1(m, m, pres)
        rp.claim("dim Ext^1(M, M)", "selfext.ext1", True, dim)
        doc_extra["class_basis"] = [_hom_matrices(c.representative) for c in classes]
        if args.standard:
            dim_s, _ = selfext.standard_subspace(m, pres)
            rp.claim("dim standard subspace", "selfext.standard_subspace", True, dim_s)
            for i, c in enumerate(classes):
                rp.claim("class %d standard" % i, "selfext.is_standard", True, selfext.is_standard(c))
    doc = rp.to_dict()
    doc.update(doc_extra)
    return doc


def cmd_degenerate(args):
    ns = _load(args, ["u", "x", "mono", "epi"])
    u = _module_from_file(ns, args.u)
    x = _module_from_file(ns, args.x)
    mono = _hom_from_file(ns, args.mono)
    epi = _hom_from_file(ns, args.epi)
    y = epi.target
    rz = degen.check_rz(u, x, y, mono, epi)
    rp = Report("degenerate")
    rp.claim("Riedtmann-Zwara sequence valid", "degen.check_rz", True, str(rz))
    rz2 = degen.make_steering_nilpotent(rz)
    t = rz2.nilpotency_index()
    rp.claim("steering made nilpotent", "degen.make_steering_nilpotent", t is not None, "index %s" % t)
    cert = degen.rz_to_prufer(rz2, depth=max(args.depth, t + 1))
    split_indices = []
    witnesses = {}
    for n in range(cert.index, args.depth):
        wmap = degen.eventual_splitting(cert, n)
        split_indices.append(n)
        witnesses[n] = wmap
    rp.claim("eventual splitting verified", "degen.eventual_splitting", True, split_indices)
    dual = degen.co_rz(cert)
    rp.claim("dual sequence exact", "degen.co_rz", True, str(dual))
    doc = rp.to_dict()
    doc["sequence_dims"] = {"U": rz2.u.dims, "X": rz2.x.dims, "Y": rz2.y.dims}
    doc["steering_nilpotency_index"] = cert.index
    doc["split_indices"] = split_indices
    if args.emit_matrices:
        doc["witness_matrices"] = {str(n): _hom_matrices(h) for n, h in witnesses.items()}
    return doc


def cmd_degenerate_cokernels(args):
    ns = _load(args, ["w", "v"])
    w0 = _hom_from_file(ns, args.w)
    v0 = _hom_from_file(ns, args.v)
    rz, n0 = degen.cokernel_degeneration(w0, v0)
    rp = Report("degenerate-cokernels")
    rp.claim("rigid cokernel degeneration", "degen.cokernel_degeneration", True,
             {"n0": n0, "U": rz.u.dims, "X": rz.x.dims, "Y": rz.y.dims})
    doc = rp.to_dict()
    doc["sequence_dims"] = {"U": rz.u.dims, "X": rz.x.dims, "Y": rz.y.dims}
    doc["split_indices"] = [n0]
    if args.emit_matrices:
        doc["witness_matrices"] = {"mono": _hom_matrices(rz.mono), "epi": _hom_matrices(rz.epi)}
    return doc


def cmd_decompose(args):
    ns = _load(args, ["module"])
    m = _module_from_file(ns, args.module[0])
    parts = decomp.decompose(m, seed=args.seed)
    rp = Report("decompose", {"seed": args.seed})
    rp.claim(
        "decomposition with certified indecomposable summands",
        "decomp.decompose",
        True,
        [{"dims": r.dims, "multiplicity": mult} for r, mult in parts],
    )
    return rp.to_dict()


def cmd_zladder(args):
    groups = zladder.z_ladder(args.w_int, args.v_int, args.depth)
    rp = Report("zladder", {"w": args.w_int, "v": args.v_int, "depth": args.depth})
    rp.claim(
        "integer ladder truncations",
        "zladder.z_ladder",
        True,
        [g.describe() for g in groups],
    )
    return rp.to_dict()


def cmd_example(args):
    if args.name not in SCENARIOS:
        raise UsageError(
            "unknown example %r (have: %s)" % (args.name, ", ".join(sorted(SCENARIOS)))
        )
    rp = SCENARIOS[args.name]()
    return rp.to_dict()


def cmd_check(args):
    docs = []
    for name in sorted(SCENARIOS):
        docs.append(SCENARIOS[name]().to_dict())
    for name, fn in suites.SUITES.items():
        docs.append(fn(seed=args.seed).to_dict())
    ok = all(d["ok"] for d in docs)
    return {"scenario": "check", "reports": docs, "ok": ok}


def _int_where(test, wanted):
    """An argparse type: an int that passes `test`, else a usage error."""

    def parse(text):
        value = int(text)
        if not test(value):
            raise argparse.ArgumentTypeError("%s, got %d" % (wanted, value))
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


OPTIONS = {
    "depth": dict(type=_int_where(lambda n: n >= 1, "must be at least 1"), default=6),
    "seed": dict(type=int, default=0),
    "emit-matrices": dict(action="store_true"),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quivrep",
        description="Exact quiver representations: ladders, self-extensions, degenerations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, homs=(), options=()):
        p.add_argument("--algebra", help="algebra file")
        p.add_argument("--module", action="append", help="module file (repeatable)")
        for h in homs:
            p.add_argument("--" + h, help="%s hom file" % h)
        for name in options:
            p.add_argument("--" + name, **OPTIONS[name])
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("ladder", help="build a ladder from a seed pair")
    common(p, ("w", "v"), ("depth", "emit-matrices"))
    p.set_defaults(fn=cmd_ladder)

    p = sub.add_parser("chessboard", help="both ladders of a pair of monos")
    common(p, ("w", "v"), ("depth",))
    p.set_defaults(fn=cmd_chessboard)

    p = sub.add_parser("ext", help="Ext^1 data of a module")
    common(p)
    p.add_argument("--self", action="store_true", dest="self_ext")
    p.add_argument("--standard", action="store_true")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("degenerate", help="validate and certify an RZ sequence")
    common(p, ("mono", "epi"), ("depth", "emit-matrices"))
    p.add_argument("--u", help="steering module file")
    p.add_argument("--x", help="X module file")
    p.set_defaults(fn=cmd_degenerate)

    p = sub.add_parser("degenerate-cokernels", help="rigid-cokernel degeneration")
    common(p, ("w", "v"), ("emit-matrices",))
    p.set_defaults(fn=cmd_degenerate_cokernels)

    p = sub.add_parser("decompose", help="Krull-Remak-Schmidt decomposition")
    common(p, options=("seed",))
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("zladder", help="integer ladder truncations")
    p.add_argument("--w", type=_int_where(lambda n: n != 0, "must be nonzero"), required=True,
                   dest="w_int")
    p.add_argument("--v", type=int, required=True, dest="v_int")
    p.add_argument("--depth", **OPTIONS["depth"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_zladder)

    p = sub.add_parser("example", help="run a named built-in scenario")
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("check", help="run every scenario and invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)
    return ap


def run(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except QuivrepError as exc:
        doc = {
            "scenario": args.command,
            "ok": False,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(doc, getattr(args, "out", None))
        return 2 if isinstance(exc, ParseError) else 1
    _emit(doc, getattr(args, "out", None))
    return 0 if doc.get("ok", True) else 1


def _emit(doc, out):
    text = json.dumps(doc, indent=2, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
