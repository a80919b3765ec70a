import ast
import json
import subprocess
import sys
import time

import pytest

from quivrep import cli
from quivrep import io as qio
from quivrep.errors import NotAdmissible, ParseError
from quivrep.linalg import QQ, Mat
from quivrep.rep import ModHom, Rep


ALGEBRA_TEXT = """\
algebra tower over Q
vertex a b c
arrow alpha : a -> b
arrow beta : a -> b
arrow gamma : b -> c
arrow delta : b -> c
relation 1*delta*alpha = 0
relation 1*gamma*beta = 0
relation 1*gamma*alpha - 1*delta*beta = 0
loewybound 3
"""

KRONECKER_TEXT = """\
algebra kron over Q
vertex a b
arrow alpha : a -> b
arrow beta : a -> b
loewybound 4
"""

MODULES_TEXT = """\
module Pb over kron
dim b = 1

module Pa over kron
dim a = 1
dim b = 2
matrix alpha = [[1],[0]]
matrix beta = [[0],[1]]
"""

W_TEXT = """\
hom w0 : Pb -> Pa
block b = [[1],[0]]
"""

V_TEXT = """\
hom v0 : Pb -> Pa
block b = [[0],[1]]
"""


def test_parse_algebra_with_commutation_relations():
    ns = qio.parse_text(ALGEBRA_TEXT)
    alg = ns.algebras["tower"]
    assert alg.path_basis().total_dimension == 8


def test_relation_tokens_use_function_order():
    # delta*alpha must mean: first alpha, then delta
    ns = qio.parse_text(ALGEBRA_TEXT)
    rel = ns.algebras["tower"].relations[0]
    assert rel[0][1] == ("alpha", "delta")


def test_parse_rejects_short_relation():
    bad = KRONECKER_TEXT + "relation 1*alpha = 0\n"
    with pytest.raises((ParseError, NotAdmissible)):
        qio.parse_text(bad)


def test_parse_error_carries_line_number():
    bad = "algebra x over Q\nvertex a\nnonsense here\n"
    with pytest.raises(ParseError) as err:
        qio.parse_text(bad)
    assert ":3:" in str(err.value)


def test_hom_violating_commutation_names_arrow():
    text = (
        KRONECKER_TEXT
        + MODULES_TEXT
        + "hom bad : Pa -> Pa\nblock a = [[1]]\nblock b = [[0,0],[0,0]]\n"
    )
    with pytest.raises(ParseError) as err:
        qio.parse_text(text)
    assert "alpha" in str(err.value)


BAD_MATRICES = [
    ("an entry that is not a number", "Q", "matrix alpha = [[zz]]"),
    ("a fraction over GF(5)", "GF(5)", "matrix alpha = [[1/2]]"),
    ("a row of the wrong length", "Q", "matrix alpha = [[1, 0]]"),
    ("text after a row", "Q", "matrix alpha = [[1] x]"),
    ("text before a row", "Q", "matrix alpha = [x[1]]"),
    ("text after the matrix", "Q", "matrix alpha = [[1]],[]"),
    ("an empty entry before a comma", "Q", "matrix alpha = [[,1]]"),
    ("an empty entry after a comma", "Q", "matrix alpha = [[1,]]"),
]


# (what, the line it replaces or None to append it, the bad line or lines,
# the number of the line the error names: the one that causes it)
BAD_ALGEBRAS = [
    ("a bound that is not a number", "loewybound 4", "loewybound x", 5),
    ("a bound with no value", "loewybound 4", "loewybound", 5),
    ("a zero bound", "loewybound 4", "loewybound 0", 5),
    ("a repeated vertex", "vertex a b", "vertex a b a", 2),
    ("a vertex repeated on a later line", "vertex a b", "vertex a b\nvertex a", 3),
    ("a repeated arrow", None, "arrow alpha : b -> a", 6),
    ("an arrow named like a vertex", None, "arrow b : a -> b", 6),
    ("a vertex named like an arrow", None, "vertex c alpha", 6),
    ("vertex ids that are not words", "vertex a b", "vertex a, b*c", 2),
    ("an arrow to an undeclared vertex", None, "arrow gamma : a -> c", 6),
    ("an arrow from an undeclared vertex", "arrow beta : a -> b", "arrow beta : c -> b", 4),
    ("a field of non-prime order", "algebra kron over Q", "algebra kron over GF(4)", 1),
    ("a prime field of order 2^64 or more", "algebra kron over Q",
     "algebra kron over GF(18446744073709551629)", 1),
    ("a relation through an undeclared arrow", None, "relation 1*gamma*alpha = 0", 6),
    ("a coefficient over zero", None, "relation 1/0*beta*alpha = 0", 6),
    ("a fraction over GF(5)", "over Q", "over GF(5)\nrelation 1/2*beta = 0", 2),
    ("a relation of length one", None, "relation 1*alpha = 0", 6),
    ("a relation of mixed lengths", "loewybound 4",
     "arrow gamma : b -> b\nrelation 1*gamma*gamma*alpha + 1*gamma*beta = 0\nloewybound 4", 6),
]


@pytest.mark.parametrize("what, old, new, line", BAD_ALGEBRAS, ids=[b[0] for b in BAD_ALGEBRAS])
def test_malformed_algebra_declarations_are_parse_errors(tmp_path, capsys, what, old, new, line):
    text = KRONECKER_TEXT.replace(old, new) if old else KRONECKER_TEXT + new + "\n"
    assert text != KRONECKER_TEXT
    alg = _write(tmp_path, "a.alg", text)
    mod = _write(tmp_path, "m.mod", "module M over kron\ndim a = 1\n")
    assert cli.run(["ext", "--algebra", alg, "--module", mod]) == 2
    assert _parse_error(capsys).startswith("%s:%d: " % (alg, line))


def test_vertices_and_arrows_may_follow_the_lines_that_use_them():
    text = (
        "algebra k over Q\nrelation 1*beta*alpha = 0\narrow alpha : a -> b\n"
        "arrow beta : b -> c\nvertex a b\nvertex c\n"
    )
    alg = qio.parse_text(text).algebras["k"]
    assert alg.quiver.vertices == ("a", "b", "c")
    assert alg.relations == (((1, ("alpha", "beta")),),)


def test_a_prime_field_near_two_to_the_64_parses_quickly():
    start = time.perf_counter()
    ns = qio.parse_text(KRONECKER_TEXT.replace("over Q", "over GF(1000000000000000003)"))
    assert ns.algebras["kron"].field.p == 1000000000000000003
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("what, field, line", BAD_MATRICES, ids=[b[0] for b in BAD_MATRICES])
def test_bad_module_matrix_is_a_parse_error(tmp_path, capsys, what, field, line):
    alg = KRONECKER_TEXT.replace("over Q", "over " + field)
    mod = "module M over kron\ndim a = 1\ndim b = 1\n" + line + "\n"
    text = alg + mod
    with pytest.raises(ParseError) as err:
        qio.parse_text(text, origin="m.mod")
    assert str(err.value).startswith("m.mod:%d:" % len(text.splitlines()))  # the last line
    paths = [_write(tmp_path, "kron.alg", alg), _write(tmp_path, "m.mod", mod)]
    assert cli.run(["ext", "--algebra", paths[0], "--module", paths[1], "--self"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("what, field, line", BAD_MATRICES, ids=[b[0] for b in BAD_MATRICES])
def test_bad_hom_block_is_a_parse_error(tmp_path, capsys, what, field, line):
    alg = KRONECKER_TEXT.replace("over Q", "over " + field)
    hom = "hom h : Pb -> Pa\n" + line.replace("matrix alpha", "block b") + "\n"
    text = alg + MODULES_TEXT + hom
    with pytest.raises(ParseError) as err:
        qio.parse_text(text, origin="h.hom")
    assert str(err.value).startswith("h.hom:%d:" % len(text.splitlines()))  # the last line
    paths = [_write(tmp_path, n, t) for n, t in
             [("kron.alg", alg), ("mods.mod", MODULES_TEXT), ("w.hom", hom), ("v.hom", V_TEXT)]]
    argv = ["ladder", "--algebra", paths[0], "--module", paths[1], "--w", paths[2], "--v", paths[3]]
    assert cli.run(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


# (what, the module or hom line that names something the algebra lacks, what
# the error names)
UNKNOWN_NAMES = [
    ("a dim at an unknown vertex", "module", "dim zz = 3", "no vertex 'zz'"),
    ("a matrix for an unknown arrow", "module", "matrix y = [[1]]", "no arrow 'y'"),
    ("a hom block at an unknown vertex", "hom", "block zz = [[1]]", "no vertex 'zz'"),
]


@pytest.mark.parametrize("what, kind, line, named", UNKNOWN_NAMES, ids=[u[0] for u in UNKNOWN_NAMES])
def test_unknown_names_in_modules_and_homs_are_parse_errors(tmp_path, capsys, what, kind, line, named):
    mods = MODULES_TEXT + ("module M over kron\ndim a = 1\n" + line + "\n" if kind == "module" else "")
    hom = "hom h : Pb -> Pa\n" + line + "\n" if kind == "hom" else W_TEXT
    paths = [_write(tmp_path, n, t) for n, t in
             [("kron.alg", KRONECKER_TEXT), ("mods.mod", mods), ("w.hom", hom), ("v.hom", V_TEXT)]]
    argv = ["ladder", "--algebra", paths[0], "--module", paths[1], "--w", paths[2], "--v", paths[3]]
    assert cli.run(argv) == 2
    bad = paths[1] if kind == "module" else paths[2]
    lineno = len((mods if kind == "module" else hom).splitlines())  # the last line
    message = _parse_error(capsys)
    assert message.startswith("%s:%d: " % (bad, lineno)) and named in message


def test_comments_and_relation_terms_without_a_coefficient():
    text = "# the commuting-square tower\n" + ALGEBRA_TEXT.replace(
        "relation 1*gamma*alpha - 1*delta*beta = 0",
        "relation gamma*alpha - delta*beta = 0  # the square commutes",
    )
    assert text.count("#") == 2 and "1*gamma*alpha" not in text
    parsed = qio.parse_text(text).algebras["tower"]
    assert parsed == qio.parse_text(ALGEBRA_TEXT).algebras["tower"]


# (what, the text of one more input file, the number of the line the error
# names); the file is read after an algebra file with KRONECKER_TEXT and a
# module file with MODULES_TEXT
BAD_DECLARATIONS = [
    ("an unknown declaration after a comment", "# kronecker modules\nmodul M over kron\n", 2),
    ("an unknown field", "algebra k over R\n", 1),
    ("an algebra header without a field", "algebra k\n", 1),
    ("an arrow without a colon", "algebra k over Q\nvertex a b\narrow alpha a -> b\n", 3),
    ("a relation without '= 0'", KRONECKER_TEXT + "relation 1*alpha*beta\n", 6),
    ("a relation term without a path", KRONECKER_TEXT + "relation 2 = 0\n", 6),
    ("a relation without terms", KRONECKER_TEXT + "relation = 0\n", 6),
    ("a module header without an algebra", "module M kron\n", 1),
    ("a module over an unknown algebra", "module M over tower\n", 1),
    ("a dim without '='", "module M over kron\ndim a 1\n", 2),
    ("a matrix without '='", "module M over kron\ndim a = 1\nmatrix alpha [[1]]\n", 3),
    ("an unknown module line", "module M over kron\ndim a = 1\nrank a = 1\n", 3),
    ("a module that breaks a relation",
     ALGEBRA_TEXT + "module M over tower\ndim a = 1\ndim b = 1\ndim c = 1\n"
     "matrix alpha = [[1]]\nmatrix delta = [[1]]\n", 11),
    ("a matrix that is not a list", "module M over kron\ndim a = 1\nmatrix alpha = 1\n", 3),
    ("a hom header without a colon", "hom h Pb -> Pa\n", 1),
    ("a hom to an unknown module", "hom h : Pb -> M\n", 1),
    ("an unknown hom line", "hom h : Pb -> Pa\nmatrix b = [[1],[0]]\n", 2),
    ("a block without '='", "hom h : Pb -> Pa\nblock b [[1],[0]]\n", 2),
]


@pytest.mark.parametrize("what, text, line", BAD_DECLARATIONS, ids=[b[0] for b in BAD_DECLARATIONS])
def test_malformed_declarations_are_parse_errors(tmp_path, capsys, what, text, line):
    paths = [_write(tmp_path, n, t) for n, t in
             [("kron.alg", KRONECKER_TEXT), ("mods.mod", MODULES_TEXT), ("bad.txt", text)]]
    assert cli.run(["ext", "--algebra", paths[0], "--module", paths[1], "--module", paths[2]]) == 2
    assert _parse_error(capsys).startswith("%s:%d: " % (paths[2], line))


def test_rational_literals_round_trip():
    text = KRONECKER_TEXT + (
        "module M over kron\ndim a = 1\ndim b = 1\nmatrix alpha = [[1/2]]\nmatrix beta = [[-3]]\n"
    )
    ns = qio.parse_text(text)
    m = ns.modules["M"]
    emitted = qio.emit_module(m, "M", "kron")
    ns2 = qio.parse_text(KRONECKER_TEXT + emitted)
    assert ns2.modules["M"] == m


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_ladder(tmp_path, capsys):
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    mods = _write(tmp_path, "mods.mod", MODULES_TEXT)
    w = _write(tmp_path, "w.hom", W_TEXT)
    v = _write(tmp_path, "v.hom", V_TEXT)
    code = cli.run(
        ["ladder", "--algebra", alg, "--module", mods, "--w", w, "--v", v, "--depth", "3"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"]


def test_cli_ladder_emit_matrices(tmp_path, capsys):
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    mods = _write(tmp_path, "mods.mod", MODULES_TEXT)
    w = _write(tmp_path, "w.hom", W_TEXT)
    v = _write(tmp_path, "v.hom", V_TEXT)
    code = cli.run(
        [
            "ladder", "--algebra", alg, "--module", mods, "--w", w, "--v", v,
            "--depth", "2", "--emit-matrices",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "matrices" in out
    assert out["matrices"]["w"][0]["b"] == [["1"], ["0"]]


def test_cli_example_and_exit_codes(capsys):
    assert cli.run(["example", "z"]) == 0
    capsys.readouterr()
    assert cli.run(["example", "nosuch"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["zladder", "--w", "2", "--v", "3", "--depth", "0"], "--depth"),
    (["zladder", "--w", "0", "--v", "3"], "--w"),
    (["ladder", "--depth", "0"], "--depth"),
    (["chessboard", "--depth", "0"], "--depth"),
    (["degenerate", "--depth", "-1"], "--depth"),
])
def test_bad_flag_values_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s" % flag in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ladder", "--seed", "1"],
    ["chessboard", "--seed", "1"],
    ["chessboard", "--emit-matrices"],
    ["ext", "--depth", "2"],
    ["ext", "--seed", "1"],
    ["ext", "--emit-matrices"],
    ["degenerate", "--seed", "1"],
    ["degenerate-cokernels", "--depth", "2"],
    ["degenerate-cokernels", "--seed", "1"],
    ["decompose", "--depth", "2"],
    ["decompose", "--emit-matrices"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["ladder"], "--w"),
    (["ladder", "--w", "w.hom"], "--v"),
    (["chessboard", "--v", "v.hom"], "--w"),
    (["degenerate-cokernels"], "--w"),
    (["degenerate", "--x", "x.mod", "--mono", "m.hom", "--epi", "e.hom"], "--u"),
    (["degenerate", "--u", "u.mod"], "--x"),
    (["ext", "--self"], "--module"),
    (["decompose"], "--module"),
])
def test_missing_input_flags_are_usage_errors(argv, flag, capsys):
    # checked before any file is opened: the named files need not exist
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: %s needs %s" % (argv[0], flag)) and "Traceback" not in err


def _parse_error(capsys):
    out = json.loads(capsys.readouterr().out)
    assert not out["ok"] and out["error"]["type"] == "ParseError"
    return out["error"]["message"]


def test_unreadable_input_files_are_parse_errors(tmp_path, capsys):
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    binary = tmp_path / "binary.mod"
    binary.write_bytes(b"module M over kron\n\xff\xfe\n")
    for bad in (str(tmp_path / "missing.mod"), str(tmp_path), str(binary)):
        assert cli.run(["ext", "--algebra", alg, "--module", bad]) == 2
        assert _parse_error(capsys).startswith("%s: cannot read:" % bad)
    assert cli.run(["ladder", "--algebra", str(tmp_path / "no.alg"), "--w", alg, "--v", alg]) == 2
    assert _parse_error(capsys).startswith("%s: cannot read:" % (tmp_path / "no.alg"))


def test_files_without_the_declaration_a_flag_needs_are_parse_errors(tmp_path, capsys):
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    mods = _write(tmp_path, "mods.mod", MODULES_TEXT)
    w = _write(tmp_path, "w.hom", W_TEXT)
    both = _write(tmp_path, "both.hom", W_TEXT.replace("w0", "p0") + V_TEXT.replace("v0", "p1"))
    assert cli.run(["ext", "--algebra", alg, "--module", alg]) == 2
    assert _parse_error(capsys) == "%s declares no module" % alg
    for v in (both, mods):
        assert cli.run(["ladder", "--algebra", alg, "--module", mods, "--w", w, "--v", v]) == 2
        assert _parse_error(capsys) == "%s must declare exactly one hom" % v


def test_cli_zladder(capsys):
    assert cli.run(["zladder", "--w", "2", "--v", "3", "--depth", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "Z/16" in out["results"][0]["evidence"]


def test_cli_degenerate(tmp_path, capsys):
    # a valid split-mono RZ input: U = Pb, X = Pa, mono = [g; 0]
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    mods = _write(
        tmp_path,
        "mods.mod",
        MODULES_TEXT
        + "\nmodule Mid over kron\ndim a = 1\ndim b = 3\n"
        + "matrix alpha = [[1],[0],[0]]\nmatrix beta = [[0],[1],[0]]\n"
        + "\nmodule Y over kron\ndim a = 1\ndim b = 2\n"
        + "matrix beta = [[1],[0]]\n",
    )
    u = _write(tmp_path, "u.mod", "module U over kron\ndim b = 1\n")
    x = _write(
        tmp_path,
        "x.mod",
        "module X over kron\ndim a = 1\ndim b = 2\nmatrix alpha = [[1],[0]]\nmatrix beta = [[0],[1]]\n",
    )
    mono = _write(tmp_path, "mono.hom", "hom mono : U -> Mid\nblock b = [[1],[0],[0]]\n")
    epi = _write(
        tmp_path,
        "epi.hom",
        "hom epi : Mid -> Y\nblock a = [[1]]\nblock b = [[0,1,0],[0,0,1]]\n",
    )
    code = cli.run(
        [
            "degenerate", "--algebra", alg, "--module", mods, "--u", u,
            "--x", x, "--mono", mono, "--epi", epi, "--depth", "4",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0, out
    assert out["ok"]
    assert out["steering_nilpotency_index"] == 1
    assert out["split_indices"] == [1, 2, 3]


def _cli(tmp_path, capsys, command, files, *flags):
    """(exit status, JSON report) of the subcommand run on the (flag, text)
    files, each written out first, and the further flags."""
    argv = [command]
    for i, (flag, text) in enumerate(files):
        argv += ["--" + flag, _write(tmp_path, "%d.txt" % i, text)]
    code = cli.run(argv + list(flags))
    return code, json.loads(capsys.readouterr().out)


SEED_FILES = [("algebra", KRONECKER_TEXT), ("module", MODULES_TEXT), ("w", W_TEXT), ("v", V_TEXT)]

# P(a) + P(b) as one module, the middle term of 0 -> P(b) -> P(a) + P(b) -> P(a) -> 0
MID_TEXT = """\
module Mid over kron
dim a = 1
dim b = 3
matrix alpha = [[1],[0],[0]]
matrix beta = [[0],[1],[0]]
"""


def _parsed(blocks):
    """Each emitted block, its entries read back with `Field.parse`."""
    return {v: Mat(QQ, [[QQ.parse(e) for e in row] for row in b]) for v, b in blocks.items()}


def test_cli_chessboard(tmp_path, capsys):
    code, out = _cli(tmp_path, capsys, "chessboard", SEED_FILES, "--depth", "3")
    assert code == 0 and out["ok"] and out["inputs"] == {"depth": 3}
    stages = [r["evidence"] for r in out["results"] if r["op"] == "ladder.truncation"]
    assert stages == [str({"horizontal": {"a": n, "b": n}, "vertical": {"a": n, "b": n}})
                      for n in (1, 2, 3)]


def test_cli_degenerate_emit_matrices(tmp_path, capsys):
    # the steering map of 0 -> P(b) -> P(a) + P(b) -> P(a) -> 0 is the identity
    files = [
        ("algebra", KRONECKER_TEXT), ("module", MODULES_TEXT + MID_TEXT),
        ("u", "module U over kron\ndim b = 1\n"), ("x", MODULES_TEXT.replace("Pa", "X")),
        ("mono", "hom mono : U -> Mid\nblock b = [[0],[1],[1]]\n"),
        ("epi", "hom epi : Mid -> Pa\nblock a = [[1]]\nblock b = [[1,0,0],[0,1,-1]]\n"),
    ]
    code, out = _cli(tmp_path, capsys, "degenerate", files, "--depth", "3", "--emit-matrices")
    assert code == 0 and out["ok"]
    assert out["sequence_dims"]["Y"] == {"a": 1, "b": 2}
    assert sorted(out["witness_matrices"]) == [str(n) for n in out["split_indices"]] != []
    for blocks in out["witness_matrices"].values():  # isos Y[n] + X -> Y[n+1]
        assert all(m.inverse() is not None for m in _parsed(blocks).values())


def test_cli_degenerate_cokernels(tmp_path, capsys):
    # coker(w0) is the rigid preprojective of dimension vector (2, 3)
    pa2 = MODULES_TEXT + "module Pa2 over kron\ndim a = 2\ndim b = 4\n" + (
        "matrix alpha = [[1,0],[0,0],[0,1],[0,0]]\nmatrix beta = [[0,0],[1,0],[0,0],[0,1]]\n")
    files = [
        ("algebra", KRONECKER_TEXT), ("module", pa2),
        ("w", "hom w0 : Pb -> Pa2\nblock b = [[1],[0],[0],[1]]\n"),
        ("v", "hom v0 : Pb -> Pa2\nblock b = [[0],[1],[0],[0]]\n"),
    ]
    code, out = _cli(tmp_path, capsys, "degenerate-cokernels", files, "--emit-matrices")
    assert code == 0 and out["ok"] and out["split_indices"] == [1]
    dims = out["sequence_dims"]
    assert dims == {"U": {"a": 2, "b": 4}, "X": {"a": 2, "b": 3}, "Y": {"a": 2, "b": 3}}
    mono = _parsed(out["witness_matrices"]["mono"])
    epi = _parsed(out["witness_matrices"]["epi"])
    for v in "ab":
        assert mono[v].shape == (dims["X"][v] + dims["U"][v], dims["U"][v])
        assert (epi[v] * mono[v]).is_zero()


def test_cli_decompose(tmp_path, capsys):
    files = [("algebra", KRONECKER_TEXT), ("module", MODULES_TEXT + MID_TEXT)]
    code, out = _cli(tmp_path, capsys, "decompose", files, "--seed", "2")
    assert code == 0 and out["ok"] and out["inputs"] == {"seed": 2}
    parts = ast.literal_eval(out["results"][0]["evidence"])
    assert sorted(p["dims"]["b"] for p in parts) == [1, 2]
    assert all(p["multiplicity"] == 1 for p in parts)


def test_cli_math_failure_exits_one(tmp_path, capsys):
    # Kronecker regular cokernels are not rigid: degenerate-cokernels must
    # fail with the NotRigid claim named and exit status 1
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    mods = _write(tmp_path, "mods.mod", MODULES_TEXT)
    w = _write(tmp_path, "w.hom", W_TEXT)
    v = _write(tmp_path, "v.hom", V_TEXT)
    code = cli.run(
        ["degenerate-cokernels", "--algebra", alg, "--module", mods, "--w", w, "--v", v]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not out["ok"]
    assert out["error"]["type"] == "NotRigid"


def test_cli_ext_class_basis(tmp_path, capsys):
    alg = _write(tmp_path, "kron.alg", KRONECKER_TEXT)
    reg = _write(
        tmp_path,
        "h.mod",
        "module H over kron\ndim a = 1\ndim b = 1\nmatrix alpha = [[1]]\n",
    )
    code = cli.run(["ext", "--algebra", alg, "--module", reg, "--self", "--standard"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["class_basis"]) == 1
    dims = {r["claim"]: r["evidence"] for r in out["results"]}
    assert dims["dim Ext^1(M, M)"] == "1"
    assert dims["dim standard subspace"] == "1"


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert cli.run(["zladder", "--w", "2", "--v", "3", "--depth", "2", "--out", str(target)]) == 0
    capsys.readouterr()
    saved = json.loads(target.read_text())
    assert saved["ok"]


def test_cli_check(capsys):
    assert cli.run(["check", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"]
    names = {r["scenario"] for r in out["reports"]}
    assert {"kronecker", "three-kronecker", "d4", "loop-beta", "loop-square", "z"} <= names
    assert any(n.startswith("suite-") for n in names)


def test_importing_the_cli_does_not_load_sympy(src_env):
    # check factors minimal polynomials (quivrep.poly is loaded) without sympy
    code = (
        "import contextlib, io, sys, quivrep.cli\n"
        "print('sympy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = quivrep.cli.run(['check', '--seed', '1'])\n"
        "print(status, 'sympy' in sys.modules, 'quivrep.poly' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "0", "False", "True"]
