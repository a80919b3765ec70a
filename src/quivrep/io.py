"""Text formats for algebras, modules and homomorphisms, with round-trip
emitters.

Algebra files (one declaration per line, # starts a comment):

    algebra NAME over Q          # or: over GF(p)
    vertex a b c
    arrow alpha : a -> b
    relation 1*delta*alpha = 0
    relation 1*gamma*alpha - 1*delta*beta = 0
    loewybound 12

Relation paths are written in function-composition order: delta*alpha means
"apply alpha, then delta" (the usual mathematical notation); internally the
path is stored first-to-last.

Module files:

    module NAME over ALGEBRA
    dim a = 2
    matrix alpha = [[1,0],[1/2,1]]   # rows x cols = dim(target) x dim(source)

Hom files:

    hom NAME : SRC -> TGT
    block a = [[1,0]]

A file may hold several declarations; parse_inputs reads files in order and
resolves names across them.
"""

import re

from .algebra import AlgebraPresentation, Quiver, relation_terms
from .errors import ParseError, QuivrepError
from .linalg import GF, QQ, Mat
from .rep import ModHom, Rep


class Namespace:
    """Parsed objects by kind and name, remembering each declaration's file."""

    def __init__(self):
        self.algebras = {}
        self.modules = {}
        self.homs = {}
        self.origins = {"algebra": {}, "module": {}, "hom": {}}

    def names_from(self, kind, origin):
        return [n for n, o in self.origins[kind].items() if o == origin]


def parse_inputs(paths):
    ns = Namespace()
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ParseError("%s: cannot read: %s" % (path, reason)) from exc
        parse_text(text, ns, origin=str(path))
    return ns


def parse_text(text, ns=None, origin="<string>"):
    ns = ns or Namespace()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = _strip(lines[i])
        if not line:
            i += 1
            continue
        head = line.split()[0]
        if head not in _DECLARATIONS:
            raise ParseError("%s:%d: unknown declaration %r" % (origin, i + 1, head))
        i = _DECLARATIONS[head](lines, i, ns, origin)
    return ns


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _body(lines, i):
    """The body of the declaration whose header is lines[i]: its nonblank
    lines as (line number, text, first word), up to the next declaration,
    and the index of the line where that one starts."""
    body = []
    for j in range(i + 1, len(lines)):
        line = _strip(lines[j])
        if line:
            head = line.split()[0]
            if head in _DECLARATIONS:
                return body, j
            body.append((j + 1, line, head))
    return body, len(lines)


def _parse_field(tokens, origin, lineno):
    if tokens == ["Q"]:
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", " ".join(tokens))
    if m:
        try:
            return GF(int(m.group(1)))
        except QuivrepError as exc:
            raise ParseError("%s:%d: %s" % (origin, lineno, exc)) from exc
    raise ParseError("%s:%d: unknown field %r" % (origin, lineno, " ".join(tokens)))


def _parse_algebra(lines, i, ns, origin):
    header = _strip(lines[i]).split()
    if len(header) < 4 or header[2] != "over":
        raise ParseError("%s:%d: expected 'algebra NAME over FIELD'" % (origin, i + 1))
    name = header[1]
    field = _parse_field(header[3:], origin, i + 1)
    body, end = _body(lines, i)
    ids = []  # (vertex or arrow id, its line number), in file order
    vertices = []
    arrows = []  # ((name, source, target), line number)
    relations = []  # (terms, line number)
    bound = 12
    for lineno, line, head in body:
        if head == "vertex":
            names = line.split()[1:]
            bad = [v for v in names if not re.fullmatch(r"\w+", v)]
            if bad:
                raise ParseError("%s:%d: vertex id %r is not a word" % (origin, lineno, bad[0]))
            vertices.extend(names)
            ids.extend((v, lineno) for v in names)
        elif head == "arrow":
            m = re.fullmatch(r"arrow\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)", line)
            if not m:
                raise ParseError("%s:%d: expected 'arrow NAME : SRC -> TGT'" % (origin, lineno))
            arrows.append((m.groups(), lineno))
            ids.append((m.group(1), lineno))
        elif head == "relation":
            rel = line[len("relation") :].strip()
            if not rel.endswith("= 0"):
                raise ParseError("%s:%d: relations must end with '= 0'" % (origin, lineno))
            rel = rel[: -len("= 0")].strip()
            relations.append((_parse_relation(rel, field, origin, lineno), lineno))
        elif head == "loewybound":
            m = re.fullmatch(r"loewybound\s+(\d+)", line)
            if not m or int(m.group(1)) < 1:
                raise ParseError("%s:%d: expected 'loewybound N' with N >= 1" % (origin, lineno))
            bound = int(m.group(1))
        else:
            raise ParseError("%s:%d: unknown algebra line %r" % (origin, lineno, head))
    # each error at the line that causes it; vertices may follow their arrows
    first = {}
    for ident, lineno in ids:
        if ident in first:
            raise ParseError(
                "%s:%d: %r is already declared on line %d" % (origin, lineno, ident, first[ident])
            )
        first[ident] = lineno
    for (a, s, t), lineno in arrows:
        for v in (s, t):
            if v not in vertices:
                raise ParseError(
                    "%s:%d: arrow %s has undeclared endpoint %r" % (origin, lineno, a, v)
                )
    quiver = Quiver(vertices, [arrow for arrow, _ in arrows])
    for terms, lineno in relations:
        try:
            relation_terms(quiver, field, terms)
        except QuivrepError as exc:
            raise ParseError("%s:%d: invalid relation: %s" % (origin, lineno, exc)) from exc
    ns.algebras[name] = AlgebraPresentation(
        quiver, field, [terms for terms, _ in relations], bound, name=name
    )
    ns.origins["algebra"][name] = origin
    return end


def _parse_relation(body, field, origin, lineno):
    """Signed sum of terms coef*arrowN*...*arrow1 (function order)."""
    terms = []
    body = body.replace("-", "+-")
    for raw in body.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:].strip()
        pieces = [p.strip() for p in raw.split("*")]
        if re.fullmatch(r"-?\d+(/\d+)?", pieces[0]):
            try:
                coef = field.conv(field.parse(pieces[0]))
            except (ValueError, QuivrepError) as exc:
                raise ParseError("%s:%d: bad coefficient: %s" % (origin, lineno, exc)) from exc
            arrows = pieces[1:]
        else:
            coef = field.one()
            arrows = pieces
        if sign < 0:
            coef = field.neg(coef)
        if not arrows:
            raise ParseError("%s:%d: empty path in relation" % (origin, lineno))
        word = tuple(reversed(arrows))  # function order -> execution order
        terms.append((coef, word))
    if not terms:
        raise ParseError("%s:%d: empty relation" % (origin, lineno))
    return terms


def _parse_module(lines, i, ns, origin):
    header = _strip(lines[i]).split()
    if len(header) != 4 or header[2] != "over":
        raise ParseError("%s:%d: expected 'module NAME over ALGEBRA'" % (origin, i + 1))
    name, alg_name = header[1], header[3]
    if alg_name not in ns.algebras:
        raise ParseError("%s:%d: unknown algebra %r" % (origin, i + 1, alg_name))
    alg = ns.algebras[alg_name]
    dims = {}
    mats = {}
    body, end = _body(lines, i)
    for lineno, line, head in body:
        if head == "dim":
            m = re.fullmatch(r"dim\s+(\w+)\s*=\s*(\d+)", line)
            if not m:
                raise ParseError("%s:%d: expected 'dim VERTEX = N'" % (origin, lineno))
            _known(m.group(1), alg.quiver.vertices, "vertex", alg_name, origin, lineno)
            dims[m.group(1)] = int(m.group(2))
        elif head == "matrix":
            m = re.fullmatch(r"matrix\s+(\w+)\s*=\s*(.*)", line)
            if not m:
                raise ParseError("%s:%d: expected 'matrix ARROW = [[...]]'" % (origin, lineno))
            _known(m.group(1), alg.quiver.arrow_names, "arrow", alg_name, origin, lineno)
            mats[m.group(1)] = (_parse_matrix_literal(m.group(2), origin, lineno), lineno)
        else:
            raise ParseError("%s:%d: unknown module line %r" % (origin, lineno, head))
    action = {}
    for a, s, t in alg.quiver.arrows:
        if a in mats:
            rows, lineno = mats[a]
            action[a] = _matrix(alg.field, rows, dims.get(t, 0), dims.get(s, 0), origin, lineno)
    try:
        ns.modules[name] = Rep(alg, dims, action)
    except Exception as exc:
        raise ParseError("%s:%d: module %s invalid: %s" % (origin, i + 1, name, exc)) from exc
    ns.origins["module"][name] = origin
    return end


def _parse_hom(lines, i, ns, origin):
    header = _strip(lines[i])
    m = re.fullmatch(r"hom\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)", header)
    if not m:
        raise ParseError("%s:%d: expected 'hom NAME : SRC -> TGT'" % (origin, i + 1))
    name, src_name, tgt_name = m.groups()
    if src_name not in ns.modules or tgt_name not in ns.modules:
        raise ParseError(
            "%s:%d: hom %s references unknown modules" % (origin, i + 1, name)
        )
    src, tgt = ns.modules[src_name], ns.modules[tgt_name]
    blocks = {}
    body, end = _body(lines, i)
    for lineno, line, head in body:
        if head != "block":
            raise ParseError("%s:%d: unknown hom line %r" % (origin, lineno, head))
        mm = re.fullmatch(r"block\s+(\w+)\s*=\s*(.*)", line)
        if not mm:
            raise ParseError("%s:%d: expected 'block VERTEX = [[...]]'" % (origin, lineno))
        v = mm.group(1)
        _known(v, src.algebra.quiver.vertices, "vertex", src.algebra.name, origin, lineno)
        rows = _parse_matrix_literal(mm.group(2), origin, lineno)
        blocks[v] = _matrix(
            src.algebra.field, rows, tgt.dims.get(v, 0), src.dims.get(v, 0), origin, lineno
        )
    try:
        ns.homs[name] = ModHom(src, tgt, blocks)
    except Exception as exc:
        raise ParseError("%s:%d: hom %s invalid: %s" % (origin, i + 1, name, exc)) from exc
    ns.origins["hom"][name] = origin
    return end


def _known(name, names, kind, alg_name, origin, lineno):
    if name not in names:
        raise ParseError("%s:%d: algebra %s has no %s %r" % (origin, lineno, alg_name, kind, name))


_DECLARATIONS = {"algebra": _parse_algebra, "module": _parse_module, "hom": _parse_hom}


def _matrix(field, rows, nrows, ncols, origin, lineno):
    try:
        return Mat(field, rows, nrows, ncols)
    except (ValueError, QuivrepError) as exc:
        raise ParseError("%s:%d: bad matrix: %s" % (origin, lineno, exc)) from exc


# [ rows separated by commas ], each row [ entries separated by commas ],
# with whitespace allowed around brackets and commas; [] has no rows, [[]]
# one empty row
_ROW = r"\[\s*(?:[^\s\[\],]+(?:\s*,\s*[^\s\[\],]+)*)?\s*\]"
_MATRIX_LITERAL = re.compile(r"\s*\[\s*(?:{0}(?:\s*,\s*{0})*)?\s*\]\s*".format(_ROW))


def _parse_matrix_literal(text, origin, lineno):
    if not _MATRIX_LITERAL.fullmatch(text):
        raise ParseError("%s:%d: matrix literal must be [[...],...]" % (origin, lineno))
    rows = "".join(text.split())[1:-1]  # no entry holds whitespace
    return [row.split(",") if row else [] for row in rows[1:-1].split("],[")] if rows else []


def emit_algebra(alg):
    field = "Q" if alg.field.p == 0 else "GF(%d)" % alg.field.p
    out = ["algebra %s over %s" % (alg.name, field)]
    out.append("vertex " + " ".join(alg.quiver.vertices))
    for a, s, t in alg.quiver.arrows:
        out.append("arrow %s : %s -> %s" % (a, s, t))
    for rel in alg.relations:
        terms = []
        for c, w in rel:
            path = "*".join(reversed(w))  # execution -> function order
            terms.append("%s*%s" % (alg.field.fmt(c), path))
        out.append("relation " + " + ".join(terms).replace("+ -", "- ") + " = 0")
    out.append("loewybound %d" % alg.loewy_bound)
    return "\n".join(out) + "\n"


def emit_module(m, name, alg_name=None):
    out = ["module %s over %s" % (name, alg_name or m.algebra.name)]
    for v in m.algebra.quiver.vertices:
        out.append("dim %s = %d" % (v, m.dims[v]))
    for a, s, t in m.algebra.quiver.arrows:
        mat = m.action[a]
        if mat.nrows and mat.ncols and not mat.is_zero():
            out.append("matrix %s = %s" % (a, _fmt_matrix(mat)))
    return "\n".join(out) + "\n"


def emit_hom(h, name, src_name, tgt_name):
    out = ["hom %s : %s -> %s" % (name, src_name, tgt_name)]
    for v in h.source.algebra.quiver.vertices:
        b = h.blocks[v]
        if b.nrows and b.ncols and not b.is_zero():
            out.append("block %s = %s" % (v, _fmt_matrix(b)))
    return "\n".join(out) + "\n"


def _fmt_matrix(mat):
    field = mat.field
    return "[" + ",".join(
        "[" + ",".join(field.fmt(x) for x in row) + "]" for row in mat.rows
    ) + "]"
