"""Per-layer counts and times, measured from outside the library.

A ``Tracer`` wraps named public functions and methods of ``quivrep`` while
it is installed.  A wrapped function is replaced on every loaded
``quivrep`` module that binds it by name (``hom_space`` is imported by name
in ``decomp``, ``ladder``, ``selfext`` and ``fixtures``), and a wrapped
method is replaced on its class.  Uninstalling restores every binding.

For each wrapped name the tracer counts calls and sums inclusive time (the
outermost call only, so recursion is not counted twice), leaving out the
tracer's own bookkeeping inside the call (the fingerprints behind
``rep.hom_space.repeat_calls``, kept in ``bookkeeping_s``).  A layer's
``self_s`` sums, over the calls of its wrapped functions, the time not
spent inside wrapped functions of any call nested directly under them; a
nested call of the same layer adds its own share back, so the total is the
time inside the layer minus the time its calls spend in other layers.
"""

import sys
import time
from collections import Counter

from quivrep.errors import Inconclusive

# (layer, name, "module:attribute" or "module:Class.method").  Two targets
# may share a name: both then count as one function.
TARGETS = (
    ("linalg", "mul", "quivrep.linalg:Mat.__mul__"),
    ("linalg", "rref", "quivrep.linalg:Mat.rref"),
    ("linalg", "solve", "quivrep.linalg:Mat.solve_right"),
    ("linalg", "inverse", "quivrep.linalg:Mat.inverse"),
    ("linalg", "conv", "quivrep.linalg:Field.conv"),
    ("algebra", "path_basis", "quivrep.algebra:AlgebraPresentation.path_basis"),
    ("algebra", "projective", "quivrep.algebra:projective"),
    ("rep", "hom_space", "quivrep.rep:hom_space"),
    ("rep", "kernel", "quivrep.rep:kernel"),
    ("rep", "cokernel", "quivrep.rep:cokernel"),
    ("rep", "cokernel", "quivrep.rep:cokernel_data"),
    ("rep", "quotient", "quivrep.rep:QuotientData.__init__"),
    ("squares", "pushout", "quivrep.squares:pushout"),
    ("squares", "pullback", "quivrep.squares:pullback"),
    ("squares", "is_exact_square", "quivrep.squares:is_exact_square"),
    ("squares", "is_split_mono", "quivrep.squares:is_split_mono"),
    ("ladder", "build_ladder", "quivrep.ladder:build_ladder"),
    ("ladder", "truncation", "quivrep.ladder:Ladder.truncation"),
    ("selfext", "presentation", "quivrep.selfext:Presentation.__init__"),
    ("selfext", "ext1", "quivrep.selfext:ext1"),
    ("selfext", "standard_subspace", "quivrep.selfext:standard_subspace"),
    ("degen", "cokernel_degeneration", "quivrep.degen:cokernel_degeneration"),
    ("degen", "make_steering_nilpotent", "quivrep.degen:make_steering_nilpotent"),
    ("degen", "rz_to_prufer", "quivrep.degen:rz_to_prufer"),
    ("degen", "eventual_splitting", "quivrep.degen:eventual_splitting"),
    ("decomp", "end_algebra", "quivrep.decomp:EndAlgebra.__init__"),
    ("decomp", "is_indecomposable", "quivrep.decomp:is_indecomposable"),
    ("decomp", "minimal_polynomial", "quivrep.decomp:minimal_polynomial"),
    ("decomp", "factor_polynomial", "quivrep.decomp:factor_polynomial"),
    ("decomp", "are_isomorphic", "quivrep.decomp:are_isomorphic"),
    ("decomp", "decompose", "quivrep.decomp:decompose"),
    ("zladder", "z_ladder", "quivrep.zladder:z_ladder"),
    ("io", "parse_text", "quivrep.io:parse_text"),
    ("cli", "run", "quivrep.cli:run"),
)
# Called too often to time without distorting the run: counted only.
COUNTED = ("linalg.conv",)
BRANCHES = (
    "end-dim-1",
    "split",
    "local-residue-1",
    "local-residue-field",
    "no-idempotents-exhaustive",
    "inconclusive",
)


def metric_specs():
    """[(name, unit)] of every per-layer metric, in a fixed order."""
    out = []
    layers = []
    seen = set()
    for layer, name, _ in TARGETS:
        key = "%s.%s" % (layer, name)
        if layer not in layers:
            layers.append(layer)
        if key in seen:
            continue
        seen.add(key)
        out.append((key + ".calls", "1"))
        if key not in COUNTED:
            out.append((key + ".s", "s"))
    out.append(("rep.hom_space.repeat_calls", "1"))
    out += [("decomp.branch.%s" % b, "1") for b in BRANCHES]
    out += [("%s.self_s" % layer, "s") for layer in layers]
    out.append(("traced.bookkeeping_s", "s"))
    out.append(("traced.wall_s", "s"))
    return out


def _resolve(target):
    modname, _, attr = target.partition(":")
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name), meth
    return owner, attr


def _rep_key(m):
    alg = m.algebra
    return (
        alg.quiver.arrows,
        alg.field.p,
        alg.relations,
        tuple(sorted(m.dims.items())),
        tuple((a, tuple(map(tuple, mat.rows))) for a, mat in m.action.items()),
    )


class Tracer:
    """Counts and times calls into the library while installed."""

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_s = Counter()
        self.active = Counter()
        self.stack = []
        self.hom_seen = set()
        self.repeat_calls = 0
        self.branches = Counter()
        self.bookkeeping_s = 0.0  # left out of every timed call around it

    # -- wrappers --------------------------------------------------------

    def _timed(self, layer, key, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            tracer.active[key] += 1
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            kept = tracer.bookkeeping_s
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (tracer.bookkeeping_s - kept)
                stack.pop()
                tracer.active[key] -= 1
                if not tracer.active[key]:
                    tracer.inclusive[key] += dt
                tracer.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _counted(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _repeats(self, fn):
        tracer = self

        def hom_space(m, n):
            t0 = time.perf_counter()
            key = (_rep_key(m), _rep_key(n))
            if key in tracer.hom_seen:
                tracer.repeat_calls += 1
            else:
                tracer.hom_seen.add(key)
            tracer.bookkeeping_s += time.perf_counter() - t0
            return fn(m, n)

        return hom_space

    def _branch(self, fn):
        tracer = self

        def is_indecomposable(*args, **kwargs):
            try:
                verdict, cert = fn(*args, **kwargs)
            except Inconclusive:
                tracer.branches["inconclusive"] += 1
                raise
            tracer.branches[cert[0]] += 1
            return verdict, cert

        return is_indecomposable

    # -- install / uninstall ---------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, name, target in TARGETS:
            owner, attr = _resolve(target)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = "%s.%s" % (layer, name)
            if key in COUNTED:
                wrapper = self._counted(key, orig)
            else:
                inner = orig
                if key == "decomp.is_indecomposable":
                    inner = self._branch(orig)
                wrapper = self._timed(layer, key, inner)
                if key == "rep.hom_space":
                    wrapper = self._repeats(wrapper)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("quivrep"):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, bound, wrapper)
                        self._undo.append((mod, bound, orig))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------

    def metrics(self):
        """{metric name: value} of every per-layer metric but traced.wall_s."""
        out = {}
        for name, _ in metric_specs():
            if name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            elif name == "traced.bookkeeping_s":
                out[name] = self.bookkeeping_s
            elif name == "rep.hom_space.repeat_calls":
                out[name] = self.repeat_calls
            elif name.startswith("decomp.branch."):
                out[name] = self.branches[name[len("decomp.branch."):]]
            elif name.endswith(".s"):
                out[name] = self.inclusive[name[: -len(".s")]]
        return out
