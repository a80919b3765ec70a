"""No result of a library operation takes part in a reference cycle.

A dropped result is then freed at once by reference counting, and never
waits for the cyclic collector, which raises peak memory and makes every
collection slower.  The test runs the operations of one round of the
ladder workloads, plus decompositions, with the collector off, drops the
results, and asks the collector what it would free: no object of a
`quivrep` type may be among it.

Each algebra caches its path basis and its projectives, and those caches
refer back to the algebra by design; they live as long as the algebra, so
the algebras are built first and kept alive.
"""

import gc
import random

import pytest

from quivrep import fixtures as fx
from quivrep import suites
from quivrep.decomp import decompose, match_decompositions
from quivrep.degen import (
    check_rz,
    co_rz,
    cokernel_degeneration,
    eventual_splitting,
    make_steering_nilpotent,
    rz_to_prufer,
)
from quivrep.ladder import chessboard, ladder_extension
from quivrep.linalg import GF, QQ
from quivrep.rep import cokernel, direct_sum, sum_module
from quivrep.selfext import (
    Presentation,
    ext1,
    ext_class_of_sequence,
    standard_subspace,
    standard_to_ladder,
)
from quivrep.squares import pullback

FIELDS = {"QQ": QQ, "GF3": GF(3)}
ALGEBRAS = {name: (fx.kronecker(f), fx.d4_subspace(f)) for name, f in FIELDS.items()}


def _ladder_items(kron, d4, depth=4):
    out = []
    for w0, v0 in (fx.kronecker_regular_seed(kron), fx.d4_seed(d4)):
        horiz, vert = chessboard(w0, v0, depth=depth)
        truncs = [lad.truncation(n) for lad in (horiz, vert) for n in range(1, depth + 1)]
        pb = pullback(horiz.v_maps[depth - 1], horiz.w_maps[depth - 1])
        h = cokernel(w0)[0]
        pres = Presentation(h)
        exts = [ext1(h, h, pres), ext1(h, w0.source, pres)]
        trips = []
        for c in standard_subspace(h, pres)[1]:
            ext, h2 = ladder_extension(pres.p, standard_to_ladder(c)[1])
            back = ext_class_of_sequence(ext, pres)
            assert back.equals(c)
            trips.append((ext, h2, back))
        out.append((horiz, vert, truncs, pb, pres, exts, trips))
    out.append(cokernel_degeneration(*fx.d4_seed(d4)))
    return out


def _rz_items(kron):
    rng = random.Random(5)
    out = []
    while len(out) < 2:
        u = suites._random_module(kron, rng, 2)
        x = suites._random_module(kron, rng, 2)
        if u.total_dim() == 0:
            continue
        mid = direct_sum([x, u])[0]
        mono = suites._random_mono(u, mid, rng)
        if mono is None:
            continue
        y, proj = cokernel(mono)
        rz = make_steering_nilpotent(check_rz(u, x, y, mono, proj))
        cert = rz_to_prufer(rz, depth=4)
        witnesses = [eventual_splitting(cert, n) for n in range(cert.index, 4)]
        out.append((rz, cert, witnesses, co_rz(cert)))
    return out


def _decomp_items(kron, d4):
    out = []
    for k, alg in enumerate((kron, d4, kron)):
        rng = random.Random(k)
        parts = [suites._random_module(alg, rng, 3) for _ in range(2)]
        m = sum_module(parts)
        if m.is_zero():
            continue
        out.append((decompose(m), match_decompositions(m, sum_module(parts[::-1]))))
    return out


def _round(kron, d4):
    return _ladder_items(kron, d4), _rz_items(kron), _decomp_items(kron, d4)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_round_leaves_no_cyclic_garbage(field):
    kron, d4 = ALGEBRAS[field]
    _round(kron, d4)  # fills the algebras' caches
    gc.collect()
    gc.disable()
    try:
        _round(kron, d4)  # its results are dropped at once
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted(
            {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("quivrep")}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []
