import hashlib
import time

import pytest

from quivrep.errors import QuivrepError
from quivrep.zladder import AbGroup, z_ladder, z_pushout_of_multiplications


def test_prufer_two_truncations():
    groups = z_ladder(2, 3, 4)
    assert [g.invariant_factors for g in groups] == [(2,), (4,), (8,), (16,)]


def test_even_seed_elementary_abelian():
    groups = z_ladder(2, 2, 3)
    assert [g.invariant_factors for g in groups] == [(2,), (2, 2), (2, 2, 2)]


def test_unit_seed_trivial():
    groups = z_ladder(1, 5, 3)
    assert all(g.is_trivial() for g in groups)


def test_zero_seed_rejected():
    with pytest.raises(QuivrepError):
        z_ladder(0, 3, 2)


def test_pushout_of_coprime_multiplications():
    g = z_pushout_of_multiplications(2, 3)
    assert g.invariant_factors == ()
    assert g.free_rank == 1


def test_pushout_of_equal_multiplications():
    g = z_pushout_of_multiplications(2, 2)
    assert g.invariant_factors == (2,)
    assert g.free_rank == 1


def test_order_multiplicativity():
    for w, v in ((2, 3), (2, 5), (3, 2), (2, 2), (4, 6)):
        groups = z_ladder(w, v, 4)
        base = groups[0].order()
        for k, g in enumerate(groups):
            assert g.order() == base ** (k + 1)


def test_exactness_of_orders():
    # |H[k]| = |H[1]| * |H[k-1]| mirrors 0 -> H[1] -> H[k] -> H[k-1] -> 0
    groups = z_ladder(2, 3, 5)
    for k in range(1, 5):
        assert groups[k].order() == groups[0].order() * groups[k - 1].order()


def test_odd_even_classification():
    for v in (3, 5, 7, 9):
        groups = z_ladder(2, v, 4)
        assert all(g.invariant_factors == (2 ** (k + 1),) for k, g in enumerate(groups))
    for v in (2, 4, 6):
        groups = z_ladder(2, v, 4)
        assert all((g.exponent() or 1) == 2 for g in groups)


def test_abgroup_descriptions():
    g = AbGroup(3, [[2, 0, 0], [0, 6, 0]])
    assert g.describe() == "Z/2 + Z/6 + Z"
    assert g.order() is None


# sha256 of the summaries of `z_ladder(w, v, 5)` and
# `z_pushout_of_multiplications(w, v)` over the grid below, recorded while
# every rung still kept both glued copies of the rung before it
GRID_DIGEST = "9a9a67f8038455f91aac90e3721170ad758681441a0c8c42c759f055ad7af36c"
GRID = [(s * w, v) for w in range(1, 7) for s in (1, -1) for v in range(-6, 7)]


def _summary(g):
    return (g.describe(), g.invariant_factors, g.free_rank, g.order(), g.exponent())


def test_ladder_grid_digest():
    h = hashlib.sha256()
    for w, v in GRID:
        for g in z_ladder(w, v, 5):
            h.update(repr(_summary(g)).encode())
        h.update(repr(_summary(z_pushout_of_multiplications(w, v))).encode())
    assert h.hexdigest() == GRID_DIGEST


def test_deep_ladder_is_cyclic_in_polynomial_time():
    start = time.perf_counter()
    groups = z_ladder(2, 3, 14)
    assert time.perf_counter() - start < 1
    assert [g.describe() for g in groups] == ["Z/%d" % 2**k for k in range(1, 15)]


def test_truncations_have_reduced_presentations():
    for w, v in GRID:
        for k, g in enumerate(z_ladder(w, v, 8), 1):
            assert g.generators <= k + 1, (w, v, k, g.generators)
