import random

import pytest

from quivrep import fixtures as fx
from quivrep import rep, suites
from quivrep.algebra import projective
from quivrep.scenarios import SCENARIOS
from quivrep.suites import SUITES


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    report = SCENARIOS[name]()
    failing = [r for r in report.results if r["status"] != "pass"]
    assert report.ok, failing


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    report = SUITES[name](seed=2)
    failing = [r for r in report.results if r["status"] != "pass"]
    assert report.ok, failing


@pytest.mark.parametrize("case", ["dims", "hom"])
def test_random_mono_rejects_an_impossible_pair_without_trying(case, monkeypatch):
    alg = fx.kronecker()
    pa, _ = projective(alg, "a")
    pb, _ = projective(alg, "b")
    if case == "dims":
        # dim m_b = 3 > dim n_b = 2, while Hom(P(b)^3, P(a)) has dimension 6
        m, dim_hom = rep.direct_sum([pb, pb, pb])[0], 6
    else:
        # dims (1, 0) <= (1, 2), but S(a) -> P(a) is zero: both arrows are injective on P(a)
        m, dim_hom = rep.Rep.simple(alg, "a"), 0
    assert len(rep.hom_space(m, pa)) == dim_hom

    def no_combine(*args):
        raise AssertionError("combine called on an impossible pair")

    monkeypatch.setattr(rep, "combine", no_combine)
    rng = random.Random(5)
    assert suites._random_mono(m, pa, rng, tries=40) is None
    twin = random.Random(5)
    for _ in range(40 * dim_hom):
        alg.field.random(twin, 2)
    assert rng.getstate() == twin.getstate()
