"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run every workload traced, twice (about two minutes), so they are not
part of the project's own test suite under ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LINALG = ["linalg.mul", "linalg.rref", "linalg.solve", "linalg.inverse", "linalg.conv"]
REP = ["rep.hom_space", "rep.kernel", "rep.cokernel", "rep.quotient"]
SQUARES = ["squares.pushout", "squares.is_exact_square", "squares.is_split_mono"]
LADDER = ["ladder.build_ladder", "ladder.truncation"]
SELFEXT = ["selfext.presentation", "selfext.ext1", "selfext.standard_subspace"]
DEGEN = ["degen.cokernel_degeneration", "degen.make_steering_nilpotent",
         "degen.rz_to_prufer", "degen.eventual_splitting"]
# The functions each workload is meant to exercise.
EXERCISED = {
    "check": LINALG + REP + SQUARES + LADDER + SELFEXT + DEGEN + [
        "algebra.path_basis", "algebra.projective",
        "decomp.end_algebra", "decomp.is_indecomposable", "decomp.minimal_polynomial",
        "decomp.factor_polynomial", "decomp.are_isomorphic", "decomp.decompose",
        "zladder.z_ladder", "io.parse_text", "cli.run",
    ],
    "ladder-q": LINALG + REP + SQUARES + LADDER + SELFEXT + DEGEN
    + ["algebra.projective", "squares.pullback"],
}
EXERCISED["ladder-gf"] = EXERCISED["ladder-q"]


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with one seed."""
    out = {}
    for w in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            proc = run_bench(w, 7, 1)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert res["correct"] and res["failed"] == 0, proc.stderr
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        out[w] = runs
    return out


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.metric_specs()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_calls_every_named_function(traced, workload):
    metrics = traced[workload][0]
    assert set(metrics) == {name for name, _ in tracing.metric_specs()}
    missing = [f for f in EXERCISED[workload] if not metrics[f + ".calls"]]
    assert not missing
    if workload == "check":
        assert metrics["rep.hom_space.repeat_calls"] > 0
        assert sum(v for k, v in metrics.items() if k.startswith("decomp.branch.")) == \
            metrics["decomp.is_indecomposable.calls"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    counts = [name for name, unit in tracing.metric_specs() if unit == "1"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def _ladder_map(res):
    return res["ladder"].w_maps[1].blocks["b"]


def _truncation_phi(res):
    return res["truncs"][2].phi.blocks["b"]


def _splitting_witness(res):
    return res["witnesses"][0][1].blocks["a"]


def _standard_seed(res):
    return res["trips"][0]["wprime"].blocks["b"]


@pytest.mark.parametrize("item, entry", [
    ("ladder:kr", _ladder_map),
    ("ladder:k3", _truncation_phi),
    ("rz:rz_d4_0", _splitting_witness),
    ("ext:kr", _standard_seed),
])
def test_a_corrupted_entry_counts_as_failed(item, entry):
    payload = json.loads(json.dumps(workloads.generate("ladder-gf", 3)))
    rounds = worker.Rounds(workloads.load(payload))
    rounds.run_one()
    mat = entry(rounds.first[item])
    mat.rows[0][0] = (mat.rows[0][0] + 1) % mat.field.p
    rounds.verify_first()
    assert rounds.failed == 1 and rounds.wrong
    assert all(p.startswith(item + ":") for p in rounds.problems)


def test_clean_round_passes_every_check():
    payload = json.loads(json.dumps(workloads.generate("ladder-q", 3)))
    rounds = worker.Rounds(workloads.load(payload))
    rounds.run_one()
    rounds.run_one()
    rounds.verify_first()
    assert (rounds.attempted, rounds.failed, rounds.wrong) == (2 * len(rounds.first), 0, False)


def test_check_report_counts_failed_claims():
    doc = {"ok": False, "reports": [
        {"ok": True, "results": [{"status": "pass"}, {"status": "pass"}]},
        {"ok": False, "results": [{"status": "fail"}]},
    ]}
    assert workloads.check_report(1, json.dumps(doc)) == (3, 1, [])
    assert workloads.check_report(0, json.dumps(doc))[2]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run_bench("ladder-gf", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
