"""Steadiness of the benchmark: two interleaved sets of runs per workload.

    python3 perfbench/steady.py

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``, ten
times in set A (seeds 1..10) and ten times in set B (seeds 101..110).  Runs
alternate between the sets (A then B, then B then A, ...) and cycle through
the workloads, so slow drift of the machine falls on both sets alike.  For
every workload and end-to-end metric it prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) /
median, the gap between the set medians as a share of set A's, and the
bound of ``BENCHMARK.json``.  ``need`` is the largest of the two spreads and
the gap (the gap alone for ``setup_s``): a bound below it would reject this
very code.  Then it makes two traced runs per workload with seed 1, checks
that their counts agree, and prints the per-layer metrics and the tracing
overhead (traced ``wall_s`` minus the untraced run's of the same seed).
Everything is also written to ``perfbench/results/steady.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SEED_BASE = (1, 101)
OUT = HERE / "results" / "steady.json"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: ([], []) for w in names}
    began = time.time()
    for i in range(RUNS):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in names:
                res = run_once(w, SEED_BASE[s] + i, seconds, 0)
                runs[w][s].append(res)
                print("run %d set %s %s: %s" % (i + 1, "AB"[s], w, " ".join(
                    "%s=%.4g" % (m, v["value"]) for m, v in res["metrics"].items())), flush=True)
    traced = {w: [run_once(w, SEED_BASE[0], seconds, 1) for _ in (0, 1)] for w in names}

    report = {"runs": RUNS, "seconds": seconds, "elapsed_s": None, "workloads": {}}
    for w in names:
        rows = {}
        print("\n%s" % w)
        print("  %-12s %10s %10s %10s %7s | %10s %10s %10s %7s | %7s %6s %6s" % (
            "metric", "A median", "A q1", "A q3", "spread", "B median", "B q1", "B q3",
            "spread", "gap", "need", "bound"))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            sets = [quartiles([r["metrics"][name]["value"] for r in runs[w][s]]) for s in (0, 1)]
            gap = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            need = max(sets[0]["spread"], sets[1]["spread"], abs(gap))
            if name == "setup_s":  # only the gap of set-up time is bounded
                need = abs(gap)
            rows[name] = {"A": sets[0], "B": sets[1], "gap": gap, "need": need,
                          "bound": spec["bound"]}
            print("  %-12s %10.4g %10.4g %10.4g %7.3f | %10.4g %10.4g %10.4g %7.3f | %+7.3f %6.3f %6.3f"
                  % (name, sets[0]["median"], sets[0]["q1"], sets[0]["q3"], sets[0]["spread"],
                     sets[1]["median"], sets[1]["q1"], sets[1]["q3"], sets[1]["spread"],
                     gap, need, spec["bound"]))
        shares = [sum(r["failed"] for r in runs[w][s]) / sum(r["attempted"] for r in runs[w][s])
                  for s in (0, 1)]
        correct = all(r["correct"] for s in (0, 1) for r in runs[w][s])
        print("  failed share A %.6f B %.6f; all outputs correct: %s" % (shares[0], shares[1], correct))

        layer = [t["metrics"] for t in traced[w]]
        counts_equal = all(layer[0][k]["value"] == layer[1][k]["value"]
                           for k in layer[0] if layer[0][k]["unit"] == "1")
        wall = runs[w][0][0]["metrics"]["wall_s"]["value"]  # the same seed, untraced
        tw = statistics.median(t["metrics"]["traced.wall_s"]["value"] for t in traced[w])
        print("  traced twice, seed %d: counts equal: %s; overhead %.3f s (%.0f%%)"
              % (SEED_BASE[0], counts_equal, tw - wall, 100 * (tw - wall) / wall))
        for k in layer[0]:
            vals = [x[k]["value"] for x in layer]
            if any(vals):
                print("    %-40s %12.6g %12.6g" % (k, vals[0], vals[1]))
        report["workloads"][w] = {
            "metrics": rows, "failed_share": shares, "correct": correct,
            "runs": [[r["metrics"] for r in runs[w][s]] for s in (0, 1)],
            "traced": layer, "counts_equal": counts_equal, "trace_overhead_s": tw - wall,
        }
    report["elapsed_s"] = time.time() - began
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1))
    print("\nwrote %s (%.0f s)" % (OUT, report["elapsed_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
