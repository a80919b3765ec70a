"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload check|ladder-q|ladder-gf \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run generates the workload's
inputs from the seed, starts the measured process (``worker.py``) several
times to time set-up, and lets the last one run whole rounds for about S
seconds.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``wall_s`` and ``cpu_s`` (medians over
the rounds of one round's wall and CPU time), ``setup_s`` (median set-up
time: interpreter start, imports, parsing the inputs) and ``peak_rss_mb``.
With ``--trace 1`` they are the per-layer metrics of ``tracing``, taken
from traced rounds.  Diagnostics go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5  # set-up is timed this many times per run; the last one runs
DEADLINE_S = 170  # a run never takes longer than this


def _fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    return 2


def _start_worker(payload, seconds, trace, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        proc.stdin = None  # sent in full; communicate() must not flush it
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in %.0f s" % timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    return out


def measure(workload, seed, seconds, trace):
    """Run the workload once; returns the result object that run.py prints."""
    begin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    payload = json.dumps(workloads.generate(workload, seed))
    setups = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        proc, setup = _start_worker(payload, seconds, trace, setup_only=not last)
        setups.append(setup)
        if not last:
            _finish(proc, timeout=60)
    out = _finish(proc, timeout=max(1.0, DEADLINE_S - (time.perf_counter() - begin)))
    res = json.loads(out.strip().splitlines()[-1])
    for p in res["problems"]:
        print("perfbench: %s" % p, file=sys.stderr)
    if trace:
        import tracing

        metrics = {name: {"value": res["layer"][name], "unit": unit}
                   for name, unit in tracing.metric_specs()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print("perfbench: %s seed %d: %d rounds, %d attempted, %d failed"
          % (workload, seed, res["rounds"], res["attempted"], res["failed"]), file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one quivrep benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quivrep" / "__init__.py").is_file():
        return _fail("no quivrep source tree at %s" % SRC)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError) as exc:
        return _fail(str(exc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
