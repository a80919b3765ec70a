"""The measured process of one benchmark run.

Reads a workload payload (see ``workloads.generate``) as JSON on stdin,
sets up, prints ``ready``, and, unless ``--setup-only``, runs whole rounds
of the workload until the next round would end after ``--seconds``.  The
last stdout line is a JSON object with the per-round times, the peak
resident memory, the operation counts and, with ``--trace 1``, the
per-layer metrics of the traced rounds.

Outputs are checked after the timed rounds: the first round's outputs
against the independent computations in ``verify``, and every later
round's outputs for equality with the first round's.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # RUSAGE_CHILDREN gives the largest single child's peak, so children
    # that run at the same time are under-counted.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


class Rounds:
    """Runs rounds and keeps what the checks need."""

    def __init__(self, state, tracer=None):
        self.state = state
        self.tracer = tracer
        self.walls, self.cpus, self.layer = [], [], []
        self.first = None  # round-1 results, verified after timing
        self.first_sig = None
        self.attempted = self.failed = 0
        self.raised = {}  # item id -> number of rounds in which it raised
        self.problems = []
        self.wrong = False  # an output that did not fail was incorrect

    def run_one(self):
        if self.tracer is not None:
            self.tracer.reset()
        c0 = _cpu_seconds()
        wall, results = workloads.run_round(self.state)
        self.cpus.append(_cpu_seconds() - c0)
        self.walls.append(wall)
        if self.tracer is not None:
            self.layer.append(self.tracer.metrics())
        self._account(results)

    def _account(self, results):
        if self.state["workload"] == "check":
            return self._account_check(results["check"])
        from verify import signature

        self.attempted += len(results)
        sig = {}
        for item_id, res in results.items():
            if isinstance(res, Exception):
                self.failed += 1
                self.raised[item_id] = self.raised.get(item_id, 0) + 1
                if len(self.problems) < 20:
                    self.problems.append("%s raised %s: %s" % (item_id, type(res).__name__, res))
                continue
            sig[item_id] = signature(res)
        if self.first is None:
            self.first, self.first_sig = results, sig
            return
        for item_id, s in sig.items():
            if self.first_sig.get(item_id) != s:
                self.failed += 1
                self.wrong = True
                self.problems.append("%s: output differs from the first round" % item_id)

    def _account_check(self, result):
        status, text = result
        claims, failed, problems = workloads.check_report(status, text)
        self.attempted += claims  # one operation per claim
        self.failed += failed
        if self.first is None:
            self.first = text
        elif text != self.first:
            problems.append("check: report differs from the first round")
        self.problems += problems
        self.wrong = self.wrong or bool(problems)

    def verify_first(self):
        """Independent checks of round 1; a failing item fails in every round."""
        if self.state["workload"] == "check" or self.first is None:
            return
        from verify import Ref, check_item

        field = next(iter(self.state["ns"].algebras.values())).field
        ref = Ref(field)
        specs = {}
        for key in ("ladders", "rigid", "rz"):
            for spec in self.state[key]:
                specs.setdefault(spec["tag"], spec)
        for item_id, res in self.first.items():
            if isinstance(res, Exception):
                continue
            problems = check_item(ref, item_id, res, specs[item_id.split(":")[1]])
            if problems:
                self.failed += len(self.walls) - self.raised.get(item_id, 0)
                self.wrong = True
                self.problems += ["%s: %s" % (item_id, p) for p in problems]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    payload = json.load(sys.stdin)
    state = workloads.load(payload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    rounds = Rounds(state, tracer)
    start = time.perf_counter()
    try:
        while True:
            r0 = time.perf_counter()
            rounds.run_one()
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = _peak_rss_mb()
    rounds.verify_first()

    out = {
        "rounds": len(rounds.walls),
        "walls": rounds.walls,
        "cpus": rounds.cpus,
        "peak_rss_mb": peak,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "correct": not rounds.wrong,
        "problems": rounds.problems[:50],
    }
    if tracer is not None:
        layer = {}
        for name in rounds.layer[0]:
            values = [m[name] for m in rounds.layer]
            # counts repeat exactly from round to round; times are medians
            layer[name] = values[0] if isinstance(values[0], int) else statistics.median(values)
        layer["traced.wall_s"] = statistics.median(rounds.walls)
        out["layer"] = layer
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
