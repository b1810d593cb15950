"""Run one workload in this (fresh) interpreter and print one JSON object.

    python3 perfbench/child.py --workload W --seed N --seconds S
        [--min-queries K] [--pauses P] [--trace] [--setup-only]

Set-up is timed from ``import partlog`` through one fixed warm-up query.  The
timed loop is closed and single-threaded: the next query is sent when the
previous one returns, and runs until the queries have been busy for S seconds
and at least K have completed.  Each answer is checked against the reference
after its latency is taken, so checking adds no time to any query.

With ``--pauses P`` the loop stops P times, evenly spread over the S seconds:
it prints ``pause`` and waits for a line on stdin.  The caller times set-up
in other interpreters meanwhile, so that set-up is sampled across the run
rather than in one block before it.

Between queries the process moves itself to the next CPU it may run on every
quarter second.  On a shared machine the speed of one CPU drifts for tens of
seconds at a time; spreading every run over all of them keeps a run from
measuring mostly which CPU the scheduler happened to pick.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")         # results and span dumps
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 5
CPU_PERIOD_S = 0.25


class CpuRotation:
    """Pins this process to each allowed CPU in turn, CPU_PERIOD_S at a time."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.k = os.getpid() % len(self.cpus)
        self._pin()

    def _pin(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.k]})
        self.since = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.since >= CPU_PERIOD_S:
            self.k = (self.k + 1) % len(self.cpus)
            self._pin()


def _median(values, scale=1.0) -> float:
    return statistics.median(values) / scale if values else 0.0


def layer_metrics(tracer: tracing.Tracer, records: list, busy_ns: int) -> dict:
    """Per-layer metrics of one traced run; 0 where a layer is off the path."""
    by_name: dict[str, list] = {}
    for row in tracer.spans:
        by_name.setdefault(tracer.names[row[0]], []).append(row)

    def durations(name):
        return [r[2] - r[1] for r in by_name.get(name, ())]

    def self_ns(name):
        return [r[2] - r[1] - r[5] for r in by_name.get(name, ())]

    counts = [r["counts"] for r in records]
    m: dict[str, float] = {}
    m["cli.self_ms"] = _median(self_ns("cli.main"), 1e6)
    cli = [r for r in records if r["cli"]]
    m["cli.output_kb"] = _median([r["bytes"] for r in cli], 1024)
    m["formula.parse_us"] = _median(durations("formula.parse"), 1e3)
    m["formula.nodes"] = _median([r["nodes"] for r in cli])
    check = durations("semantics.check")
    assignments = sum(c.get("assignments", 0) for c in counts)
    m["semantics.check_ms"] = _median(check, 1e6)
    m["semantics.assignments"] = assignments / len(check) if check else 0.0
    m["semantics.assignments_per_s"] = assignments / (sum(check) / 1e9) if check else 0.0
    m["semantics.eval_us"] = _median(durations("semantics.eval"), 1e3)
    semantics_self = sum(sum(self_ns(n)) for n in ("semantics.check", "semantics.eval"))
    m["semantics.self_share"] = semantics_self / busy_ns
    for op, values in tracer.core_ns.items():
        m["core.%s.us_p50" % op] = _median(values, 1e3)
    for n in range(4, 9):
        m["core.n%d.us_p50" % n] = _median(tracer.core_by_n.get(n, ()), 1e3)
    m["core.calls"] = sum(len(v) for v in tracer.core_ns.values()) / len(records)
    m["core.busy_share"] = sum(sum(v) for v in tracer.core_ns.values()) / busy_ns
    hits_misses = tracer.cache_counts()
    m["core.cache_hit_ratio"] = (hits_misses[0] / max(1, sum(hits_misses))
                                 if hits_misses else 0.0)
    proofs = [c for c in counts if "steps" in c]
    steps = sum(c["steps"] for c in proofs)
    for key in ("steps", "branches", "statements"):
        m["tableau." + key] = (sum(c[key] for c in proofs) / len(proofs)
                               if proofs else 0.0)
    prove_ns = sum(durations("tableau.prove"))
    m["tableau.steps_per_s"] = steps / (prove_ns / 1e9) if prove_ns else 0.0
    m["tableau.wasted_step_share"] = (sum(c["steps"] for c in proofs
                                          if c["verdict"] == "unknown") / steps
                                      if steps else 0.0)
    for reason in ("max_steps", "max_elements"):
        m["tableau.unknown." + reason] = (sum(
            1 for c in proofs if c["verdict"] == "unknown" and c["reason"] == reason)
            / len(proofs) if proofs else 0.0)
    closes = sum(c["closes"] + c["lemma_closes"] for c in proofs)
    m["tableau.lemma_close_share"] = (sum(c["lemma_closes"] for c in proofs) / closes
                                      if closes else 0.0)
    m["tableau.json_ms"] = _median(durations("tableau.json"), 1e6)
    m["trace.absent_names"] = len(tracer.absent)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-queries", type=int, default=100)
    ap.add_argument("--pauses", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    cpus = CpuRotation()
    t0 = time.perf_counter()
    import partlog
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warmup()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(partlog.__file__).startswith(os.path.join(ROOT, "src")):
        print("partlog was not imported from %s/src" % ROOT, file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    memos = tracing.Memos()
    tracer = tracing.Tracer(memos) if args.trace else None
    if tracer is not None:
        tracer.install()
    digest = hashlib.sha256()
    latencies = array.array("q")
    records: list[dict] = []
    problems: list[str] = []
    failed = decided = busy = 0
    stream = workload.stream()
    target, cap = args.seconds * 1e9, 2 * args.seconds * 1e9
    pauses = [target * (k + 1) / (args.pauses + 1) for k in range(args.pauses)]

    def pause():
        pauses.pop(0)
        print("pause", flush=True)
        sys.stdin.readline()

    try:
        while (busy < target or len(latencies) < args.min_queries) and busy < cap:
            while pauses and busy >= pauses[0]:
                pause()
            query = next(stream)
            cpus.tick()
            if tracer is not None:
                tracer.query = len(latencies)
            dt, code, out, error = workload.run(query, tracer)
            busy += dt
            latencies.append(dt)
            if len(latencies) <= workload.digest_queries:
                digest.update(b"%r\n" % code + out + b"\n")
            try:
                outcome = (workload.check(query, code, out) if code is not None
                           else workloads.Outcome(False, problem=error))
            except (ValueError, KeyError, TypeError) as exc:   # malformed output
                outcome = workloads.Outcome(False, problem="unreadable output: %r" % exc)
            if error and outcome.ok:
                outcome = workloads.Outcome(False, problem="stderr: " + error)
            failed += not outcome.ok
            decided += outcome.ok and outcome.decided
            if workload.fresh_memos:
                memos.clear()
            if not outcome.ok and len(problems) < MAX_PROBLEMS:
                problems.append("%s: %s" % (" ".join(query.argv) or query.call[:5],
                                            outcome.problem))
            if tracer is not None:
                records.append({"counts": outcome.counts, "cli": bool(query.argv),
                                "bytes": len(out),
                                "nodes": len(gen.subformulas(query.formula))
                                if query.formula else 0})
    finally:
        if tracer is not None:
            tracer.uninstall()
    while pauses:
        pause()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "latencies_ns": latencies.tolist(), "busy_s": busy / 1e9,
              "attempted": len(latencies), "failed": failed, "decided": decided,
              "problems": problems, "peak_rss_mb": peak_rss_mb,
              "digest": digest.hexdigest(),
              "digest_queries": min(workload.digest_queries, len(latencies)),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, records, busy)
        result["absent"] = tracer.absent
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl.gz"
                                  % (args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
