"""The partlog benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py [--workload search|refute|prove|kernel|all]
                             [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``; the
benchmark is meant to run with that value.

Run from the repository root.  Each workload runs in fresh interpreters, one
after another, single-threaded (``child.py``), so memo state, the prover's
recursion limit and peak RSS never leak between workloads.

The metrics and their units are the ones ``BENCHMARK.json`` lists.  With
``--trace 0`` a workload reports the end-to-end metrics: ``setup_s``
(median over several fresh interpreters of ``import partlog`` plus one fixed
warm-up query, started one at a time at pauses spread over the measuring
run), ``queries_per_s`` (queries per second the queries were busy),
``query_p50_ms``, ``query_p90_ms``, ``decided_share`` (answers with a
definite verdict) and ``peak_rss_mb``.  ``failed_share`` is printed too.

With ``--trace 1`` the seconds are split between an untraced and a traced
interpreter; the traced one wraps partlog's module boundaries (``tracing.py``)
and reports the per-layer metrics, and ``trace.overhead_share`` compares the
two on the queries both ran.

Every answer is checked against an independent reference (``reference.py``);
any mismatch makes the run exit 1.  Each run also prints a sha256 digest of
the exit codes and stdout bytes of the first queries of the stream, and
compares it with the digest recorded in ``digests.json`` for the default
seed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a run of ``all`` prefixes
each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402

WORKLOADS = ("search", "refute", "prove", "kernel")
DEFAULT_SEED = 0
SETUP_REPEATS = 10          # set-up-only interpreters, plus the measuring one
MIN_QUERIES = 100           # so that p90 has at least 10 samples beyond it
TRACED_MIN_QUERIES = 20
CHILD_TIMEOUT_S = 150
ENV = dict(os.environ, PYTHONHASHSEED="0")


def _argv(workload: str, seed: int, extra) -> list:
    return [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", str(seed), *extra]


def _result(workload: str, code: int, stdout: str) -> dict:
    if code != 0:
        raise SystemExit("perfbench: %s child exited %d" % (workload, code))
    return json.loads(stdout.strip().splitlines()[-1])


def child(workload: str, seed: int, *extra: str, timeout=CHILD_TIMEOUT_S) -> dict:
    proc = subprocess.run(_argv(workload, seed, extra), cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return _result(workload, proc.returncode, proc.stdout)


def paused_child(workload: str, seed: int, *extra: str) -> tuple[dict, list]:
    """Run a child with --pauses SETUP_REPEATS; at each pause, time set-up in
    one fresh set-up-only interpreter.  Returns its result and the set-up
    times."""
    proc = subprocess.Popen(_argv(workload, seed, extra + ("--pauses", str(SETUP_REPEATS))),
                            cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setups, lines = [], []
    try:
        for line in proc.stdout:
            if line == "pause\n":
                setups.append(child(workload, seed, "--setup-only", timeout=60)["setup_s"])
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    return _result(workload, code, "".join(lines)), setups


def quantile(values, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    run, setups = paused_child(workload, seed, "--seconds", str(seconds),
                               "--min-queries", str(MIN_QUERIES))
    setups.append(run["setup_s"])
    lat_ms = [x / 1e6 for x in run["latencies_ns"]]
    metrics = {"setup_s": statistics.median(setups),
               "queries_per_s": len(lat_ms) / run["busy_s"],
               "query_p50_ms": statistics.median(lat_ms),
               "query_p90_ms": quantile(lat_ms, 90),
               "decided_share": run["decided"] / run["attempted"],
               "peak_rss_mb": run["peak_rss_mb"]}
    return metrics, run


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    half = str(seconds / 2)
    plain = child(workload, seed, "--seconds", half,
                  "--min-queries", str(TRACED_MIN_QUERIES), timeout=CHILD_TIMEOUT_S / 2)
    traced = child(workload, seed, "--seconds", half, "--trace",
                   "--min-queries", str(TRACED_MIN_QUERIES), timeout=CHILD_TIMEOUT_S / 2)
    common = min(len(plain["latencies_ns"]), len(traced["latencies_ns"]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = (sum(traced["latencies_ns"][:common])
                                       / sum(plain["latencies_ns"][:common]) - 1)
    for name in traced["absent"]:
        print("%-8s trace: %s is absent, not traced" % (workload, name))
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["problems"] += plain["problems"]
    return metrics, traced


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "partlog", "__init__.py")):
        print("perfbench: no partlog sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    reference.self_test()
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh)
    spec = benchmark["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    all_metrics: dict = {}
    attempted = failed = 0
    for workload in names:
        metrics, run = measure(workload, args.seed, args.seconds)
        attempted += run["attempted"]
        failed += run["failed"]
        env = {"workload": workload, "seed": args.seed, "trace": args.trace,
               "nproc": os.cpu_count(), "python": run["python"],
               "numpy": run["numpy"], "commit": commit()}
        print("%-8s %s" % (workload, " ".join("%s=%s" % kv for kv in env.items())))
        for problem in run["problems"]:
            print("%-8s FAILED %s" % (workload, problem))
        print("%-8s %-32s %14.6f share" % (workload, "failed_share",
                                          run["failed"] / run["attempted"]))
        for m in spec:
            print("%-8s %-32s %14.6f %s" % (workload, m["name"], metrics[m["name"]],
                                          m["unit"]))
        rec = recorded.get(workload, {}) if args.seed == recorded["seed"] else {}
        want = rec.get("sha256") if rec.get("queries") == run["digest_queries"] else None
        print("%-8s digest of the first %d queries %s (%s)" % (
            workload, run["digest_queries"], run["digest"],
            "nothing recorded to compare with" if want is None else
            "matches the recorded digest" if want == run["digest"] else
            "DIFFERS from the recorded %s" % want))
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, "results-%s-seed%d-trace%d.json"
                               % (workload, args.seed, args.trace)), "w") as fh:
            json.dump({"env": env, "metrics": metrics, "digest": run["digest"],
                       "attempted": run["attempted"], "failed": run["failed"],
                       "problems": run["problems"]}, fh, indent=1, sort_keys=True)
        prefix = workload + "." if len(names) > 1 else ""
        for m in spec:
            all_metrics[prefix + m["name"]] = {"value": metrics[m["name"]],
                                               "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
