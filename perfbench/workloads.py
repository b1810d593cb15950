"""The four workloads: a seeded query stream, a runner, and an untimed check
of every answer against the reference semantics.

A CLI query is one in-process ``partlog.cli.main(argv)`` call with stdout
captured; a kernel query is one direct call of a ``partlog.core`` operation.
Streams are endless and depend only on the seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter_ns

import gen
import reference

PI = gen.atom("q")
TAUTOLOGY_SIZES = (4, 5, 6)   # desugared nodes; one block of the search stream
PROVE_ARGS = ["--max-elements", "5", "--max-steps", "300", "--trace"]


@dataclass
class Query:
    argv: list
    formula: tuple = ()           # desugared generator AST
    weak: bool = False
    call: tuple = ()              # kernel: (op, table, n, a, b, partlog args)


@dataclass
class Outcome:
    ok: bool
    decided: bool = True
    problem: str = ""
    counts: dict = field(default_factory=dict)   # exact per-query layer counts


def _names(f: tuple) -> list[str]:
    return sorted(gen.atoms_of(f))


def _draw(rng, names, ops, accept, depth=3):
    """Rejection-sample a desugared formula; every tenth draw is fused into
    x \\/ ~x so that tautologies stay plentiful."""
    draws = 0
    while True:
        f = gen.random_formula(rng, depth, names, ops)
        draws += 1
        if draws % 10 == 0:
            f = ("join", f, ("not", f))
        f = gen.desugar(f)
        if accept(f):
            return f


class CliWorkload:
    """Shared runner and search-answer check for the CLI workloads."""

    name = ""
    warmup_argv: list = []
    digest_queries = 100     # the least a run completes; ten blocks of search
    fresh_memos = False      # the CLI's memos keep their state between queries

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.searcher = reference.Searcher()
        from partlog.cli import main
        self.main = main

    def warmup(self):
        self.run(Query(self.warmup_argv), None)

    def run(self, query: Query, tracer):
        """(latency ns, exit code or None, stdout bytes, error text)."""
        out, err = io.StringIO(), io.StringIO()
        error = ""
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    code = self.main(query.argv)
                else:
                    code = tracer.call("cli.main", self.main, query.argv)
            except Exception as exc:      # a crash fails the query, not the run
                code, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = perf_counter_ns() - t0
        return dt, code, out.getvalue().encode(), error or err.getvalue()

    def check_search(self, query: Query, code, doc: dict, max_n: int) -> Outcome:
        """Compare a check answer with the reference's first countermodel."""
        f, names = query.formula, _names(query.formula)
        found = self.searcher.first_countermodel(f, names, max_n, query.weak)
        k = len(names)
        if found is None:
            verdict = "weak_tautology_up_to" if query.weak else "tautology_up_to"
            if code != 0 or doc.get("verdict") != verdict:
                return Outcome(False, problem="expected %s, got exit %r verdict %r"
                               % (verdict, code, doc.get("verdict")))
            return Outcome(True, counts={
                "assignments": reference.assignments_through(max_n, k)})
        n, rank, bindings, value = found
        counts = {"assignments": reference.assignments_through(n - 1, k) + rank + 1}
        if code != 1 or doc.get("verdict") != "countermodel":
            return Outcome(False, problem="expected a countermodel on %d elements, "
                           "got exit %r verdict %r" % (n, code, doc.get("verdict")))
        universe = doc["universe"]
        got = {x: reference.from_blocks(universe, b)
               for x, b in doc["bindings"].items()}
        if len(universe) != n or got != bindings:
            return Outcome(False, problem="not the first countermodel: %r" % doc)
        evaluated = reference.evaluate(f, got, n)
        if reference.from_blocks(universe, doc["evaluated"]) != evaluated:
            return Outcome(False, problem="wrong evaluated value: %r" % doc)
        if not query.weak:
            a, b = (universe.index(x) for x in doc["pair"])
            if a == b or evaluated[a] != evaluated[b]:
                return Outcome(False, problem="pair is a distinction: %r" % doc)
        return Outcome(True, counts=counts)


class Search(CliWorkload):
    """Transform propositions at the default --max-n 4: every classical
    tautology as its single-pi, double-pi and ~~Goedel transforms, with
    one ~~Goedel transform of a non-tautology mixed in per 9 queries."""

    name = "search"
    warmup_argv = ["check", "(s => q) \\/ ((s => q) => q)"]

    def stream(self):
        rng = self.rng
        while True:
            block = []
            for size in rng.sample(TAUTOLOGY_SIZES, len(TAUTOLOGY_SIZES)):
                f = _draw(rng, ["s", "t"], ("join", "meet", "impl"),
                          lambda g: _fits(g, size) and gen.is_tautology(g))
                block += [gen.single_pi(f, PI), gen.double_pi(f, PI),
                          gen.neg2_godel(f, PI)]
            size = rng.choice(TAUTOLOGY_SIZES)
            f = _draw(rng, ["s", "t"], ("join", "meet", "impl"),
                      lambda g: _fits(g, size) and not gen.is_tautology(g))
            block.append(gen.neg2_godel(f, PI))
            rng.shuffle(block)
            for f in block:
                yield Query(["check", gen.to_text(f)], f)

    def check(self, query, code, out) -> Outcome:
        return self.check_search(query, code, json.loads(out), 4)


def _fits(f: tuple, size: int) -> bool:
    return gen.atoms_of(f) == {"s", "t"} and gen.nodes(f) == size


class Refute(CliWorkload):
    """Strong and weak checks, alternating, of classical non-tautologies over
    three atoms; the countermodel is the first falsifying Boolean row."""

    name = "refute"
    warmup_argv = ["check", "s => t"]

    def stream(self):
        rng = self.rng
        weak = False
        while True:
            f = _draw(rng, ["p", "s", "t"], gen.BINARY,
                      lambda g: len(gen.atoms_of(g)) == 3 and not gen.is_tautology(g))
            yield Query(["check", gen.to_text(f)] + (["--weak"] if weak else []),
                        f, weak)
            weak = not weak

    def check(self, query, code, out) -> Outcome:
        outcome = self.check_search(query, code, json.loads(out), 4)
        if outcome.ok:
            row = gen.first_falsifying_row(query.formula)
            boolean = {x: (0, 1) if v else (0, 0) for x, v in row.items()}
            got = json.loads(out)
            if len(got["universe"]) != 2 or {
                    x: reference.from_blocks(got["universe"], b)
                    for x, b in got["bindings"].items()} != boolean:
                return Outcome(False, problem="not the first falsifying Boolean "
                               "row %r: %r" % (row, got))
        return outcome


class Prove(CliWorkload):
    """The tableau with a replayable trace on depth-4 formulas over s, t."""

    name = "prove"
    warmup_argv = ["prove", "(s /\\ (s => t)) => t"] + PROVE_ARGS

    def stream(self):
        while True:
            f = gen.random_formula(self.rng, 4, ["s", "t"], gen.BINARY)
            yield Query(["prove", gen.to_text(f)] + PROVE_ARGS, gen.desugar(f))

    def check(self, query, code, out) -> Outcome:
        doc = json.loads(out)
        verdict = doc.get("verdict")
        rules = [step["rule"] for step in doc.get("trace", ())]
        counts = {"steps": len(rules), "branches": len(doc.get("branches", ())),
                  "statements": len(doc.get("statements", ())),
                  "closes": rules.count("close"),
                  "lemma_closes": rules.count("lemma-close"),
                  "verdict": verdict, "reason": doc.get("reason")}
        expected_code = {"proved": 0, "countermodel": 1, "unknown": 2}.get(verdict)
        if code != expected_code or "trace" not in doc:
            return Outcome(False, problem="exit %r for verdict %r" % (code, verdict))
        f = query.formula
        if verdict == "countermodel":
            universe = doc["model"]["universe"]
            env = {x: reference.from_blocks(universe, b)
                   for x, b in doc["model"]["bindings"].items()}
            value = reference.evaluate(f, env, len(universe))
            a, b = (universe.index(x) for x in doc["pair"])
            if a == b or value[a] != value[b]:
                return Outcome(False, problem="model does not refute: %r" % doc)
        elif verdict == "proved":
            if self.searcher.first_countermodel(f, _names(f), 3, False) is not None:
                return Outcome(False, problem="proved, but refuted on <= 3 elements")
        elif doc.get("reason") not in ("max_steps", "max_elements"):
            return Outcome(False, problem="unknown for reason %r" % doc.get("reason"))
        return Outcome(True, decided=verdict != "unknown", counts=counts)


class Kernel:
    """Direct partition operations at |U| = 4..8, round-robin over the ops and
    sizes, graph_op cycling through all 16 tables.  Every call gets operands on
    a universe of its own, so no memo keyed by its arguments can hit."""

    name = "kernel"
    OPS = ("join", "meet", "implies", "nand", "refines", "graph_op")
    digest_queries = len(OPS) * 5 * 16     # every op, size and table once
    # Every call's operands are new, so a memo entry is never used again;
    # clearing the memos after each call keeps peak RSS from growing with
    # the number of calls a run completes.
    fresh_memos = True
    REFERENCE = {"join": reference.join, "meet": reference.meet,
                 "implies": reference.implies, "nand": reference.nand,
                 "refines": reference.refines}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        from partlog import core
        self.core = core
        self.tables = [core.BoolOpTable.from_value(v) for v in range(16)]

    def _args(self, op, table, universe, a, b):
        core = self.core
        s, t = core.Partition(universe, a), core.Partition(universe, b)
        return (self.tables[table], s, t) if op == "graph_op" else (s, t)

    def warmup(self):
        u = self.core.Universe(("w0", "w1", "w2", "w3"))
        for k, op in enumerate(self.OPS):
            self.run(Query([], call=(op, k, 4, (0, 0, 1, 1), (0, 1, 0, 1),
                                     self._args(op, k, u, (0, 0, 1, 1), (0, 1, 0, 1)))),
                     None)

    def stream(self):
        rng, Universe = self.rng, self.core.Universe
        labels = tuple("e%d" % k for k in range(8))
        i = 0
        while True:
            op = self.OPS[i % len(self.OPS)]
            n = 4 + (i // len(self.OPS)) % 5
            table = (i // (5 * len(self.OPS))) % 16
            parts = reference.partitions(n)
            a, b = rng.choice(parts), rng.choice(parts)
            universe = Universe(("k%d" % i,) + labels[1:n])
            yield Query([], call=(op, table, n, a, b,
                                  self._args(op, table, universe, a, b)))
            i += 1

    def run(self, query: Query, tracer):
        op, args = query.call[0], query.call[5]
        fn = getattr(self.core, op)          # looked up per call: tracing wraps it
        t0 = perf_counter_ns()
        try:
            result = fn(*args)
            error = ""
        except Exception as exc:             # a crash fails the query, not the run
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        dt = perf_counter_ns() - t0
        out = getattr(result, "rgs", result)
        return dt, 0 if not error else None, repr(out).encode(), error

    def check(self, query, code, out) -> Outcome:
        op, table, n, a, b, _ = query.call
        if op == "graph_op":
            want = reference.graph_op(table, a, b)
        else:
            want = self.REFERENCE[op](a, b)
        if out != repr(want).encode():
            return Outcome(False, problem="%s(%r, %r) table %d: got %s, want %r"
                           % (op, a, b, table, out.decode(), want))
        return Outcome(True)


WORKLOADS = {w.name: w for w in (Search, Refute, Prove, Kernel)}
