"""The full identity and invariant suite, runnable as one deterministic batch.

Every algebraic law and cross-module invariant lives here as a named entry;
``run_suite`` executes them and reports per-entry pass/fail with check counts.
Exhaustive entries sweep all partitions on universes up to the context's
``max_n``; sampled entries draw from a seeded generator so runs are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import core
from .core import (
    BoolOpTable, bottom, graph_op, implies, join, make_partition, meet,
    modular_atom, nand, neg, pi_neg, refines, top,
)
from .corpus import formula_corpus, non_tautology_corpus, tautology_corpus
from .formula import (
    Atom, Impl, Join, Meet, Nand, OpCode, cnf_of, desugar, dnf_dual_of,
    dual_opcode, dualize, dualize_back, is_desugared, parse, to_text,
)
from .corpus import random_formula
from .relation import (
    PairRelation, chain_bounded_closure, closure, dit, eq_diff, eq_join,
    eq_meet, eq_nor, from_equivalence, indit, interior, pi_nand,
)
from .semantics import (
    Assignment, block_algebra_size, boolean_core, canonical_universe,
    check_partition_tautology, check_weak, chi, eval_dual, eval_formula,
    in_block_algebra, is_truth_table_tautology, non_singleton_blocks,
    partitions_on,
)


@dataclass
class SuiteContext:
    max_n: int = 4
    seed: int = 0

    def sizes(self, lo: int = 2, hi: int | None = None) -> range:
        top_n = self.max_n if hi is None else min(hi, self.max_n)
        return range(lo, max(lo, top_n) + 1)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checks: int
    detail: str = ""


_ENTRIES: list[tuple[str, object]] = []


def _entry(name):
    def wrap(fn):
        _ENTRIES.append((name, fn))
        return fn
    return wrap


def suite_names() -> list[str]:
    return [name for name, _ in _ENTRIES]


def run_suite(ctx: SuiteContext, names: list[str] | None = None) -> list[SuiteResult]:
    results = []
    for name, fn in _ENTRIES:
        if names is not None and name not in names:
            continue
        try:
            checks = fn(ctx)
            results.append(SuiteResult(name, True, checks))
        except AssertionError as exc:
            results.append(SuiteResult(name, False, 0, str(exc)))
    return results


def _all_pairs(n):
    parts = partitions_on(n)
    return product(parts, parts)


def _sample_partition(rng: random.Random, n: int):
    parts = partitions_on(n)
    return parts[rng.randrange(len(parts))]


# ---------------------------------------------------------------------------
# partition-core
# ---------------------------------------------------------------------------

@_entry("core/open-closed-fixpoints")
def _fixpoints(ctx):
    checks = 0
    for n in ctx.sizes():
        full = PairRelation.full(canonical_universe(n))
        for p in partitions_on(n):
            assert interior(dit(p)) == dit(p)
            assert closure(indit(p)) == indit(p)
            assert dit(p).union(indit(p)) == full
            assert dit(p).intersection(indit(p)).count == 0
            checks += 4
    return checks


@_entry("core/interior-lemma")
def _interior_lemma(ctx):
    rng = random.Random(ctx.seed)
    n = min(5, max(3, ctx.max_n))
    u = canonical_universe(n)
    checks = 0
    for _ in range(300):
        a = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
        b = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
        ra, rb = PairRelation(u, a), PairRelation(u, b)
        assert interior(ra.intersection(rb)) == \
            interior(interior(ra).intersection(interior(rb)))
        checks += 1
    return checks


@_entry("core/join-dits-are-union")
def _join_union(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        for s, p in _all_pairs(n):
            assert dit(join(s, p)) == dit(s).union(dit(p))
            checks += 1
    return checks


@_entry("core/common-dits")
def _common_dits(ctx):
    checks = 0
    for n in ctx.sizes(hi=5):
        ds = [dit(p) for p in partitions_on(n) if not p.is_bottom()]
        for a in ds:
            for b in ds:
                assert a.intersection(b).count, "disjoint non-empty dit sets"
                checks += 1
    return checks


@_entry("core/implication-two-routes")
def _implication_routes(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        for s, p in _all_pairs(n):
            by_dits = from_equivalence(
                closure(dit(s).complement().union(dit(p)).complement()))
            assert implies(s, p) == by_dits
            checks += 1
    return checks


@_entry("core/implication-adjunction")
def _adjunction(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        parts = partitions_on(n)
        for s in parts:
            for p in parts:
                imp = implies(s, p)
                dp = dit(p)
                for t in parts:
                    lhs = dit(t).intersection(dit(s)).is_subset_of(dp)
                    assert lhs == refines(t, imp)
                    checks += 1
    return checks


@_entry("core/chain-length-bounds")
def _chain_bounds(ctx):
    checks = 0
    for n in ctx.sizes(hi=5):
        for s, p in _all_pairs(n):
            arcs = dit(s).intersection(indit(p))
            assert chain_bounded_closure(arcs, 2) == closure(arcs), "implies cap"
            arcs = dit(s).intersection(dit(p))
            assert chain_bounded_closure(arcs, 4) == closure(arcs), "nand cap"
            checks += 2
    return checks


@_entry("core/orthogonality")
def _orthogonality(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        t = top(canonical_universe(n))
        for f, g in _all_pairs(n):
            lhs = join(neg(f), neg(g)) == t
            rhs = nand(f, g) == t
            assert lhs == rhs
            checks += 1
    return checks


@_entry("core/refinement-sandwich")
def _sandwich(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        for s, t in _all_pairs(n):
            assert refines(join(neg(s), neg(t)), nand(s, t))
            assert refines(nand(s, t), neg(meet(s, t)))
            checks += 2
    return checks


@_entry("core/weak-demorgan")
def _weak_demorgan(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        parts = partitions_on(n)
        for s in parts:
            for t in parts:
                for p in parts:
                    assert pi_neg(join(s, t), p) == meet(pi_neg(s, p), pi_neg(t, p))
                    checks += 1
    return checks


@_entry("core/modular-atom-nand-coatom")
def _modular_atoms(ctx):
    checks = 0
    for n in ctx.sizes(lo=3, hi=5):
        u = canonical_universe(n)
        for x in u.elements:
            for y in u.elements:
                if x == y:
                    continue
                got = nand(modular_atom(u, x), modular_atom(u, y))
                coatom = make_partition(
                    u, [[x, y]] + [[z] for z in u.elements if z not in (x, y)])
                assert got == coatom
                checks += 1
    return checks


def _table_relation(table, s, t) -> PairRelation:
    """Pairs at which the table outputs T on their statuses in s and t."""
    rel = PairRelation.empty(s.universe)
    for s_bit, s_rel in ((True, dit(s)), (False, indit(s))):
        for t_bit, t_rel in ((True, dit(t)), (False, indit(t))):
            if table.output(s_bit, t_bit):
                rel = rel.union(s_rel.intersection(t_rel))
    return rel


@_entry("core/graph-op-two-routes")
def _graph_op_routes(ctx):
    """graph_op against the interior route: dit(result) = int(R), so the
    result's blocks are the classes of closure(R^c)."""
    tables = [BoolOpTable.from_value(v) for v in range(16)]
    checks = 0
    for n in ctx.sizes(hi=4):
        for s, t in _all_pairs(n):
            for table in tables:
                by_dits = from_equivalence(
                    closure(_table_relation(table, s, t).complement()))
                assert graph_op(table, s, t) == by_dits, table
                checks += 1
    return checks


@_entry("core/dual-algebra-dualities")
def _dual_algebra(ctx):
    checks = 0
    for n in ctx.sizes(hi=3):
        for s, p in _all_pairs(n):
            es, ep = indit(s), indit(p)
            assert eq_meet(ep, es) == indit(join(p, s))
            assert eq_join(ep, es) == indit(meet(p, s))
            assert eq_diff(ep, es) == indit(implies(s, p))
            assert eq_nor(ep, es) == indit(nand(p, s))
            checks += 4
    return checks


# ---------------------------------------------------------------------------
# formula
# ---------------------------------------------------------------------------

@_entry("formula/parse-print-round-trip")
def _round_trip(ctx):
    rng = random.Random(ctx.seed)
    for _ in range(500):
        f = random_formula(rng, max_depth=5)
        assert parse(to_text(f)) == f
    return 500


@_entry("formula/desugar-idempotent")
def _desugar_idem(ctx):
    rng = random.Random(ctx.seed + 1)
    for _ in range(300):
        f = random_formula(rng, max_depth=5)
        d = desugar(f)
        assert is_desugared(d) and desugar(d) == d
    return 300


@_entry("formula/dualize-involution")
def _dualize_involution(ctx):
    rng = random.Random(ctx.seed + 2)
    from .formula import DMeet, DJoin, DDiff, DNor, DTop, DBottom, Zero, One
    partner = {Join: DMeet, Meet: DJoin, Impl: DDiff, Nand: DNor,
               Zero: DTop, One: DBottom}
    checks = 0
    for _ in range(300):
        f = desugar(random_formula(rng, max_depth=5))
        d = dualize(f)
        assert dualize_back(d) == f
        if type(f) in partner:
            assert type(d) is partner[type(f)]
        checks += 1
    return checks


@_entry("formula/cnf-table-equivalence")
def _cnf_equivalence(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        u = canonical_universe(n)
        for op in OpCode:
            if op is OpCode.ONE:
                continue
            cnf = cnf_of(op)
            for s, t in _all_pairs(n):
                a = Assignment(u, {"s": s, "t": t})
                assert eval_formula(cnf, a) == graph_op(op.table, s, t), op
                checks += 1
    return checks


@_entry("formula/dnf-dual-table-equivalence")
def _dnf_equivalence(ctx):
    checks = 0
    for n in ctx.sizes(hi=3):
        u = canonical_universe(n)
        for op in OpCode:
            dnf = dnf_dual_of(op)
            partner = dual_opcode(op)
            for s, t in _all_pairs(n):
                a = Assignment(u, {"s": s, "t": t})
                assert eval_dual(dnf, a) == indit(graph_op(partner.table, s, t)), op
                checks += 1
    return checks


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------

@_entry("semantics/duality-principle")
def _duality_principle(ctx):
    checks = 0
    n = min(3, ctx.max_n)
    u = canonical_universe(n)
    delta = PairRelation.diagonal(u)
    t = top(u)
    for f in formula_corpus(seed=ctx.seed + 3, count=40, max_depth=4):
        g = desugar(f)
        d = dualize(g)
        for combo in product(partitions_on(n), repeat=3):
            a = Assignment(u, dict(zip(("p", "s", "t"), combo)))
            lhs = eval_dual(d, a)
            val = eval_formula(g, a)
            assert lhs == indit(val)
            assert (val == t) == (lhs == delta)
            checks += 1
    return checks


@_entry("semantics/reduction-principle")
def _reduction(ctx):
    u2 = canonical_universe(2)
    zero_one = (bottom(u2), top(u2))
    named = [(core.TABLE_OR, join), (core.TABLE_AND, meet),
             (core.TABLE_IMPLIES, implies), (core.TABLE_NAND, nand)]
    checks = 0
    for table, op in named:
        for sb, tb in product((False, True), repeat=2):
            got = op(zero_one[sb], zero_one[tb])
            expect = zero_one[table.output(sb, tb)]
            assert got == expect
            checks += 1
    return checks


@_entry("semantics/weak-tautologies-are-subset-tautologies")
def _weak_implies_subset(ctx):
    checks = 0
    for f in formula_corpus(seed=ctx.seed + 4, count=60, max_depth=4,
                            atom_names=("s", "t")):
        if not is_truth_table_tautology(f):
            assert check_weak(f, 2).is_countermodel, f
        checks += 1
    return checks


@_entry("semantics/transform-propositions")
def _transforms(ctx):
    from .formula import (single_pi_neg_transform, double_pi_neg_transform,
                          godel_transform)
    pi = Atom("q")
    max_n = min(4, ctx.max_n)
    checks = 0
    for f in tautology_corpus(seed=ctx.seed + 5, count=50):
        for tr in (single_pi_neg_transform(f, pi),
                   double_pi_neg_transform(f, pi),
                   Impl(Impl(godel_transform(f, pi), pi), pi)):
            assert not check_partition_tautology(tr, max_n).is_countermodel, f
            checks += 1
    for f in non_tautology_corpus(seed=ctx.seed + 6, count=20):
        tr = Impl(Impl(godel_transform(f, pi), pi), pi)
        assert check_partition_tautology(tr, 3).is_countermodel, f
        checks += 1
    return checks


def _coboundary(s, p):
    return join(s, pi_neg(s, p))


@_entry("semantics/ore-distributivity")
def _ore(ctx):
    rng = random.Random(ctx.seed + 7)
    checks = 0
    for _ in range(500):
        n = rng.choice(list(ctx.sizes(hi=5)))
        f, s, t, p = (_sample_partition(rng, n) for _ in range(4))
        lhs = join(f, meet(pi_neg(s, p), pi_neg(t, p)))
        rhs = meet(join(f, pi_neg(s, p)), join(f, pi_neg(t, p)))
        assert lhs == rhs
        checks += 1
    return checks


@_entry("semantics/dual-ore")
def _dual_ore(ctx):
    rng = random.Random(ctx.seed + 8)
    checks = 0
    for _ in range(500):
        n = rng.choice(list(ctx.sizes(hi=5)))
        f0, s, t, p = (_sample_partition(rng, n) for _ in range(4))
        f = join(f0, p)    # force f into the interval [p, 1]
        lhs = meet(f, join(pi_neg(s, p), pi_neg(t, p)))
        rhs = join(meet(f, pi_neg(s, p)), meet(f, pi_neg(t, p)))
        assert lhs == rhs
        checks += 1
    return checks


@_entry("semantics/lawvere-boundary-core")
def _lawvere(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        for s, p in _all_pairs(n):
            lhs = meet(_coboundary(s, p), pi_neg(pi_neg(s, p), p))
            assert lhs == join(s, p)
            checks += 1
    return checks


@_entry("semantics/co-leibniz")
def _co_leibniz(ctx):
    checks = 0
    n = min(4, ctx.max_n)
    parts = partitions_on(n)
    for s in parts:
        for t in parts:
            for p in parts:
                lhs = _coboundary(join(s, t), p)
                rhs = meet(join(_coboundary(s, p), t), join(s, _coboundary(t, p)))
                assert lhs == rhs
                checks += 1
    if ctx.max_n >= 5:
        rng = random.Random(ctx.seed + 9)
        for _ in range(200):
            s, t, p = (_sample_partition(rng, 5) for _ in range(3))
            assert _coboundary(join(s, t), p) == \
                meet(join(_coboundary(s, p), t), join(s, _coboundary(t, p)))
            checks += 1
    return checks


def _phi_choices(s, t, p):
    u = p.universe
    return (p, join(s, p), join(meet(s, t), p), top(u))


@_entry("semantics/cnf-decomposition")
def _cnf_decomposition(ctx):
    checks = 0
    n = min(4, ctx.max_n)
    parts = partitions_on(n)
    for s in parts:
        for t in parts:
            for p in parts:
                ns, nns = pi_neg(s, p), pi_neg(pi_neg(s, p), p)
                nt, nnt = pi_neg(t, p), pi_neg(pi_neg(t, p), p)
                for f in _phi_choices(s, t, p):
                    rhs = meet(meet(join(join(nns, nnt), f), join(join(nns, nt), f)),
                               meet(join(join(ns, nnt), f), join(join(ns, nt), f)))
                    assert rhs == f
                    checks += 1
    if ctx.max_n >= 5:
        rng = random.Random(ctx.seed + 10)
        for _ in range(125):
            s, t, p, f0 = (_sample_partition(rng, 5) for _ in range(4))
            f = join(f0, p)
            ns, nns = pi_neg(s, p), pi_neg(pi_neg(s, p), p)
            nt, nnt = pi_neg(t, p), pi_neg(pi_neg(t, p), p)
            rhs = meet(meet(join(join(nns, nnt), f), join(join(nns, nt), f)),
                       meet(join(join(ns, nnt), f), join(join(ns, nt), f)))
            assert rhs == f
            checks += 1
    return checks


@_entry("semantics/dnf-decomposition")
def _dnf_decomposition(ctx):
    checks = 0
    n = min(4, ctx.max_n)
    parts = partitions_on(n)
    for s in parts:
        for t in parts:
            for p in parts:
                ns, nns = pi_neg(s, p), pi_neg(pi_neg(s, p), p)
                nt, nnt = pi_neg(t, p), pi_neg(pi_neg(t, p), p)
                for f in _phi_choices(s, t, p):
                    rhs = join(join(meet(meet(nns, nnt), f), meet(meet(nns, nt), f)),
                               join(meet(meet(ns, nnt), f), meet(meet(ns, nt), f)))
                    assert rhs == f
                    checks += 1
    if ctx.max_n >= 5:
        rng = random.Random(ctx.seed + 11)
        for _ in range(125):
            s, t, p, f0 = (_sample_partition(rng, 5) for _ in range(4))
            f = join(f0, p)
            ns, nns = pi_neg(s, p), pi_neg(pi_neg(s, p), p)
            nt, nnt = pi_neg(t, p), pi_neg(pi_neg(t, p), p)
            rhs = join(join(meet(meet(nns, nnt), f), meet(meet(nns, nt), f)),
                       join(meet(meet(ns, nnt), f), meet(meet(ns, nt), f)))
            assert rhs == f
            checks += 1
    return checks


@_entry("semantics/boolean-core-homomorphisms")
def _core_homomorphisms(ctx):
    checks = 0
    n = min(4, ctx.max_n)
    for p in partitions_on(n):
        els = boolean_core(p)
        ns = non_singleton_blocks(p)
        assert len(els) == 2 ** len(ns)
        for x in els:
            cx = chi(x, p)
            assert chi(pi_neg(x, p), p) == {b: 1 - cx[b] for b in ns}
            for y in els:
                cy = chi(y, p)
                assert chi(meet(x, y), p) == {b: cx[b] & cy[b] for b in ns}
                assert chi(join(x, y), p) == {b: cx[b] | cy[b] for b in ns}
                assert chi(implies(x, y), p) == \
                    {b: int((not cx[b]) or cy[b]) for b in ns}
                checks += 3
    return checks


@_entry("semantics/block-algebra-cardinality")
def _block_algebra(ctx):
    from itertools import combinations
    checks = 0
    for n in ctx.sizes(hi=4):
        u = canonical_universe(n)
        for p in partitions_on(n):
            members = 0
            for r in range(n + 1):
                for subset in combinations(u.elements, r):
                    members += in_block_algebra(p, set(subset))
            ns = len(non_singleton_blocks(p))
            singletons = p.n_blocks - ns
            assert members == block_algebra_size(p) == 2 ** ns * 2 ** singletons
            checks += 1
    return checks


@_entry("semantics/pi-nand-reduces-to-nand")
def _pi_nand_reduction(ctx):
    checks = 0
    for n in ctx.sizes(hi=4):
        b = bottom(canonical_universe(n))
        for s, t in _all_pairs(n):
            assert pi_nand(s, t, b) == nand(s, t)
            checks += 1
    return checks


# ---------------------------------------------------------------------------
# tableau
# ---------------------------------------------------------------------------

def _tableau_corpus(ctx):
    count = max(5, 5 * (ctx.max_n - 1))
    return [desugar(f) for f in formula_corpus(
        seed=ctx.seed + 12, count=count, max_depth=3, atom_names=("s", "t"))]


@_entry("tableau/soundness-cross-check")
def _tableau_soundness(ctx):
    from .tableau import ProverConfig, prove, verify_outcome
    cfg = ProverConfig(max_elements=5, max_steps=15_000)
    checks = 0
    for g in _tableau_corpus(ctx):
        out = prove(g, cfg)
        if out.verdict == "proved":
            assert not check_partition_tautology(g, 3).is_countermodel, g
        elif out.verdict == "countermodel":
            assert verify_outcome(g, out), g
        checks += 1
    return checks


@_entry("tableau/branch-closing-lemma-neutral")
def _lemma_neutral(ctx):
    from .tableau import ProverConfig, prove
    on = ProverConfig(max_elements=5, max_steps=15_000)
    off = ProverConfig(max_elements=5, max_steps=15_000,
                       use_branch_closing_lemma=False)
    checks = 0
    for g in _tableau_corpus(ctx):
        a, b = prove(g, on), prove(g, off)
        if "unknown" not in (a.verdict, b.verdict):
            assert a.verdict == b.verdict, g
        checks += 1
    return checks


@_entry("tableau/chain-length-discipline")
def _chain_discipline(ctx):
    from .formula import subformulas
    from .tableau import ProverConfig, prove

    def fresh_by_rule(trace):
        """Fresh elements per step; branches never grow after spawning
        children, so a running per-branch element count is exact."""
        count: dict[int, int] = {}

        def count_of(b):
            if b == -1:
                return 2
            if b not in count:
                count[b] = count_of(trace.parents[b])
            return count[b]

        for step in trace.steps:
            if not step.conclusions:
                continue
            known = count_of(step.branch)
            high = max(max(trace.statements[cid][0].i,
                           trace.statements[cid][0].j)
                       for cid in step.conclusions)
            fresh = max(0, high + 1 - known)
            count[step.branch] = max(known, high + 1)
            yield step.rule, fresh

    checks = 0
    for g in _tableau_corpus(ctx)[:10]:
        out = prove(g, ProverConfig(max_elements=5, max_steps=15_000))
        cap_and = len(subformulas(g))
        for rule, fresh in fresh_by_rule(out.trace):
            cap = {"F-impl": 1, "F-nand": 3, "F-and": cap_and}.get(rule, 0)
            assert fresh <= cap, (g, rule, fresh)
            checks += 1
    return checks


@_entry("tableau/negation-as-derived-rules")
def _negation_rules(ctx):
    from .formula import Not
    from .tableau import ProverConfig, prove, verify_outcome
    cfg = ProverConfig(max_elements=5, max_steps=40_000)
    rng = random.Random(ctx.seed + 13)
    checks = 0
    for _ in range(12):
        body = random_formula(rng, max_depth=2, atom_names=("s", "t"),
                              allow_derived=False, allow_nand=False)
        g = desugar(Join(Not(body), Not(Not(body))))  # always a tautology shape
        out = prove(g, cfg)
        if out.verdict == "proved":
            assert not check_partition_tautology(g, 3).is_countermodel
        elif out.verdict == "countermodel":
            assert verify_outcome(g, out)
        checks += 1
    return checks


@_entry("tableau/stage-monotonicity")
def _stage_monotonicity(ctx):
    from .tableau import prove, replay_trace
    checks = 0
    for text in ["(s /\\ (s => p)) => p", "p => (s => p)", "~s \\/ ~~s"]:
        out = prove(parse(text))
        assert out.verdict == "proved"
        replay_trace(out.trace)   # ids strictly grow; statements never retract
        checks += 1
    return checks


@_entry("tableau/rule-local-soundness")
def _rule_local(ctx):
    from .formula import Join as FJoin, Meet as FMeet, Impl as FImpl, Nand as FNand
    u = canonical_universe(3)
    s = make_partition(u, [["u0", "u1"], ["u2"]])
    t = make_partition(u, [["u0"], ["u1", "u2"]])
    model = Assignment(u, {"s": s, "t": t})

    def true_at(i, j, sign, f):
        v = eval_formula(f, model)
        d = not v.same_block("u%d" % i, "u%d" % j)
        return d if sign == "T" else not d

    checks = 0
    for f in formula_corpus(seed=ctx.seed + 14, count=40, max_depth=2,
                            atom_names=("s", "t"), allow_derived=False):
        g = desugar(f)
        for i in range(3):
            for j in range(i + 1, 3):
                for sign in "TF":
                    if not true_at(i, j, sign, g):
                        continue
                    if sign == "T":
                        for k in range(3):
                            if k not in (i, j):
                                assert (true_at(*sorted((i, k)), "T", g)
                                        or true_at(*sorted((k, j)), "T", g))
                                checks += 1
                        conds = {FJoin: [("T", "left"), ("T", "right")],
                                 FImpl: [("F", "left"), ("T", "right")],
                                 FNand: [("F", "left"), ("F", "right")]}
                        if type(g) in conds:
                            assert any(true_at(i, j, sg, getattr(g, side))
                                       for sg, side in conds[type(g)])
                            checks += 1
                        if isinstance(g, FMeet):
                            assert true_at(i, j, "T", g.left)
                            assert true_at(i, j, "T", g.right)
                            checks += 2
                    elif isinstance(g, FJoin):
                        assert true_at(i, j, "F", g.left)
                        assert true_at(i, j, "F", g.right)
                        checks += 2
    return checks
