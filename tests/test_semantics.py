"""Evaluation, tautology checking, omega_n, Bell numbers, and the Boolean core."""

import sys
import time
from itertools import combinations, product

import pytest

from partlog.core import (
    Universe, UniverseMismatch, bottom, implies, indit, join as pjoin,
    make_partition, meet, nand, PairRelation, top,
)
from partlog.corpus import formula_corpus, non_tautology_corpus, tautology_corpus
from partlog.formula import (
    Atom, Diff, Equiv, Impl, Inequiv, Join, Meet, Nand, Nor, Not, One, Zero,
    ZERO, atoms_of, desugar, dualize, parse, subformulas,
)
from partlog.semantics import (
    Assignment, BudgetExceeded, NotPiRegular, TooLarge,
    UnboundAtom, assignment_from_json, assignment_to_json, assignments_over,
    bell, block_algebra_size, boolean_core, canonical_universe,
    check_partition_tautology, check_weak, chi, eval_dual, eval_formula,
    in_block_algebra, is_pi_regular, is_truth_table_tautology,
    non_singleton_blocks, omega, omega_countermodel, partitions_on,
)

U5 = Universe.of("a", "b", "c", "d", "e")
SIGMA = make_partition(U5, [["a", "b", "c"], ["d", "e"]])
PI = make_partition(U5, [["a", "b"], ["c", "d", "e"]])

PEIRCE = parse("((s => p) => s) => s")
MODUS_PONENS = parse("(s /\\ (s => p)) => p")
ACCUMULATION = parse("s => (p => (s /\\ p))")


def truth_value(f, env):
    """Classical truth value of a surface formula, by recursion over the AST."""
    match f:
        case Atom(name):
            return env[name]
        case Zero():
            return False
        case One():
            return True
        case Not(x):
            return not truth_value(x, env)
        case Join(x, y):
            return truth_value(x, env) or truth_value(y, env)
        case Meet(x, y):
            return truth_value(x, env) and truth_value(y, env)
        case Impl(x, y):
            return not truth_value(x, env) or truth_value(y, env)
        case Nand(x, y):
            return not (truth_value(x, env) and truth_value(y, env))
        case Equiv(x, y):
            return truth_value(x, env) == truth_value(y, env)
        case Inequiv(x, y):
            return truth_value(x, env) != truth_value(y, env)
        case Nor(x, y):
            return not (truth_value(x, env) or truth_value(y, env))
        case Diff(x, y):
            return truth_value(y, env) and not truth_value(x, env)
    raise TypeError(f)


def reference_desugar(f):
    """The desugaring rules, stated once more as a recursive rewrite."""
    match f:
        case Atom() | Zero() | One():
            return f
        case Not(x):
            return Impl(reference_desugar(x), ZERO)
    x, y = reference_desugar(f.left), reference_desugar(f.right)
    match f:
        case Join() | Meet() | Impl() | Nand():
            return type(f)(x, y)
        case Equiv():
            return Meet(Impl(x, y), Impl(y, x))
        case Inequiv():
            return Meet(Join(x, y), Nand(x, y))
        case Nor():
            return Meet(Impl(x, ZERO), Impl(y, ZERO))
        case Diff():
            return Meet(y, Impl(x, ZERO))
    raise TypeError(f)


def reference_eval(f, a):
    """Partition value of a desugared formula, by recursion over the AST."""
    match f:
        case Atom(name):
            return a.get(name)
        case Zero():
            return bottom(a.universe)
        case One():
            return top(a.universe)
    op = {Join: pjoin, Meet: meet, Impl: implies, Nand: nand}[type(f)]
    return op(reference_eval(f.left, a), reference_eval(f.right, a))


def pi2_tautology(f):
    """The reduction principle's route, Pi(2) = P(1): f evaluates to 1 on the
    two-element universe under every binding of its atoms to 0 and 1."""
    u = canonical_universe(2)
    zero_one = (bottom(u), top(u))
    names = sorted(atoms_of(f))
    return all(
        eval_formula(f, Assignment(u, {x: zero_one[b] for x, b in zip(names, bits)}))
        == top(u) for bits in product((False, True), repeat=len(names)))


def reference_is_pi_regular(r, p):
    """Blockwise: every block of p is a whole block of r or r's singletons."""
    for block in p.blocks:
        whole = (len({r.block_of(el) for el in block}) == 1
                 and sum(1 for el in p.universe.elements
                         if r.block_of(el) == r.block_of(block[0])) == len(block))
        discrete = all(
            sum(1 for el in p.universe.elements
                if r.block_of(el) == r.block_of(x)) == 1
            for x in block)
        if not (whole or discrete):
            return False
    return True


def bell_oracle(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class TestEval:
    def test_peirce_evaluates_to_sigma_not_one(self):
        u = Universe.of("u0", "u1", "a")
        s = make_partition(u, [["u0", "u1"], ["a"]])
        a = Assignment(u, {"s": s, "p": bottom(u)})
        assert eval_formula(PEIRCE, a) == s
        assert eval_formula(PEIRCE, a) != top(u)

    def test_un_accumulated_formula_evaluates_to_zero(self):
        u = Universe.of("u0", "u1", "a")
        s = make_partition(u, [["u0", "a"], ["u1"]])
        p = make_partition(u, [["u0"], ["u1", "a"]])
        a = Assignment(u, {"s": s, "p": p})
        assert eval_formula(parse("s => ((s => p) => (s /\\ p))"), a) == bottom(u)

    def test_all_top_assignment_matches_truth_table(self):
        u2 = canonical_universe(2)
        names = ("p", "s", "t")
        a = Assignment(u2, {n: top(u2) for n in names})
        for f in formula_corpus(seed=11, count=60, max_depth=4):
            at_true = eval_formula(f, a) == top(u2)
            # independent truth-table oracle at the all-true row
            assert at_true == truth_value(f, {n: True for n in names})

    def test_unbound_atom(self):
        with pytest.raises(UnboundAtom):
            eval_formula(parse("s => q"), Assignment(U5, {"s": SIGMA}))

    def test_constants(self):
        a = Assignment(U5, {})
        assert eval_formula(ZERO, a) == bottom(U5)
        assert eval_formula(parse("0 => 0"), a) == top(U5)


class TestEvalDual:
    def test_datom_is_indit(self):
        from partlog.formula import DAtom
        a = Assignment(U5, {"s": SIGMA})
        got = eval_dual(DAtom("s"), a)
        assert got == indit(SIGMA)
        assert got.count == 13  # 9 + 4 within-block ordered pairs

    def test_dtop_is_full(self):
        from partlog.formula import DTOP
        assert eval_dual(DTOP, Assignment(U5, {})) == PairRelation.full(U5)

    def test_dual_of_meet_on_example_data(self):
        a = Assignment(U5, {"s": SIGMA, "p": PI})
        d = dualize(desugar(parse("p /\\ s")))
        assert eval_dual(d, a) == indit(meet(PI, SIGMA)) == PairRelation.full(U5)

    def test_duality_on_corpus_sample(self):
        for f in formula_corpus(seed=5, count=25, max_depth=4):
            g = desugar(f)
            d = dualize(g)
            for a in assignments_over(("p", "s", "t"), 3):
                assert eval_dual(d, a) == indit(eval_formula(g, a))
                break  # one assignment per formula here; exhaustive run in identities


class TestLoweringAgainstRecursiveReference:
    """desugar, atoms_of and all three evaluators share formula.lower; the
    recursive reference above restates the rules independently of it."""

    @staticmethod
    def corpus():
        fs = formula_corpus(seed=31, count=100, max_depth=5)
        small = formula_corpus(seed=32, count=40, max_depth=3)
        fs += [Nor(x, y) for x, y in zip(small[::2], small[1::2])]
        fs += [Diff(x, Not(y)) for x, y in zip(small[1::2], small[::2])]
        return fs

    def test_lowering_matches_the_recursive_rules(self):
        names = ("p", "s", "t")
        models = list(assignments_over(names, 3))[::40]   # 4 of 125
        rows = [dict(zip(names, bits)) for bits in product((False, True), repeat=3)]
        for f in self.corpus():
            g = reference_desugar(f)
            assert desugar(f) == g
            assert atoms_of(f) == {h.name for h in subformulas(g) if type(h) is Atom}
            for a in models:
                want = reference_eval(g, a)
                assert eval_formula(f, a) == want
                assert eval_dual(dualize(g), a) == indit(want)
            want_tt = all(truth_value(f, env) for env in rows)
            assert is_truth_table_tautology(f) == want_tt


class TestTruthTables:
    def test_tautologies(self):
        assert is_truth_table_tautology(MODUS_PONENS)
        assert is_truth_table_tautology(PEIRCE)
        assert is_truth_table_tautology(ACCUMULATION)

    def test_non_tautology(self):
        assert not is_truth_table_tautology(parse("s /\\ t"))

    def test_the_pi2_route_agrees_on_the_corpora(self):
        for f in formula_corpus(seed=41, count=300, max_depth=4):
            assert is_truth_table_tautology(f) == pi2_tautology(f), f
        assert all(map(pi2_tautology, tautology_corpus(seed=42, count=60)))
        assert not any(map(pi2_tautology, non_tautology_corpus(seed=43, count=60)))


class TestCheck:
    def test_modus_ponens_up_to_four(self):
        r = check_partition_tautology(MODUS_PONENS, 4)
        assert r.verdict == "tautology_up_to" and r.max_n == 4

    def test_peirce_minimal_countermodel_is_canonical(self):
        r = check_partition_tautology(PEIRCE, 3)
        assert r.is_countermodel
        assert r.assignment.universe.size == 3
        assert r.assignment.bindings["p"].blocks == (("u0", "u1", "u2"),)
        assert r.assignment.bindings["s"].blocks == (("u0", "u1"), ("u2",))
        # countermodel re-evaluates to a non-top partition with the witness pair inside
        v = eval_formula(PEIRCE, r.assignment)
        assert v == r.evaluated != top(r.assignment.universe)
        assert v.same_block(*r.witness_pair)

    def test_excluded_middle_weak_yes_strict_no(self):
        lem = parse("s \\/ ~s")
        assert check_weak(lem, 3).verdict == "weak_tautology_up_to"
        strict = check_partition_tautology(lem, 3)
        assert strict.is_countermodel
        assert strict.assignment.universe.size == 3

    def test_accumulation_fails_even_weakly(self):
        r = check_weak(ACCUMULATION, 3)
        assert r.is_countermodel
        assert eval_formula(ACCUMULATION, r.assignment) == bottom(r.assignment.universe)
        # the classic explicit weak countermodel also evaluates to 0
        u = canonical_universe(3)
        a = Assignment(u, {"s": make_partition(u, [["u0", "u1"], ["u2"]]),
                           "p": make_partition(u, [["u0"], ["u1", "u2"]])})
        assert eval_formula(ACCUMULATION, a) == bottom(u)

    def test_weak_check_agrees_with_double_negation(self):
        for f in formula_corpus(seed=23, count=15, max_depth=3,
                                atom_names=("s", "t")):
            weak = check_weak(f, 3).verdict != "countermodel"
            nn = Impl(Impl(f, ZERO), ZERO)
            strict = check_partition_tautology(nn, 3).verdict != "countermodel"
            assert weak == strict

    def test_budget_is_enforced_not_truncated(self):
        with pytest.raises(BudgetExceeded):
            check_partition_tautology(parse("s \\/ t \\/ p"), 4, budget=100)


class TestOmega:
    def test_omega2_shape(self):
        f = omega(2)
        p0, p1, p2 = Atom("p0"), Atom("p1"), Atom("p2")
        assert f == Join(Join(Equiv(p0, p1), Equiv(p0, p2)), Equiv(p1, p2))

    def test_omega2_is_one_on_every_two_element_assignment(self):
        u2 = canonical_universe(2)
        for a in assignments_over(("p0", "p1", "p2"), 2):
            assert eval_formula(omega(2), a) == top(u2)

    def test_omega2_fails_on_the_pigeonhole_model(self):
        a = omega_countermodel(2)
        assert a.universe.size == 3
        assert eval_formula(omega(2), a) == bottom(a.universe)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            omega(7)

    @pytest.mark.parametrize("n", [5, 6])
    def test_desugar_and_atoms_of_the_largest_omegas(self, n):
        f = omega(n)
        g = desugar(f)
        assert type(g) is Join and atoms_of(g) == atoms_of(f)
        assert len(atoms_of(f)) == bell(n) + 1

    def test_omega5_fails_on_the_pigeonhole_model(self):
        a = omega_countermodel(5)
        assert eval_formula(omega(5), a) == bottom(a.universe)


class TestLongFormulas:
    def test_shared_equivalence_chain_is_checked_quickly(self):
        # the parser shares each left operand twice after desugaring, so the
        # desugared tree unfolds to 2^40 nodes; lowering never unfolds it
        f = parse("s" + " <=> s" * 40)
        start = time.perf_counter()
        r = check_partition_tautology(f, 3)
        assert r.is_countermodel and r.evaluated == r.assignment.get("s")
        assert time.perf_counter() - start < 0.5

    def test_join_chain_deeper_than_the_recursion_limit(self):
        f = Atom("s")
        for i in range(3000):
            f = Join(f, Atom("t" if i % 2 else "s"))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(600)
        try:
            assert type(desugar(f)) is Join
            assert atoms_of(f) == {"s", "t"}
            assert check_partition_tautology(f, 2).is_countermodel
        finally:
            sys.setrecursionlimit(saved)


class TestBell:
    @pytest.mark.parametrize("n,value", [(0, 1), (1, 1), (2, 2), (3, 5),
                                         (4, 15), (5, 52), (6, 203)])
    def test_values_match_recurrence_oracle(self, n, value):
        assert bell(n) == value == bell_oracle(n)

    def test_any_request_order_matches_the_oracle(self):
        for n in (30, 7, 31, 0, 64, 63, 12):
            assert bell(n) == bell_oracle(n)

    def test_matches_enumeration_length(self):
        for n in (2, 3, 4, 5):
            assert bell(n) == len(partitions_on(n))


class TestBooleanCore:
    def test_chi_of_example_two(self):
        m = chi(implies(SIGMA, PI), PI)
        assert m == {("a", "b"): 1, ("c", "d", "e"): 0}

    def test_chi_of_p_is_all_zeros_and_top_all_ones(self):
        for p in partitions_on(4):
            ns = non_singleton_blocks(p)
            assert chi(p, p) == {b: 0 for b in ns}
            assert chi(top(p.universe), p) == {b: 1 for b in ns}

    def test_not_pi_regular(self):
        with pytest.raises(NotPiRegular):
            chi(SIGMA, PI)
        assert not is_pi_regular(SIGMA, PI)

    def test_pi_regular_is_the_blockwise_reference(self):
        for n in (2, 3, 4):
            for r, p in product(partitions_on(n), repeat=2):
                assert is_pi_regular(r, p) == reference_is_pi_regular(r, p)
        with pytest.raises(UniverseMismatch):
            is_pi_regular(SIGMA, top(Universe.of("a", "b")))

    def test_core_sizes(self):
        assert len(boolean_core(PI)) == 4          # two non-singleton blocks
        u = Universe.of("a", "b")
        assert boolean_core(top(u)) == [top(u)]    # no non-singleton blocks

    def test_core_cap(self):
        with pytest.raises(TooLarge):
            boolean_core(PI, cap=1)

    def test_core_closed_under_ops_with_chi_homomorphism(self):
        from partlog.core import join as pjoin
        p = make_partition(Universe.of("a", "b", "c", "d"), [["a", "b"], ["c", "d"]])
        els = boolean_core(p)
        for x in els:
            for y in els:
                cx, cy = chi(x, p), chi(y, p)
                assert chi(meet(x, y), p) == {b: cx[b] & cy[b] for b in cx}
                assert chi(pjoin(x, y), p) == {b: cx[b] | cy[b] for b in cx}
                assert chi(implies(x, y), p) == {b: int((not cx[b]) or cy[b]) for b in cx}
                assert chi(implies(x, p), p) == {b: 1 - cx[b] for b in cx}

    def test_block_algebra_counts(self):
        for n in (2, 3, 4):
            u = canonical_universe(n)
            for p in partitions_on(n):
                members = 0
                for r in range(n + 1):
                    for subset in combinations(u.elements, r):
                        members += in_block_algebra(p, set(subset))
                ns = len(non_singleton_blocks(p))
                singletons = p.n_blocks - ns
                assert members == block_algebra_size(p) == 2 ** ns * 2 ** singletons


class TestDerivedConnectivesMatchTheirTables:
    def test_desugared_forms_equal_graph_op(self):
        # pins the direction conventions: Diff(s,t) is "t minus s" (the
        # converse non-implication), Nor is neither, etc.
        from partlog.core import graph_op
        from partlog.formula import Diff, Inequiv, Nor, Not, OpCode, desugar
        from partlog.formula import Atom as FAtom
        cases = [(Diff(FAtom("s"), FAtom("t")), OpCode.CONV_NONIMPL),
                 (Nor(FAtom("s"), FAtom("t")), OpCode.NOR),
                 (Equiv(FAtom("s"), FAtom("t")), OpCode.IFF),
                 (Inequiv(FAtom("s"), FAtom("t")), OpCode.XOR),
                 (Not(FAtom("s")), OpCode.NOT_LEFT)]
        u = canonical_universe(3)
        for f, op in cases:
            g = desugar(f)
            for s in partitions_on(3):
                for t in partitions_on(3):
                    a = Assignment(u, {"s": s, "t": t})
                    assert eval_formula(g, a) == graph_op(op.table, s, t), op


class TestAssignmentJson:
    def test_round_trip(self):
        a = Assignment(U5, {"s": SIGMA, "p": PI})
        obj = assignment_to_json(a)
        b = assignment_from_json(obj)
        assert b.universe == U5 and b.bindings == a.bindings
