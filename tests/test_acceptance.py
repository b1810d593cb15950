"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (run with -s to see them); the
stated wall-clock limits are asserted where a criterion carries one.
"""

import time
from itertools import product

from partlog.core import (
    Universe, bottom, dit, implies, indit, make_partition, meet, nand, top,
)
from partlog.corpus import formula_corpus
from partlog.formula import desugar, dualize, parse
from partlog.identities import SuiteContext, run_suite
from partlog.semantics import (
    Assignment, assignments_over, canonical_universe, check_partition_tautology,
    check_weak, eval_dual, eval_formula, omega, omega_countermodel,
    partitions_on,
)
from partlog.tableau import prove, verify_outcome


class _Timer:
    def __init__(self, name, limit=None):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print("ACCEPTANCE %-38s PASS (%.2fs)" % (self.name, elapsed))
            if self.limit is not None:
                assert elapsed < self.limit, \
                    "%s exceeded its %.0fs budget (%.1fs)" % (self.name, self.limit, elapsed)
        else:
            print("ACCEPTANCE %-38s FAIL" % self.name)


def _run_entries(names, max_n, seed=0):
    results = run_suite(SuiteContext(max_n=max_n, seed=seed), names)
    assert {r.name for r in results} == set(names)
    for r in results:
        assert r.ok, "%s: %s" % (r.name, r.detail)
    return sum(r.checks for r in results)


def test_c01_worked_example_goldens():
    with _Timer("1 worked-example goldens", limit=1.0):
        u = Universe.of("a", "b", "c", "d", "e")
        sigma = make_partition(u, [["a", "b", "c"], ["d", "e"]])
        pi = make_partition(u, [["a", "b"], ["c", "d", "e"]])
        assert meet(sigma, pi) == bottom(u)
        assert implies(sigma, pi) == make_partition(u, [["a"], ["b"], ["c", "d", "e"]])
        assert nand(sigma, pi) == make_partition(u, [["a", "b", "d", "e"], ["c"]])
        people = Universe.of("Tom", "John", "Jim")
        alpha = make_partition(people, [["Tom"], ["John", "Jim"]])
        omega_p = make_partition(people, [["Tom", "Jim"], ["John"]])
        assert meet(alpha, omega_p) == bottom(people)
        assert nand(alpha, omega_p) == make_partition(people, [["Tom", "John"], ["Jim"]])


def test_c02_cnf_and_dnf_table_equivalence():
    with _Timer("2 CNF/DNF table equivalence", limit=10.0):
        checks = _run_entries(["formula/cnf-table-equivalence",
                               "formula/dnf-dual-table-equivalence"], max_n=4)
        assert checks == 4274


def test_c03_common_dits_exhaustive_on_five():
    with _Timer("3 common-dits theorem |U|=5", limit=5.0):
        ds = [dit(p) for p in partitions_on(5) if not p.is_bottom()]
        assert len(ds) == 51
        import numpy as np
        for a in ds:
            for b in ds:
                assert np.any(np.array(a.matrix) & np.array(b.matrix))


def test_c04_implication_equivalence_and_adjunction():
    with _Timer("4 Prop 1 + adjunction |U|<=4"):
        checks = _run_entries(["core/implication-two-routes",
                               "core/implication-adjunction"], max_n=4)
        assert checks == 3762


def test_c05_chain_length_lemmas():
    with _Timer("5 chain-length caps |U|<=5"):
        checks = _run_entries(["core/chain-length-bounds"], max_n=5)
        assert checks == 5916


def test_c06_duality_on_200_seeded_formulas():
    with _Timer("6 duality, 200 formulas at |U|=3", limit=60.0):
        u = canonical_universe(3)
        triples = list(product(partitions_on(3), repeat=3))
        for f in formula_corpus(seed=2024, count=200, max_depth=4):
            g = desugar(f)
            d = dualize(g)
            for combo in triples:
                a = Assignment(u, dict(zip(("p", "s", "t"), combo)))
                assert eval_dual(d, a) == indit(eval_formula(g, a))


def test_c07_tautology_classifications():
    with _Timer("7 tautology classifications"):
        tautologies = ["(s /\\ (s => p)) => p",
                       "~s \\/ ~~s",
                       "(s /\\ (s => p)) => (s /\\ p)",
                       "(s | t) | (s /\\ t)"]
        for text in tautologies:
            f = parse(text)
            assert not check_partition_tautology(f, 4).is_countermodel, text
            assert prove(f).verdict == "proved", text
        refuted = ["((s => p) => s) => s",
                   "s => (p => (s /\\ p))",
                   "((p \\/ s) /\\ (p \\/ t)) => (p \\/ (s /\\ t))"]
        for text in refuted:
            r = check_partition_tautology(parse(text), 3)
            assert r.is_countermodel and r.assignment.universe.size <= 3, text
        lem = parse("s \\/ ~s")
        assert not check_weak(lem, 3).is_countermodel
        assert check_partition_tautology(lem, 3).is_countermodel
        assert check_weak(parse("s => (p => (s /\\ p))"), 3).is_countermodel


def test_c08_omega_two():
    with _Timer("8 omega_2 pigeonhole behaviour"):
        f = omega(2)
        u2 = canonical_universe(2)
        count = 0
        for a in assignments_over(("p0", "p1", "p2"), 2):
            assert eval_formula(f, a) == top(u2)
            count += 1
        assert count == 8
        a = omega_countermodel(2)
        assert a.universe.size == 3
        assert eval_formula(f, a) == bottom(a.universe)


def test_c09_tableau_countermodels_self_verify():
    with _Timer("9 tableau countermodels verify"):
        for text in ["((s => p) => s) => s",
                     "s => ((s => p) => (s /\\ p))",
                     "s => (p => (s /\\ p))",
                     "s \\/ ~s"]:
            f = parse(text)
            out = prove(f)
            assert out.verdict == "countermodel", text
            assert verify_outcome(f, out), text
        peirce = prove(parse("((s => p) => s) => s"))
        s, p = peirce.assignment.bindings["s"], peirce.assignment.bindings["p"]
        # the canonical refutation up to element renaming: sigma keeps the
        # root pair together and isolates the third element, pi is the blob
        assert p.is_bottom()
        assert sorted(len(b) for b in s.blocks) == [1, 2]
        assert s.same_block("u0", "u1")


def test_c10_devils_tableau_finite_model():
    with _Timer("10 Devil's-tableau finite model"):
        u = Universe.of("0", "1", "2", "3", "4")
        sigma = make_partition(u, [["0", "2", "4"], ["1"], ["3"]])
        tau = make_partition(u, [["0"], ["1", "2"], ["3", "4"]])
        assert meet(sigma, tau) == bottom(u)
        assert nand(sigma, tau) == bottom(u)


def test_c11_transform_propositions():
    with _Timer("11 transform propositions"):
        checks = _run_entries(["semantics/transform-propositions"], max_n=4)
        assert checks == 50 * 3 + 20


def test_c12_section_116_identity_suite():
    with _Timer("12 Ore/Lawvere/co-Leibniz/decompositions", limit=60.0):
        checks = _run_entries(["semantics/ore-distributivity",
                               "semantics/dual-ore",
                               "semantics/lawvere-boundary-core",
                               "semantics/co-leibniz",
                               "semantics/cnf-decomposition",
                               "semantics/dnf-decomposition"], max_n=5)
        assert checks == 32079


def test_c13_boolean_core():
    with _Timer("13 Boolean core on |U|=4"):
        checks = _run_entries(["semantics/boolean-core-homomorphisms",
                               "semantics/block-algebra-cardinality"], max_n=4)
        assert checks == 301


def test_c14_reduction_principle():
    with _Timer("14 reduction principle"):
        checks = _run_entries(["semantics/reduction-principle"], max_n=4)
        assert checks == 16
