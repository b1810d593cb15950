"""The identity suite's law driver, and the teeth of every law entry."""

import random
from itertools import product

import pytest

import partlog.identities as identities
from partlog.core import graph_op, implies, join, meet, nand
from partlog.identities import SuiteContext, _law, run_suite
from partlog.relation import chain_bounded_closure, indit
from partlog.semantics import partitions_on

# the entries registered with _law, in suite order
LAWS = [
    "core/open-closed-fixpoints", "core/join-dits-are-union",
    "core/implication-two-routes", "core/implication-adjunction",
    "core/chain-length-bounds", "core/orthogonality",
    "core/refinement-sandwich", "core/weak-demorgan",
    "core/graph-op-two-routes", "core/dual-algebra-dualities",
    "formula/cnf-table-equivalence", "formula/dnf-dual-table-equivalence",
    "semantics/lawvere-boundary-core", "semantics/co-leibniz",
    "semantics/cnf-decomposition", "semantics/dnf-decomposition",
    "semantics/boolean-core-homomorphisms",
    "semantics/block-algebra-cardinality",
    "semantics/pi-nand-reduces-to-nand",
]


@pytest.fixture()
def registry(monkeypatch):
    """A fresh, empty entry list for _law to register into."""
    monkeypatch.setattr(identities, "_ENTRIES", [])


def _drawn(seed, count, arity):
    rng = random.Random(seed)
    parts = partitions_on(5)
    return [tuple(parts[rng.randrange(len(parts))] for _ in range(arity))
            for _ in range(count)]


class TestLawDriver:
    @pytest.mark.parametrize("max_n", [2, 3, 4, 5])
    def test_every_tuple_in_product_order_then_the_draws(self, registry, max_n):
        seen = []
        _law("t/pairs", 2, hi=3, sample=(4, 7, 1))(lambda *ps: seen.append(ps))
        [result] = run_suite(SuiteContext(max_n=max_n, seed=10))
        want = [ps for n in range(2, min(3, max_n) + 1)
                for ps in product(partitions_on(n), repeat=2)]
        if max_n >= 5:
            want += _drawn(14, 7, 1)
        assert seen == want
        assert (result.name, result.ok, result.checks) == ("t/pairs", True, len(want))

    @pytest.mark.parametrize("max_n, n", [(2, 2), (3, 3), (4, 4), (5, 4)])
    def test_one_size_runs_only_the_largest(self, registry, max_n, n):
        seen = []
        _law("t/one", 1, one_size=True)(lambda p: seen.append(p))
        run_suite(SuiteContext(max_n=max_n))
        assert seen == list(partitions_on(n))

    def test_hi_none_runs_every_size(self, registry):
        seen = []
        _law("t/all", 1, hi=None)(lambda p: seen.append(p.universe.size))
        run_suite(SuiteContext(max_n=5))
        assert seen == [n for n in range(2, 6) for _ in partitions_on(n)]

    def test_a_law_counts_its_returns_and_none_as_one(self, registry):
        _law("t/none", 1)(lambda p: None)
        _law("t/three", 1)(lambda p: 3)
        none, three = run_suite(SuiteContext(max_n=3))
        assert (none.checks, three.checks) == (2 + 5, 3 * (2 + 5))

    def test_a_failed_assertion_fails_the_entry(self, registry):
        def law(p):
            if p.n_blocks == 3:
                raise AssertionError("three blocks")
        _law("t/fails", 1)(law)
        _law("t/holds", 1, hi=2)(law)
        failed, held = run_suite(SuiteContext(max_n=3))
        assert (failed.ok, failed.checks, failed.detail) == (False, 0, "three blocks")
        assert (held.ok, held.checks) == (True, 2)


# Each sabotage swaps a name the laws look up in partlog.identities for a
# wrong operation; every law must fail under at least one of them.
SABOTAGES = {
    "join": meet,
    "meet": join,
    "nand": implies,
    "pi_neg": join,
    "dit": indit,
    "graph_op": lambda table, s, t: graph_op(table, t, s),
    "chain_bounded_closure": lambda r, k: chain_bounded_closure(r, 1),
    "in_block_algebra": lambda p, subset: True,
}


def test_every_law_fails_under_some_sabotage(monkeypatch):
    ctx = SuiteContext(max_n=3)
    assert all(r.ok for r in run_suite(ctx, LAWS))
    caught = set()
    for name, wrong in SABOTAGES.items():
        with monkeypatch.context() as m:
            m.setattr(identities, name, wrong)
            caught |= {r.name for r in run_suite(ctx, LAWS) if not r.ok}
    assert caught == set(LAWS)
