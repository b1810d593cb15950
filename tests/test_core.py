"""Partition algebra: canonical forms, the closure space, and the worked examples."""

import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from partlog.core import (
    BoolOpTable, EmptyBlock, MissingElements,
    NotEquivalence, OverlappingBlocks, PairRelation, PartitionLogicError,
    RelationKind, TABLE_AND, TABLE_IMPLIES, TABLE_NAND, TABLE_OR, Universe,
    UniverseMismatch, bottom, chain_bounded_closure, closure, dit, dual_op,
    enumerate_partitions, eq_diff, eq_join, eq_meet, eq_nor, from_equivalence,
    graph_op, implies, indit, interior, join, logical_entropy, make_partition,
    meet, modular_atom, nand, neg, partition_from_json, partition_to_json,
    pi_nand, pi_neg, refines, top,
)

U5 = Universe.of("a", "b", "c", "d", "e")
SIGMA = make_partition(U5, [["a", "b", "c"], ["d", "e"]])
PI = make_partition(U5, [["a", "b"], ["c", "d", "e"]])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_dit_pairs(p):
    """Count distinctions straight from the block map, no relation machinery."""
    return {(a, b) for a in p.universe.elements for b in p.universe.elements
            if a != b and p.block_of(a) != p.block_of(b)}


def slow_closure_matrix(universe, pairs):
    """Fixpoint closure on a set of index pairs; independent of the union-find path."""
    n = universe.size
    m = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    np.fill_diagonal(m, True)
    changed = True
    while changed:
        changed = False
        new = m | m.T | ((m.astype(np.uint8) @ m.astype(np.uint8)) > 0)
        if not np.array_equal(new, m):
            m, changed = new, True
    return m


def interior_route(table, s, t):
    """Result of a table operation by the paper's definition: dit = int(R),
    where R holds the pairs the table sends to T, so the blocks are the
    classes of closure(R^c)."""
    status = np.array([[table.ff, table.ft], [table.tf, table.tt]])
    sd, td = np.array(dit(s).matrix), np.array(dit(t).matrix)
    r = PairRelation(s.universe, status[sd.astype(int), td.astype(int)])
    return from_equivalence(closure(r.complement()))


def bell_oracle(n):
    """Bell numbers by the triangle recurrence, written out independently."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

class TestMakePartition:
    def test_example_sigma_has_two_blocks(self):
        assert SIGMA.n_blocks == 2
        assert SIGMA.blocks == (("a", "b", "c"), ("d", "e"))

    def test_indiscrete_and_discrete(self):
        assert make_partition(U5, [list(U5.elements)]) == bottom(U5)
        assert make_partition(U5, [[e] for e in U5.elements]) == top(U5)

    def test_block_order_is_irrelevant(self):
        assert make_partition(U5, [["d", "e"], ["c", "b", "a"]]) == SIGMA

    def test_errors_name_the_offender(self):
        with pytest.raises(EmptyBlock, match="#1"):
            make_partition(U5, [["a", "b", "c", "d", "e"], []])
        with pytest.raises(OverlappingBlocks, match="'c'"):
            make_partition(U5, [["a", "b", "c"], ["c", "d", "e"]])
        with pytest.raises(MissingElements, match="'e'"):
            make_partition(U5, [["a", "b", "c"], ["d"]])
        with pytest.raises(MissingElements, match="'z'"):
            make_partition(U5, [["a", "b", "c"], ["d", "e", "z"]])

    def test_universe_needs_two_elements(self):
        with pytest.raises(PartitionLogicError):
            Universe.of("a")
        with pytest.raises(PartitionLogicError):
            Universe.of("a", "a", "b")

    def test_partition_rejects_malformed_growth_strings(self):
        from partlog.core import Partition
        with pytest.raises(PartitionLogicError):
            Partition(U5, (0, 2, 1, 0, 0))    # 2 appears before 1
        with pytest.raises(PartitionLogicError):
            Partition(U5, (1, 0, 0, 0, 0))    # must start at 0
        with pytest.raises(PartitionLogicError):
            Partition(U5, (0, 0, 0))          # wrong length

    def test_relation_kind_tags_are_validated(self):
        with pytest.raises(NotEquivalence):
            PairRelation.from_pairs(U5, [("a", "b")], RelationKind.EQUIVALENCE)
        with pytest.raises(PartitionLogicError):
            PairRelation.from_pairs(U5, [("a", "a")],
                                    RelationKind.PARTITION_RELATION)

    def test_json_round_trip(self):
        obj = partition_to_json(SIGMA)
        assert obj == {"universe": ["a", "b", "c", "d", "e"],
                       "blocks": [["a", "b", "c"], ["d", "e"]]}
        assert partition_from_json(obj) == SIGMA

    def test_relation_json_round_trip(self):
        from partlog.core import relation_from_json, relation_to_json
        r = dit(SIGMA)
        obj = relation_to_json(r)
        assert obj["universe"] == ["a", "b", "c", "d", "e"]
        assert obj["pairs"] == sorted(obj["pairs"])
        back = relation_from_json(obj, RelationKind.PARTITION_RELATION)
        assert back == r and back.kind is RelationKind.PARTITION_RELATION


# ---------------------------------------------------------------------------
# dit / indit and the closure space
# ---------------------------------------------------------------------------

class TestDitIndit:
    def test_dit_count_of_sigma(self):
        # 2 * (3*2) ordered cross pairs, per the independent oracle
        oracle = brute_dit_pairs(SIGMA)
        assert len(oracle) == 12
        assert dit(SIGMA).count == 12
        assert set(dit(SIGMA).pairs()) == oracle

    def test_bottom_and_top_dit_sets(self):
        assert dit(bottom(U5)).count == 0
        t = dit(top(U5))
        assert t.count == 5 * 5 - 5
        assert not any(a == b for a, b in t.pairs())

    def test_dit_indit_complementary(self):
        for p in (SIGMA, PI, bottom(U5), top(U5)):
            assert dit(p).union(indit(p)) == PairRelation.full(U5)
            assert dit(p).intersection(indit(p)).count == 0

    def test_kinds(self):
        assert dit(SIGMA).kind is RelationKind.PARTITION_RELATION
        assert indit(SIGMA).kind is RelationKind.EQUIVALENCE


class TestClosureInterior:
    def test_closure_of_empty_is_diagonal(self):
        assert closure(PairRelation.empty(U5)) == PairRelation.diagonal(U5)

    def test_closure_connects_components(self):
        u = Universe.of("a", "b", "c")
        r = PairRelation.from_pairs(u, [("a", "b"), ("b", "c")])
        assert closure(r) == PairRelation.full(u)

    def test_indit_is_a_fixed_point(self):
        assert closure(indit(SIGMA)) == indit(SIGMA)
        assert closure(indit(PI)) == indit(PI)

    def test_closure_matches_slow_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.random((5, 5)) < 0.25
            r = PairRelation(U5, m)
            expect = slow_closure_matrix(U5, zip(*np.nonzero(m)))
            assert np.array_equal(closure(r).matrix, expect)

    def test_interior_of_full_drops_diagonal(self):
        assert interior(PairRelation.full(U5)) == dit(top(U5))

    def test_interior_of_meet_intersection_is_empty(self):
        # sigma and pi share dits, but no chain survives: the meet is 0
        assert interior(dit(SIGMA).intersection(dit(PI))).count == 0

    def test_interior_gives_implication_dit_set(self):
        # only the pi-block {a,b} sits inside a sigma-block, so it discretizes
        expect = make_partition(U5, [["a"], ["b"], ["c", "d", "e"]])
        got = interior(dit(SIGMA).complement().union(dit(PI)))
        assert got == dit(expect)

    def test_interior_fixes_dit_sets(self):
        for p in enumerate_partitions(Universe.of("a", "b", "c", "d")):
            assert interior(dit(p)) == dit(p)

    @given(st.integers(0, 2 ** 25 - 1), st.integers(0, 2 ** 25 - 1))
    @settings(max_examples=150, deadline=None)
    def test_interior_lemma_and_monotone_idempotent(self, abits, bbits):
        # int(A & B) = int(int(A) & int(B)) for arbitrary A, B in U x U
        a = np.array([(abits >> k) & 1 for k in range(25)], dtype=bool).reshape(5, 5)
        b = np.array([(bbits >> k) & 1 for k in range(25)], dtype=bool).reshape(5, 5)
        ra, rb = PairRelation(U5, a), PairRelation(U5, b)
        lhs = interior(ra.intersection(rb))
        rhs = interior(interior(ra).intersection(interior(rb)))
        assert lhs == rhs
        assert interior(ra).is_subset_of(ra)
        assert interior(interior(ra)) == interior(ra)


class TestFromEquivalence:
    def test_diagonal_gives_top(self):
        assert from_equivalence(PairRelation.diagonal(U5)) == top(U5)

    def test_full_gives_bottom(self):
        assert from_equivalence(PairRelation.full(U5)) == bottom(U5)

    def test_generated_equivalence(self):
        u = Universe.of("a", "b", "c")
        r = closure(PairRelation.from_pairs(u, [("a", "b")]))
        assert from_equivalence(r) == make_partition(u, [["a", "b"], ["c"]])

    def test_round_trip_with_indit(self):
        for p in enumerate_partitions(Universe.of("a", "b", "c", "d")):
            assert from_equivalence(indit(p)) == p

    def test_rejects_non_equivalence_kind(self):
        with pytest.raises(NotEquivalence):
            from_equivalence(PairRelation.empty(U5))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

class TestRefines:
    def test_bottom_refined_by_all_and_all_by_top(self):
        for p in enumerate_partitions(Universe.of("a", "b", "c", "d")):
            assert refines(bottom(p.universe), p)
            assert refines(p, top(p.universe))

    def test_blockwise_example(self):
        finer = make_partition(U5, [["a", "b"], ["c"], ["d", "e"]])
        assert refines(SIGMA, finer)
        assert not refines(finer, SIGMA)

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            refines(SIGMA, top(Universe.of("x", "y")))


# ---------------------------------------------------------------------------
# join / meet / implies / nand: the worked examples
# ---------------------------------------------------------------------------

class TestPrimitiveOps:
    def test_join_blocks_are_nonempty_intersections(self):
        got = join(SIGMA, PI)
        assert got == make_partition(U5, [["a", "b"], ["c"], ["d", "e"]])
        # oracle: pairwise block intersections
        blocks = [set(b) & set(c) for b in SIGMA.blocks for c in PI.blocks]
        blocks = [b for b in blocks if b]
        assert got == make_partition(U5, blocks)

    def test_join_dit_set_is_union(self):
        u4 = Universe.of("a", "b", "c", "d")
        parts = list(enumerate_partitions(u4))
        for s in parts:
            for p in parts:
                assert dit(join(s, p)) == dit(s).union(dit(p))

    def test_meet_example_is_blob(self):
        assert meet(SIGMA, PI) == bottom(U5)

    def test_implication_example(self):
        assert implies(SIGMA, PI) == make_partition(U5, [["a"], ["b"], ["c", "d", "e"]])

    def test_nand_example(self):
        assert nand(SIGMA, PI) == make_partition(U5, [["a", "b", "d", "e"], ["c"]])

    def test_names_example(self):
        people = Universe.of("Tom", "John", "Jim")
        alpha = make_partition(people, [["Tom"], ["John", "Jim"]])
        omega = make_partition(people, [["Tom", "Jim"], ["John"]])
        assert meet(alpha, omega) == bottom(people)
        assert nand(alpha, omega) == make_partition(people, [["Tom", "John"], ["Jim"]])

    def test_implication_top_when_refined(self):
        u4 = Universe.of("a", "b", "c", "d")
        parts = list(enumerate_partitions(u4))
        for s in parts:
            for p in parts:
                assert (implies(s, p) == top(u4)) == refines(s, p)


class TestGraphOp:
    def test_primitive_tables_match_named_ops(self):
        assert graph_op(TABLE_AND, SIGMA, PI) == meet(SIGMA, PI) == bottom(U5)
        assert graph_op(TABLE_IMPLIES, SIGMA, PI) == implies(SIGMA, PI)
        assert graph_op(TABLE_OR, SIGMA, PI) == join(SIGMA, PI)
        assert graph_op(TABLE_NAND, SIGMA, PI) == nand(SIGMA, PI)

    def test_constant_true_table_gives_top(self):
        const_t = BoolOpTable(True, True, True, True)
        assert graph_op(const_t, SIGMA, PI) == top(U5)

    def test_all_tables_all_pairs_small(self):
        u = Universe.of("a", "b", "c")
        parts = list(enumerate_partitions(u))
        for v in range(16):
            table = BoolOpTable.from_value(v)
            for s in parts:
                for t in parts:
                    assert graph_op(table, s, t) == interior_route(table, s, t), v

    def test_all_tables_sampled_pairs_larger(self):
        rng = random.Random(11)
        for n in range(5, 9):
            parts = list(enumerate_partitions(Universe(tuple("abcdefgh"[:n]))))
            for _ in range(25):
                s, t = rng.choice(parts), rng.choice(parts)
                for v in range(16):
                    table = BoolOpTable.from_value(v)
                    assert graph_op(table, s, t) == interior_route(table, s, t), v


class TestNegations:
    def test_neg_of_bottom_is_top(self):
        assert neg(bottom(U5)) == top(U5)

    def test_neg_of_anything_else_is_bottom(self):
        for p in enumerate_partitions(Universe.of("a", "b", "c", "d")):
            if not p.is_bottom():
                assert neg(p) == bottom(p.universe)

    def test_pi_neg_is_implication(self):
        assert pi_neg(SIGMA, PI) == implies(SIGMA, PI)

    def test_pi_nand_at_blob_reduces_to_nand(self):
        assert pi_nand(SIGMA, PI, bottom(U5)) == nand(SIGMA, PI)
        u4 = Universe.of("a", "b", "c", "d")
        parts = list(enumerate_partitions(u4))
        for s in parts[::3]:
            for t in parts[::3]:
                assert pi_nand(s, t, bottom(u4)) == nand(s, t)


# ---------------------------------------------------------------------------
# dual algebra of equivalence relations
# ---------------------------------------------------------------------------

class TestDualAlgebra:
    def test_eq_meet_is_indit_of_join(self):
        assert eq_meet(indit(PI), indit(SIGMA)) == indit(join(PI, SIGMA))

    def test_eq_join_idempotent_at_bottom(self):
        d = PairRelation.diagonal(U5)
        assert eq_join(d, d) == d

    def test_eq_diff_matches_implication_dual(self):
        # both sides computed independently for the Example-1 data
        lhs = eq_diff(indit(PI), indit(SIGMA))
        rhs = indit(implies(SIGMA, PI))
        assert lhs == rhs == indit(make_partition(U5, [["a"], ["b"], ["c", "d", "e"]]))

    def test_eq_nor_is_indit_of_nand(self):
        assert eq_nor(indit(SIGMA), indit(PI)) == indit(nand(SIGMA, PI))

    def test_dual_op_dispatch_and_kinds(self):
        r = dual_op("join", indit(SIGMA), indit(PI))
        assert r.kind is RelationKind.EQUIVALENCE
        assert r == indit(meet(SIGMA, PI))
        with pytest.raises(ValueError):
            dual_op("xor", indit(SIGMA), indit(PI))

    def test_dual_ops_reject_non_equivalences(self):
        with pytest.raises(NotEquivalence):
            eq_meet(dit(SIGMA), indit(PI))


# ---------------------------------------------------------------------------
# entropy, enumeration, atoms
# ---------------------------------------------------------------------------

class TestEntropyEnumeration:
    def test_entropy_examples(self):
        assert logical_entropy(bottom(U5)) == 0
        u2 = Universe.of("a", "b")
        assert logical_entropy(top(u2)) == Fraction(1, 2)
        assert logical_entropy(SIGMA) == Fraction(12, 25)
        assert logical_entropy(SIGMA) == Fraction(len(brute_dit_pairs(SIGMA)), 25)

    def test_entropy_from_block_sizes_matches_dit_count(self):
        for n in range(2, 6):
            u = Universe(tuple("e%d" % k for k in range(n)))
            for p in enumerate_partitions(u):
                assert logical_entropy(p) == Fraction(dit(p).count, n * n)

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 5), (4, 15), (5, 52)])
    def test_enumeration_counts_are_bell_numbers(self, n, count):
        u = Universe(tuple("u%d" % i for i in range(n)))
        parts = list(enumerate_partitions(u))
        assert len(parts) == count == bell_oracle(n)
        assert len(set(parts)) == count

    def test_enumeration_is_rgs_lexicographic(self):
        u = Universe.of("x", "y", "z")
        got = [p.rgs for p in enumerate_partitions(u)]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        five = [p.rgs for p in enumerate_partitions(Universe(tuple("abcde")))]
        assert five == sorted(five)

    def test_common_dits_theorem_small(self):
        u4 = Universe.of("a", "b", "c", "d")
        parts = [p for p in enumerate_partitions(u4) if not p.is_bottom()]
        for s in parts:
            for p in parts:
                assert dit(s).intersection(dit(p)).count > 0

    def test_nand_of_distinct_modular_atoms_is_coatom(self):
        for labels in (("a", "b", "c"), ("a", "b", "c", "d"), ("a", "b", "c", "d", "e")):
            u = Universe(labels)
            for x in labels:
                for y in labels:
                    if x == y:
                        continue
                    got = nand(modular_atom(u, x), modular_atom(u, y))
                    coatom = make_partition(
                        u, [[x, y]] + [[z] for z in labels if z not in (x, y)])
                    assert got == coatom


# ---------------------------------------------------------------------------
# chain-length lemmas
# ---------------------------------------------------------------------------

class TestChainBounds:
    def test_implication_needs_two_links(self):
        u4 = Universe.of("a", "b", "c", "d")
        parts = list(enumerate_partitions(u4))
        for s in parts:
            for p in parts:
                arcs = dit(s).intersection(indit(p))
                assert chain_bounded_closure(arcs, 2) == closure(arcs)

    def test_nand_needs_four_links_and_four_are_required(self):
        # the pentagon example: a 4-link chain with no shortcut
        u = Universe.of("u", "a", "b", "c", "v")
        s = make_partition(u, [["u", "v", "b"], ["a", "c"]])
        t = make_partition(u, [["u", "c"], ["v", "a"], ["b"]])
        arcs = dit(s).intersection(dit(t))
        assert chain_bounded_closure(arcs, 4) == closure(arcs)
        assert chain_bounded_closure(arcs, 3) != closure(arcs)
        assert nand(s, t) == bottom(u)


def partitions(n=4):
    """Hypothesis strategy: a partition on the canonical n-element universe."""
    u = Universe(tuple("u%d" % i for i in range(n)))
    all_parts = list(enumerate_partitions(u))
    return st.sampled_from(all_parts)


class TestLatticeLaws:
    @given(partitions(), partitions())
    @settings(max_examples=120, deadline=None)
    def test_join_meet_commute(self, s, p):
        assert join(s, p) == join(p, s)
        assert meet(s, p) == meet(p, s)

    @given(partitions(), partitions(), partitions())
    @settings(max_examples=120, deadline=None)
    def test_associativity(self, s, p, q):
        assert join(join(s, p), q) == join(s, join(p, q))
        assert meet(meet(s, p), q) == meet(s, meet(p, q))

    @given(partitions(), partitions())
    @settings(max_examples=120, deadline=None)
    def test_absorption_and_order(self, s, p):
        assert join(s, meet(s, p)) == s
        assert meet(s, join(s, p)) == s
        assert refines(meet(s, p), s) and refines(s, join(s, p))

    @given(partitions(4), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_block_listing_order_never_matters(self, p, rnd):
        blocks = [list(b) for b in p.blocks]
        rnd.shuffle(blocks)
        for b in blocks:
            rnd.shuffle(b)
        assert make_partition(p.universe, blocks) == p


class TestImmutability:
    def test_relation_matrix_is_read_only(self):
        r = dit(SIGMA)
        with pytest.raises(TypeError):
            r.matrix[0][0] = True
        with pytest.raises(AttributeError):
            r.rows = (0,) * 5
        with pytest.raises(AttributeError):
            r.kind = RelationKind.ARBITRARY
