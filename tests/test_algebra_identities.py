"""Further algebraic identities of the partition algebra, checked exhaustively.

These pin the behaviour of negation against the nand, the adjunction failure,
the join characterization of the implication, the structure of the Boolean
core, and the handful of unary operations.
"""

from itertools import combinations

import pytest

from partlog.core import (
    PairRelation, Universe, bottom, closure, dit, enumerate_partitions,
    implies, indit, join, make_partition, meet, nand, neg, pi_nand, pi_neg,
    refines, top,
)
from partlog.semantics import (
    boolean_core, canonical_universe, in_block_algebra, partitions_on,
)

U4 = canonical_universe(4)
PARTS4 = partitions_on(4)


class TestNandNegationLaws:
    def test_self_nand_is_negation(self):
        for s in PARTS4:
            assert nand(s, s) == neg(s)

    def test_nand_with_a_refinement_is_negation(self):
        for s in PARTS4:
            for t in PARTS4:
                if refines(s, t):
                    assert nand(s, t) == neg(s)

    def test_nand_with_any_implication_to_self(self):
        for s in PARTS4:
            for t in PARTS4:
                assert nand(s, implies(t, s)) == neg(s)

    def test_nand_meets_implication_to_negation(self):
        for s in PARTS4:
            for t in PARTS4:
                assert meet(nand(s, t), implies(s, t)) == neg(s)

    def test_xor_defines_nand(self):
        for s in PARTS4:
            for t in PARTS4:
                x = meet(join(s, t), nand(s, t))   # symmetric difference
                assert implies(join(s, t), x) == nand(s, t)

    def test_if_union_of_indits_is_everything_one_is_the_blob(self):
        full = PairRelation.full(U4)
        for s in PARTS4:
            for t in PARTS4:
                if indit(s).union(indit(t)) == full:
                    assert s.is_bottom() or t.is_bottom()


class TestPiNegationLaws:
    def test_non_contradiction_for_pi_negation(self):
        for s in PARTS4:
            for p in PARTS4:
                assert pi_neg(meet(s, pi_neg(s, p)), p) == top(U4)

    def test_triple_pi_negation_collapses_to_single(self):
        for s in PARTS4:
            for p in PARTS4:
                single = pi_neg(s, p)
                assert pi_neg(pi_neg(single, p), p) == single

    def test_coboundary_is_pi_dense(self):
        for s in PARTS4:
            for p in PARTS4:
                boundary = join(s, pi_neg(s, p))
                assert pi_neg(pi_neg(boundary, p), p) == top(U4)

    def test_negation_pair_meets_to_pi_and_double_negation_coarsens(self):
        for s in PARTS4:
            for p in PARTS4:
                nn = pi_neg(pi_neg(s, p), p)
                assert meet(pi_neg(s, p), nn) == p
                assert refines(s, nn)
                assert join(s, nn) == nn

    def test_pi_orthogonality_lemma(self):
        for p in PARTS4:
            above = [f for f in PARTS4 if refines(p, f)]
            for f in above:
                for g in above:
                    lhs = join(pi_neg(f, p), pi_neg(g, p)) == top(U4)
                    rhs = pi_nand(f, g, p) == top(U4)
                    assert lhs == rhs


class TestImplicationCharacterizations:
    def test_adjunction_failure_example(self):
        u = Universe.of("a", "b", "c")
        tau = make_partition(u, [["a", "b"], ["c"]])
        sigma = make_partition(u, [["a", "c"], ["b"]])
        pi = make_partition(u, [["a"], ["b", "c"]])
        assert meet(tau, sigma) == bottom(u)           # bottom of adjunction holds
        assert implies(sigma, pi) == pi
        assert not refines(tau, implies(sigma, pi))    # top of adjunction fails

    def test_implication_is_join_of_compatible_partitions(self):
        for n in (2, 3, 4):
            parts = partitions_on(n)
            for s in parts:
                ds = dit(s)
                for p in parts:
                    dp = dit(p)
                    acc = bottom(canonical_universe(n))
                    for t in parts:
                        if dit(t).intersection(ds).is_subset_of(dp):
                            acc = join(acc, t)
                    assert acc == implies(s, p)

    def test_closure_form_of_the_interior_lemma(self):
        import numpy as np
        rng = np.random.default_rng(3)
        u = canonical_universe(5)
        for _ in range(100):
            a = PairRelation(u, rng.random((5, 5)) < 0.3)
            b = PairRelation(u, rng.random((5, 5)) < 0.3)
            assert closure(a.union(b)) == closure(closure(a).union(closure(b)))


class TestLatticeGeometry:
    def test_atoms_are_exactly_the_binary_partitions(self):
        z = bottom(U4)
        for p in PARTS4:
            covers_bottom = p != z and all(
                q in (z, p) for q in PARTS4
                if refines(z, q) and refines(q, p))
            assert covers_bottom == (p.n_blocks == 2)

    def test_coatoms_merge_exactly_one_pair(self):
        t = top(U4)
        for p in PARTS4:
            covered_by_top = p != t and all(
                q in (t, p) for q in PARTS4
                if refines(p, q) and refines(q, t))
            block_sizes = sorted(len(b) for b in p.blocks)
            assert covered_by_top == (block_sizes == [1, 1, 2])

    def test_exactly_six_unary_operations(self):
        for n in (3, 4):
            parts = partitions_on(n)
            ops = {
                "zero": tuple(bottom(canonical_universe(n)) for _ in parts),
                "one": tuple(top(canonical_universe(n)) for _ in parts),
                "id": tuple(parts),
                "neg": tuple(neg(s) for s in parts),
                "negneg": tuple(neg(neg(s)) for s in parts),
                "excluded-middle": tuple(join(s, neg(s)) for s in parts),
            }
            assert len(set(ops.values())) == 6

    def test_excluded_middle_equals_double_negation_implies_self(self):
        for s in PARTS4:
            assert join(s, neg(s)) == implies(neg(neg(s)), s)


class TestBooleanCoreStructure:
    def test_core_is_exactly_the_implication_range(self):
        for p in PARTS4:
            by_construction = set(boolean_core(p))
            by_range = {implies(s, p) for s in PARTS4}
            assert by_construction == by_range

    def test_block_algebra_of_meet_is_intersection(self):
        subsets = [set(c) for r in range(5)
                   for c in combinations(U4.elements, r)]
        for s in PARTS4:
            for p in PARTS4:
                m = meet(s, p)
                for subset in subsets:
                    assert in_block_algebra(m, subset) == (
                        in_block_algebra(s, subset) and in_block_algebra(p, subset))


class TestEnumerationGeometry:
    @pytest.mark.parametrize("n", [3, 4])
    def test_refinement_is_a_partial_order(self, n):
        parts = partitions_on(n)
        for a in parts:
            assert refines(a, a)
            for b in parts:
                if refines(a, b) and refines(b, a):
                    assert a == b
