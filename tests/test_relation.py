"""The relation route: stdlib only, importable from every home, and equal to
numpy on every operation.

PairRelation keeps a relation as row bitmasks.  The numpy predicates and
matrix products below are the independent reference it is checked against;
numpy is a test dependency only."""

import ast
import copy
import glob
import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import partlog
import partlog.core
import partlog.relation
from partlog.core import PartitionLogicError, Universe, enumerate_partitions
from partlog.relation import (
    PairRelation, RelationKind, chain_bounded_closure, closure, dit,
    from_equivalence, indit,
)
from test_core import slow_closure_matrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_partlog_imports_only_the_standard_library():
    # production never loads numpy, or anything else outside the stdlib
    paths = sorted(glob.glob(os.path.join(SRC, "partlog", "*.py")))
    assert len(paths) >= 10
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path, name)


def test_moved_names_resolve_to_the_relation_module():
    for name in partlog._EXPORTS["relation"]:
        obj = getattr(partlog.relation, name)
        assert getattr(partlog.core, name) is obj
        assert getattr(partlog, name) is obj
    from partlog.core import PairRelation, dit, dual_op     # noqa: F401
    from partlog import closure, indit                      # noqa: F401


@pytest.mark.parametrize("module", [partlog, partlog.core])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError):
        module.no_such_name


U3 = Universe.of("a", "b", "c")


@pytest.mark.parametrize("matrix", [
    [[1, 0], [0, 1, 0], [0, 0, 1]],                 # ragged
    [[1, 0, 0], [0, 1, 0]],                         # a row missing
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],   # a row too many
    [1, 0, 0],                                      # not nested
])
def test_a_matrix_of_the_wrong_shape_is_rejected(matrix):
    with pytest.raises(PartitionLogicError, match="relation matrix must be 3x3"):
        PairRelation(U3, matrix)


def test_zero_links_give_the_diagonal_and_negative_links_raise():
    arcs = PairRelation.from_pairs(U3, [("a", "b")])
    assert chain_bounded_closure(arcs, 0) == PairRelation.diagonal(U3)
    assert chain_bounded_closure(arcs, 1) == closure(arcs)
    with pytest.raises(ValueError):
        chain_bounded_closure(arcs, -3)


U2 = Universe.of("a", "b")


@pytest.mark.parametrize("relation", [
    PairRelation.from_pairs(U2, [("a", "b")]),
    indit(partlog.core.top(U2)),
    dit(partlog.core.top(U2)),
], ids=lambda r: r.kind.value)
@pytest.mark.parametrize("copier", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(relation, copier):
    again = copier(relation)
    assert again == relation
    assert again.kind is relation.kind
    assert hash(again) == hash(relation)


def test_unpickling_revalidates_the_kind():
    # the kind is checked again on the way in, as in the constructor;
    # protocol 2 writes the kind's value as "X", a 4-byte length and the text
    forged = pickle.dumps(PairRelation.from_pairs(U2, [("a", "b")]), 2).replace(
        b"X\x09\x00\x00\x00arbitrary", b"X\x0b\x00\x00\x00equivalence")
    with pytest.raises(partlog.core.NotEquivalence):
        pickle.loads(forged)


# ---------------------------------------------------------------------------
# differential: row bitmasks against numpy
# ---------------------------------------------------------------------------

def _is_symmetric(m):
    return bool(np.array_equal(m, m.T))


def _is_transitive(m):
    step = (m.astype(np.uint8) @ m.astype(np.uint8)) > 0
    return bool(np.all(~step | m))


def _is_equivalence(m):
    return bool(np.all(np.diag(m))) and _is_symmetric(m) and _is_transitive(m)


def _is_partition_relation(m):
    return not np.any(np.diag(m)) and _is_symmetric(m) and _is_transitive(~m)


def _universe(n):
    return Universe(tuple("u%d" % i for i in range(n)))


@st.composite
def _matrix(draw, n):
    """A random n x n bool matrix, or an equivalence (or its complement)
    with at most one bit flipped, so that both kinds are hit and missed."""
    shape = draw(st.sampled_from(["random", "equivalence", "complement"]))
    if shape == "random":
        bits = draw(st.integers(0, 2 ** (n * n) - 1))
        return np.array([bits >> k & 1 for k in range(n * n)], dtype=bool).reshape(n, n)
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    m = labels[:, None] == labels[None, :]
    if shape == "complement":
        m = ~m
    if draw(st.booleans()):
        flip = draw(st.integers(0, n * n - 1))
        m[flip // n, flip % n] ^= True
    return m


@st.composite
def _two_matrices(draw):
    n = draw(st.integers(2, 6))
    return _universe(n), draw(_matrix(n)), draw(_matrix(n))


@given(_two_matrices())
@settings(max_examples=300, deadline=None)
def test_boolean_structure_agrees_with_numpy(case):
    u, m1, m2 = case
    r1, r2 = PairRelation(u, m1), PairRelation(u, m2)
    els = u.elements
    assert np.array_equal(np.array(r1.matrix), m1)
    assert r1.count == int(m1.sum())
    assert r1.pairs() == [(els[i], els[j]) for i, j in zip(*np.nonzero(m1))]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            assert r1.holds(a, b) == bool(m1[i, j])
    assert np.array_equal(np.array(r1.union(r2).matrix), m1 | m2)
    assert np.array_equal(np.array(r1.intersection(r2).matrix), m1 & m2)
    assert np.array_equal(np.array(r1.complement().matrix), ~m1)
    assert r1.is_subset_of(r2) == bool(np.all(~m1 | m2))
    assert (r1 == r2) == bool(np.array_equal(m1, m2))


@given(_two_matrices())
@settings(max_examples=300, deadline=None)
def test_kinds_accept_exactly_what_numpy_accepts(case):
    u, m, _ = case
    for kind, accepts in ((RelationKind.EQUIVALENCE, _is_equivalence),
                          (RelationKind.PARTITION_RELATION, _is_partition_relation)):
        try:
            PairRelation(u, m, kind)
            accepted = True
        except PartitionLogicError:
            accepted = False
        assert accepted == accepts(m), kind


@given(_two_matrices())
@settings(max_examples=200, deadline=None)
def test_closures_agree_with_numpy(case):
    u, m, _ = case
    n = u.size
    r = PairRelation(u, m)
    assert np.array_equal(np.array(closure(r).matrix),
                          slow_closure_matrix(u, zip(*np.nonzero(m))))
    sym = (m | m.T).astype(np.uint8)
    reach = acc = np.eye(n, dtype=bool)
    for k in range(5):
        assert np.array_equal(np.array(chain_bounded_closure(r, k).matrix), acc), k
        reach = (reach.astype(np.uint8) @ sym) > 0
        acc = acc | reach


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dit_indit_and_from_equivalence_agree_with_numpy(n):
    u = _universe(n)
    for p in enumerate_partitions(u):
        a = np.array(p.rgs)
        same = a[:, None] == a[None, :]
        assert np.array_equal(np.array(indit(p).matrix), same)
        assert np.array_equal(np.array(dit(p).matrix), ~same)
        assert indit(p).kind is RelationKind.EQUIVALENCE
        assert dit(p).kind is RelationKind.PARTITION_RELATION
        assert from_equivalence(PairRelation(u, same, RelationKind.EQUIVALENCE)) == p
