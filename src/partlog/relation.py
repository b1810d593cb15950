"""Binary relations on U x U, the closure space, and the dual algebra.

A relation is a dense boolean matrix over element indices.  The closed sets of
the closure space U x U are the equivalence relations; the open sets are the
partition relations (dit sets); interior = complement of closure of
complement.  The dual algebra of equivalence relations (eq_meet, eq_join,
eq_diff, eq_nor) acts on indit sets.

This is the reference route: the identity suite and the tests check the
restricted-growth kernel of partlog.core against it, and eval_dual runs the
dual algebra here.  It is the only library module that imports numpy, and it
is loaded on first use, so parse, eval, check and prove never load numpy.
Every public name here can also be imported from partlog and partlog.core.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    NotEquivalence, Partition, PartitionLogicError, Universe, _canonical_rgs,
    _check_same_universe, _components,
)


class RelationKind(Enum):
    ARBITRARY = "arbitrary"
    EQUIVALENCE = "equivalence"
    PARTITION_RELATION = "partition-relation"


def _is_symmetric(m: np.ndarray) -> bool:
    return bool(np.array_equal(m, m.T))


def _is_transitive(m: np.ndarray) -> bool:
    step = (m.astype(np.uint8) @ m.astype(np.uint8)) > 0
    return bool(np.all(~step | m))


class PairRelation:
    """Subset of U x U as an immutable dense boolean matrix with a kind tag."""

    __slots__ = ("universe", "matrix", "kind")

    def __init__(self, universe: Universe, matrix, kind: RelationKind = RelationKind.ARBITRARY):
        m = np.array(matrix, dtype=bool)
        n = universe.size
        if m.shape != (n, n):
            raise PartitionLogicError("relation matrix must be %dx%d" % (n, n))
        m.setflags(write=False)
        if kind is RelationKind.EQUIVALENCE:
            if not (np.all(np.diag(m)) and _is_symmetric(m) and _is_transitive(m)):
                raise NotEquivalence("relation is not reflexive+symmetric+transitive")
        elif kind is RelationKind.PARTITION_RELATION:
            if not (not np.any(np.diag(m)) and _is_symmetric(m) and _is_transitive(~m)):
                raise PartitionLogicError("relation is not a partition relation")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, *_):
        raise AttributeError("PairRelation is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[str, str]],
                   kind: RelationKind = RelationKind.ARBITRARY) -> "PairRelation":
        m = np.zeros((universe.size, universe.size), dtype=bool)
        for a, b in pairs:
            m[universe.index(a), universe.index(b)] = True
        return cls(universe, m, kind)

    @classmethod
    def empty(cls, universe: Universe) -> "PairRelation":
        return cls(universe, np.zeros((universe.size, universe.size), dtype=bool))

    @classmethod
    def full(cls, universe: Universe) -> "PairRelation":
        return cls(universe, np.ones((universe.size, universe.size), dtype=bool),
                   RelationKind.EQUIVALENCE)

    @classmethod
    def diagonal(cls, universe: Universe) -> "PairRelation":
        return cls(universe, np.eye(universe.size, dtype=bool), RelationKind.EQUIVALENCE)

    # -- queries -----------------------------------------------------------

    def holds(self, a: str, b: str) -> bool:
        return bool(self.matrix[self.universe.index(a), self.universe.index(b)])

    @property
    def count(self) -> int:
        return int(self.matrix.sum())

    def pairs(self) -> list[tuple[str, str]]:
        """Member pairs sorted by universe order."""
        els = self.universe.elements
        return [(els[i], els[j]) for i, j in zip(*np.nonzero(self.matrix))]

    def is_subset_of(self, other: "PairRelation") -> bool:
        _check_same_universe(self, other)
        return bool(np.all(~self.matrix | other.matrix))

    def __eq__(self, other):
        if not isinstance(other, PairRelation):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.universe, self.matrix.tobytes()))

    def __repr__(self):
        return "PairRelation(%r, %d pairs, %s)" % (
            list(self.universe.elements), self.count, self.kind.value)

    # -- boolean structure on P(U x U) --------------------------------------

    def union(self, other: "PairRelation") -> "PairRelation":
        _check_same_universe(self, other)
        return PairRelation(self.universe, self.matrix | other.matrix)

    def intersection(self, other: "PairRelation") -> "PairRelation":
        _check_same_universe(self, other)
        return PairRelation(self.universe, self.matrix & other.matrix)

    def complement(self) -> "PairRelation":
        """Complement within all of U x U (diagonal included)."""
        return PairRelation(self.universe, ~self.matrix)


# ---------------------------------------------------------------------------
# Closure space, dit and indit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def closure(r: PairRelation) -> PairRelation:
    """Reflexive, symmetric, transitive closure: the smallest equivalence containing r."""
    rows, cols = np.nonzero(r.matrix)
    rgs = _components(r.universe.size, zip(rows.tolist(), cols.tolist()))
    return indit(Partition(r.universe, rgs))


def interior(r: PairRelation) -> PairRelation:
    """int(S) = complement of the closure of the complement of S."""
    m = ~closure(r.complement()).matrix
    return PairRelation(r.universe, m, RelationKind.PARTITION_RELATION)


def chain_bounded_closure(r: PairRelation, max_links: int) -> PairRelation:
    """Diagonal plus all pairs joinable by a chain of at most ``max_links`` arcs of r.

    Uses the symmetrized arc set; with ``max_links`` large enough this equals
    ``closure(r)``, and the chain-length lemmas say how large is enough.
    """
    n = r.universe.size
    sym = (r.matrix | r.matrix.T).astype(np.uint8)
    acc = sym.copy()
    reach = sym.copy()
    for _ in range(max_links - 1):
        reach = ((reach @ sym) > 0).astype(np.uint8)
        acc |= reach
    m = acc.astype(bool) | np.eye(n, dtype=bool)
    return PairRelation(r.universe, m)


def dit(p: Partition) -> PairRelation:
    """Distinctions of p: ordered pairs lying in different blocks."""
    a = np.array(p.rgs)
    return PairRelation(p.universe, a[:, None] != a[None, :], RelationKind.PARTITION_RELATION)


def indit(p: Partition) -> PairRelation:
    """Indistinctions of p: the complementary equivalence relation."""
    a = np.array(p.rgs)
    return PairRelation(p.universe, a[:, None] == a[None, :], RelationKind.EQUIVALENCE)


def from_equivalence(r: PairRelation) -> Partition:
    """Partition whose blocks are the equivalence classes of r."""
    if r.kind is not RelationKind.EQUIVALENCE:
        raise NotEquivalence("expected an Equivalence-kind relation, got %s" % r.kind.value)
    n = r.universe.size
    labels = [int(np.argmax(r.matrix[i])) for i in range(n)]  # least class member
    return Partition(r.universe, _canonical_rgs(labels))


@lru_cache(maxsize=1 << 16)
def pi_nand(s: Partition, t: Partition, p: Partition) -> Partition:
    """Ternary pi-nand: dit = int(indit(s) | indit(t) | dit(p))."""
    _check_same_universe(s, t, p)
    rel = indit(s).union(indit(t)).union(dit(p))
    return from_equivalence(closure(rel.complement()))


# ---------------------------------------------------------------------------
# Dual algebra of equivalence relations
# ---------------------------------------------------------------------------

def _require_equivalences(*rels: PairRelation):
    for r in rels:
        if r.kind is not RelationKind.EQUIVALENCE:
            raise NotEquivalence("dual-algebra operand must be Equivalence kind")
    _check_same_universe(*rels)


def eq_meet(e1: PairRelation, e2: PairRelation) -> PairRelation:
    _require_equivalences(e1, e2)
    return PairRelation(e1.universe, e1.matrix & e2.matrix, RelationKind.EQUIVALENCE)


def eq_join(e1: PairRelation, e2: PairRelation) -> PairRelation:
    _require_equivalences(e1, e2)
    return closure(e1.union(e2))


def eq_diff(e1: PairRelation, e2: PairRelation) -> PairRelation:
    """Difference e1 - e2 = closure(e1 & e2^c); (s=>p)^d = indit(p) - indit(s)."""
    _require_equivalences(e1, e2)
    return closure(e1.intersection(e2.complement()))


def eq_nor(e1: PairRelation, e2: PairRelation) -> PairRelation:
    _require_equivalences(e1, e2)
    return closure(e1.union(e2).complement())


# the one table of the dual algebra; semantics.eval_dual reads it too
_DUAL_OPS = {"meet": eq_meet, "join": eq_join, "diff": eq_diff, "nor": eq_nor}


def dual_op(op: str, e1: PairRelation, e2: PairRelation) -> PairRelation:
    try:
        fn = _DUAL_OPS[op]
    except KeyError:
        raise ValueError("unknown dual operation %r" % op) from None
    return fn(e1, e2)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def relation_to_json(r: PairRelation) -> dict:
    return {"universe": list(r.universe.elements),
            "pairs": [list(p) for p in r.pairs()]}


def relation_from_json(obj: dict, kind: RelationKind = RelationKind.ARBITRARY) -> PairRelation:
    u = Universe(tuple(obj["universe"]))
    return PairRelation.from_pairs(u, [tuple(p) for p in obj["pairs"]], kind)
