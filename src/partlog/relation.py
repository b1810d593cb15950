"""Binary relations on U x U, the closure space, and the dual algebra.

A relation holds one bitmask per element of U: bit j of row i is set when
the pair (u_i, u_j) is in it, so unions, intersections and complements are
integer bit operations.  The closed sets of the closure space U x U are the
equivalence relations; the open sets are the partition relations (dit sets);
interior = complement of closure of complement.  The dual algebra of
equivalence relations (eq_meet, eq_join, eq_diff, eq_nor) acts on indit sets.

This is the reference route: the identity suite and the tests check the
restricted-growth kernel of partlog.core against it, and eval_dual runs the
dual algebra here.  Closure goes through core's one union-find, and the rest
is bit arithmetic on rows that shares no code with the kernel's operation
tables.  It is loaded on first use.  Every public name here can also be
imported from partlog and partlog.core.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable

from .core import (
    NotEquivalence, Partition, PartitionLogicError, Universe, _canonical_rgs,
    _check_same_universe, _components,
)


class RelationKind(Enum):
    ARBITRARY = "arbitrary"
    EQUIVALENCE = "equivalence"
    PARTITION_RELATION = "partition-relation"


def _members(row: int, n: int) -> list[int]:
    return [j for j in range(n) if row >> j & 1]


def _complement(rows: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << len(rows)) - 1
    return tuple(full ^ row for row in rows)


def _is_equivalence(rows: tuple[int, ...]) -> bool:
    # reflexive, symmetric and transitive iff each distinct row is exactly
    # the set of elements that have it as their row (their class)
    classes: dict[int, int] = {}
    for i, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << i
    return all(row == members for row, members in classes.items())


class PairRelation:
    """Subset of U x U as an immutable tuple of row bitmasks with a kind tag."""

    __slots__ = ("universe", "rows", "kind")

    def __init__(self, universe: Universe, matrix, kind: RelationKind = RelationKind.ARBITRARY):
        n = universe.size
        try:
            m = [[bool(v) for v in row] for row in matrix]
        except TypeError:
            m = None
        if m is None or len(m) != n or any(len(row) != n for row in m):
            raise PartitionLogicError("relation matrix must be %dx%d" % (n, n))
        self._set(universe, tuple(sum(1 << j for j, v in enumerate(row) if v) for row in m), kind)

    @classmethod
    def _of_rows(cls, universe: Universe, rows: tuple[int, ...],
                 kind: RelationKind = RelationKind.ARBITRARY) -> "PairRelation":
        r = object.__new__(cls)
        r._set(universe, rows, kind)
        return r

    def _set(self, universe: Universe, rows: tuple[int, ...], kind: RelationKind):
        # every construction, public or internal, passes this kind check
        if kind is RelationKind.EQUIVALENCE and not _is_equivalence(rows):
            raise NotEquivalence("relation is not reflexive+symmetric+transitive")
        if kind is RelationKind.PARTITION_RELATION and not _is_equivalence(_complement(rows)):
            raise PartitionLogicError("relation is not a partition relation")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, *_):
        raise AttributeError("PairRelation is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor
        return PairRelation, (self.universe, self.matrix, self.kind)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[str, str]],
                   kind: RelationKind = RelationKind.ARBITRARY) -> "PairRelation":
        rows = [0] * universe.size
        for a, b in pairs:
            rows[universe.index(a)] |= 1 << universe.index(b)
        return cls._of_rows(universe, tuple(rows), kind)

    @classmethod
    def empty(cls, universe: Universe) -> "PairRelation":
        return cls._of_rows(universe, (0,) * universe.size)

    @classmethod
    def full(cls, universe: Universe) -> "PairRelation":
        n = universe.size
        return cls._of_rows(universe, ((1 << n) - 1,) * n, RelationKind.EQUIVALENCE)

    @classmethod
    def diagonal(cls, universe: Universe) -> "PairRelation":
        return cls._of_rows(universe, tuple(1 << i for i in range(universe.size)),
                            RelationKind.EQUIVALENCE)

    # -- queries -----------------------------------------------------------

    @property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        """The relation as a read-only n x n tuple of tuples of bool."""
        n = self.universe.size
        return tuple(tuple(bool(row >> j & 1) for j in range(n)) for row in self.rows)

    def holds(self, a: str, b: str) -> bool:
        return bool(self.rows[self.universe.index(a)] >> self.universe.index(b) & 1)

    @property
    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def pairs(self) -> list[tuple[str, str]]:
        """Member pairs sorted by universe order."""
        els = self.universe.elements
        return [(els[i], els[j]) for i, row in enumerate(self.rows)
                for j in _members(row, len(els))]

    def is_subset_of(self, other: "PairRelation") -> bool:
        _check_same_universe(self, other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __eq__(self, other):
        if not isinstance(other, PairRelation):
            return NotImplemented
        return self.universe == other.universe and self.rows == other.rows

    def __hash__(self):
        return hash((self.universe, self.rows))

    def __repr__(self):
        return "PairRelation(%r, %d pairs, %s)" % (
            list(self.universe.elements), self.count, self.kind.value)

    # -- boolean structure on P(U x U) --------------------------------------

    def union(self, other: "PairRelation") -> "PairRelation":
        _check_same_universe(self, other)
        return PairRelation._of_rows(self.universe,
                                     tuple(a | b for a, b in zip(self.rows, other.rows)))

    def intersection(self, other: "PairRelation") -> "PairRelation":
        _check_same_universe(self, other)
        return PairRelation._of_rows(self.universe,
                                     tuple(a & b for a, b in zip(self.rows, other.rows)))

    def complement(self) -> "PairRelation":
        """Complement within all of U x U (diagonal included)."""
        return PairRelation._of_rows(self.universe, _complement(self.rows))


# ---------------------------------------------------------------------------
# Closure space, dit and indit
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def closure(r: PairRelation) -> PairRelation:
    """Reflexive, symmetric, transitive closure: the smallest equivalence containing r."""
    n = r.universe.size
    rgs = _components(n, ((i, j) for i, row in enumerate(r.rows) for j in _members(row, n)))
    return indit(Partition(r.universe, rgs))


def interior(r: PairRelation) -> PairRelation:
    """int(S) = complement of the closure of the complement of S."""
    rows = _complement(closure(r.complement()).rows)
    return PairRelation._of_rows(r.universe, rows, RelationKind.PARTITION_RELATION)


def chain_bounded_closure(r: PairRelation, max_links: int) -> PairRelation:
    """Diagonal plus all pairs joinable by a chain of at most ``max_links`` arcs of r.

    Uses the symmetrized arc set; with ``max_links`` large enough this equals
    ``closure(r)``, and the chain-length lemmas say how large is enough.  Zero
    links give the diagonal.
    """
    if max_links < 0:
        raise ValueError("max_links must be >= 0, got %d" % max_links)
    n = r.universe.size
    rows = r.rows
    # row i of the symmetrized arcs: row i of r plus column i of r
    sym = [row | sum((rows[j] >> i & 1) << j for j in range(n)) for i, row in enumerate(rows)]
    reach = [1 << i for i in range(n)]
    for _ in range(max_links):
        for i, row in enumerate(reach):
            for j in _members(row, n):
                reach[i] |= sym[j]
    return PairRelation._of_rows(r.universe, tuple(reach))


def _block_rows(p: Partition) -> tuple[int, ...]:
    """Row i is the bitmask of the block holding element i."""
    masks = [0] * p.n_blocks
    for i, b in enumerate(p.rgs):
        masks[b] |= 1 << i
    return tuple(masks[b] for b in p.rgs)


def dit(p: Partition) -> PairRelation:
    """Distinctions of p: ordered pairs lying in different blocks."""
    return PairRelation._of_rows(p.universe, _complement(_block_rows(p)),
                                 RelationKind.PARTITION_RELATION)


def indit(p: Partition) -> PairRelation:
    """Indistinctions of p: the complementary equivalence relation."""
    return PairRelation._of_rows(p.universe, _block_rows(p), RelationKind.EQUIVALENCE)


def from_equivalence(r: PairRelation) -> Partition:
    """Partition whose blocks are the equivalence classes of r."""
    if r.kind is not RelationKind.EQUIVALENCE:
        raise NotEquivalence("expected an Equivalence-kind relation, got %s" % r.kind.value)
    return Partition(r.universe, _canonical_rgs(r.rows))    # equal rows, same class


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
    rows = tuple(a & b for a, b in zip(e1.rows, e2.rows))
    return PairRelation._of_rows(e1.universe, rows, RelationKind.EQUIVALENCE)


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
