"""Finite partitions and the closure space on U x U.

A partition on a finite universe U is kept in restricted-growth normal form
(block index = order of first appearance scanning U in universe order), so
equality and hashing are structural.  Binary relations on U are dense boolean
matrices over element indices.  The closed sets of the closure space U x U are
the equivalence relations; the open sets are the partition relations (dit
sets); interior = complement of closure of complement.

One kernel, ``graph_op``, computes every binary operation (the four named
primitives are four of its tables) straight from the restricted growth
strings, with the module's single union-find ``_components``.  The relation
route (dit, interior, closure, from_equivalence) is the reference that the
identity suite and the tests check it against; production calls never run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np


class PartitionLogicError(Exception):
    """Base class for all partlog errors."""


class UniverseMismatch(PartitionLogicError):
    pass


class EmptyBlock(PartitionLogicError):
    pass


class OverlappingBlocks(PartitionLogicError):
    pass


class MissingElements(PartitionLogicError):
    pass


class NotEquivalence(PartitionLogicError):
    pass


class InternalInvariantError(PartitionLogicError):
    """Two independent computation routes disagreed; a bug, not bad input."""


# ---------------------------------------------------------------------------
# Universe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Universe:
    """Ordered finite set of element labels; the ordering fixes canonical forms."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(self.elements) < 2:
            raise PartitionLogicError(
                "universe needs two or more elements, got %r" % (self.elements,))
        if len(set(self.elements)) != len(self.elements):
            raise PartitionLogicError("universe labels must be distinct")

    @classmethod
    def of(cls, *labels: str) -> "Universe":
        return cls(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise MissingElements("element %r not in universe" % label) from None

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All ordered pairs of distinct elements."""
        for a in self.elements:
            for b in self.elements:
                if a != b:
                    yield (a, b)


def _check_same_universe(*objs) -> Universe:
    u = objs[0].universe
    for o in objs[1:]:
        if o.universe != u:
            raise UniverseMismatch("operands live on different universes")
    return u


# ---------------------------------------------------------------------------
# PairRelation
# ---------------------------------------------------------------------------

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


def _components(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Connected components of an undirected graph on range(n), as a canonical RGS."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return _canonical_rgs([find(k) for k in range(n)])


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


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Partition in restricted-growth normal form over a fixed universe."""

    universe: Universe
    rgs: tuple[int, ...]

    def __post_init__(self):
        if len(self.rgs) != self.universe.size:
            raise PartitionLogicError("restricted growth string has wrong length")
        top = -1
        for v in self.rgs:
            if not (0 <= v <= top + 1):
                raise PartitionLogicError("not a restricted growth string: %r" % (self.rgs,))
            top = max(top, v)

    @property
    def n_blocks(self) -> int:
        return max(self.rgs) + 1

    @property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """Blocks in first-appearance order, elements in universe order."""
        out: list[list[str]] = [[] for _ in range(self.n_blocks)]
        for label, b in zip(self.universe.elements, self.rgs):
            out[b].append(label)
        return tuple(tuple(b) for b in out)

    def block_of(self, label: str) -> int:
        return self.rgs[self.universe.index(label)]

    def same_block(self, a: str, b: str) -> bool:
        return self.block_of(a) == self.block_of(b)

    def is_bottom(self) -> bool:
        return self.n_blocks == 1

    def is_top(self) -> bool:
        return self.n_blocks == self.universe.size

    def __repr__(self):
        return "Partition(%s)" % "|".join(",".join(b) for b in self.blocks)


def _canonical_rgs(labels: Sequence[int]) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for v in labels:
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


def make_partition(universe: Universe, blocks: Iterable[Iterable[str]]) -> Partition:
    """Canonical partition from a set of blocks; block listing order is irrelevant."""
    seen: dict[str, int] = {}
    blocks = [list(b) for b in blocks]
    for bi, block in enumerate(blocks):
        if not block:
            raise EmptyBlock("block #%d is empty" % bi)
        for el in block:
            if el not in universe.elements:
                raise MissingElements("block element %r not in universe" % el)
            if el in seen:
                raise OverlappingBlocks("element %r appears in blocks #%d and #%d"
                                        % (el, seen[el], bi))
            seen[el] = bi
    missing = [el for el in universe.elements if el not in seen]
    if missing:
        raise MissingElements("universe elements %r not covered by any block" % (missing,))
    return Partition(universe, _canonical_rgs([seen[el] for el in universe.elements]))


def bottom(universe: Universe) -> Partition:
    """The indiscrete partition 0 (one block, no distinctions)."""
    return Partition(universe, (0,) * universe.size)


def top(universe: Universe) -> Partition:
    """The discrete partition 1 (all singletons, all distinctions)."""
    return Partition(universe, tuple(range(universe.size)))


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


# ---------------------------------------------------------------------------
# Boolean-condition tables and the one partition-operation kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolOpTable:
    """Output bits of a binary Boolean operation, indexed by the sign pair.

    Bit order: (Ts,Tt), (Ts,Ft), (Fs,Tt), (Fs,Ft) where the first sign is the
    status of the left operand at a pair (T = the pair is a distinction).
    """

    tt: bool
    tf: bool
    ft: bool
    ff: bool

    @property
    def value(self) -> int:
        return (self.tt << 3) | (self.tf << 2) | (self.ft << 1) | int(self.ff)

    @classmethod
    def from_value(cls, v: int) -> "BoolOpTable":
        if not 0 <= v < 16:
            raise ValueError("table value out of range")
        return cls(bool(v & 8), bool(v & 4), bool(v & 2), bool(v & 1))

    def output(self, s_is_dit: bool, t_is_dit: bool) -> bool:
        if s_is_dit:
            return self.tt if t_is_dit else self.tf
        return self.ft if t_is_dit else self.ff


TABLE_AND = BoolOpTable(True, False, False, False)
TABLE_OR = BoolOpTable(True, True, True, False)
TABLE_IMPLIES = BoolOpTable(True, False, True, True)
TABLE_NAND = BoolOpTable(False, True, True, True)


def graph_op(table: BoolOpTable, s: Partition, t: Partition) -> Partition:
    """Any of the 16 logical operations, via falsifying arcs.

    Put an arc between u and u' whenever the table outputs F for the statuses
    of (u,u') in s and t; the blocks of the result are the connected
    components of that graph.
    """
    _check_same_universe(s, t)
    a, b = s.rgs, t.rgs
    n = len(a)
    out = table.output
    arcs = [(i, j) for i in range(n) for j in range(i + 1, n)
            if not out(a[i] != a[j], b[i] != b[j])]
    return Partition(s.universe, _components(n, arcs))


@lru_cache(maxsize=1 << 16)
def join(s: Partition, p: Partition) -> Partition:
    """Join: blocks are the non-empty intersections of blocks of s and p."""
    return graph_op(TABLE_OR, s, p)


@lru_cache(maxsize=1 << 16)
def meet(s: Partition, p: Partition) -> Partition:
    """Meet: dit(s^p) = int(dit(s) & dit(p)); arcs join pairs indistinct in s or p."""
    return graph_op(TABLE_AND, s, p)


@lru_cache(maxsize=1 << 16)
def implies(s: Partition, p: Partition) -> Partition:
    """Implication s => p: dit = int(dit(s)^c | dit(p)); s is the antecedent.

    Equivalently: p with every block that sits inside a single s-block
    discretized (replaced by its singletons).
    """
    return graph_op(TABLE_IMPLIES, s, p)


@lru_cache(maxsize=1 << 16)
def nand(s: Partition, t: Partition) -> Partition:
    """Nand s | t: dit = int(indit(s) | indit(t)); arcs are common distinctions."""
    return graph_op(TABLE_NAND, s, t)


@lru_cache(maxsize=1 << 16)
def refines(s: Partition, p: Partition) -> bool:
    """True iff s is refined by p (s <= p), i.e. dit(s) is a subset of dit(p)."""
    return join(s, p) == p


def neg(s: Partition) -> Partition:
    """Negation: s => 0.  Equals 1 when s = 0 and 0 otherwise."""
    return implies(s, bottom(s.universe))


def pi_neg(s: Partition, p: Partition) -> Partition:
    """pi-negation of s relative to p: just s => p."""
    return implies(s, p)


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


_DUAL_OPS = {"meet": eq_meet, "join": eq_join, "diff": eq_diff, "nor": eq_nor}


def dual_op(op: str, e1: PairRelation, e2: PairRelation) -> PairRelation:
    try:
        fn = _DUAL_OPS[op]
    except KeyError:
        raise ValueError("unknown dual operation %r" % op) from None
    return fn(e1, e2)


# ---------------------------------------------------------------------------
# Counting and enumeration
# ---------------------------------------------------------------------------

def logical_entropy(p: Partition) -> Fraction:
    """|dit(p)| / |U|^2: probability a random ordered pair is a distinction."""
    n = p.universe.size
    return Fraction(dit(p).count, n * n)


def enumerate_partitions(u: Universe) -> Iterator[Partition]:
    """All partitions on u, exactly once, in restricted-growth lexicographic order."""
    n = u.size

    def gen(prefix: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from gen(prefix, max(top, v))
            prefix.pop()

    for rgs in gen([0], 0):
        yield Partition(u, rgs)


def atoms(u: Universe) -> Iterator[Partition]:
    """The atoms of the partition lattice: the two-block (binary) partitions."""
    for p in enumerate_partitions(u):
        if p.n_blocks == 2:
            yield p


def modular_atom(u: Universe, label: str) -> Partition:
    """The binary partition separating one element from the rest of U."""
    rest = [el for el in u.elements if el != label]
    return make_partition(u, [[label], rest])


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def partition_to_json(p: Partition) -> dict:
    return {"universe": list(p.universe.elements),
            "blocks": [list(b) for b in p.blocks]}


def partition_from_json(obj: dict) -> Partition:
    u = Universe(tuple(obj["universe"]))
    return make_partition(u, obj["blocks"])


def relation_to_json(r: PairRelation) -> dict:
    return {"universe": list(r.universe.elements),
            "pairs": [list(p) for p in r.pairs()]}


def relation_from_json(obj: dict, kind: RelationKind = RelationKind.ARBITRARY) -> PairRelation:
    u = Universe(tuple(obj["universe"]))
    return PairRelation.from_pairs(u, [tuple(p) for p in obj["pairs"]], kind)
