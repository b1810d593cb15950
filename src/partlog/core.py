"""Finite partitions and the one partition-operation kernel, in pure Python.

A partition on a finite universe U is kept in restricted-growth normal form
(block index = order of first appearance scanning U in universe order), so
equality and hashing are structural.

One kernel, ``graph_op``, computes every binary operation (the four named
primitives are four of its tables) straight from the restricted growth
strings, with the module's single union-find ``_components``.  Logical
entropy is counted from block sizes.  The relation route on U x U (dit,
indit, closure, interior, the dual algebra) lives in partlog.relation, the
reference that the identity suite and the tests check this kernel against.
This module does not import it; its names (partlog._EXPORTS["relation"])
stay importable from here and are loaded on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


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


# ---------------------------------------------------------------------------
# Counting and enumeration
# ---------------------------------------------------------------------------

def logical_entropy(p: Partition) -> Fraction:
    """|dit(p)| / |U|^2: probability a random ordered pair is a distinction.

    The indistinctions are the pairs inside one block, so |dit(p)| is
    |U|^2 minus the sum of the squared block sizes.  Loads fractions on
    first use, so importing the kernel does not.
    """
    from fractions import Fraction
    n = p.universe.size
    return Fraction(n * n - sum(len(b) ** 2 for b in p.blocks), n * n)


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



# ---------------------------------------------------------------------------
# The relation route, loaded on first use (PEP 562)
# ---------------------------------------------------------------------------

def __getattr__(name: str):
    from . import _EXPORTS
    if name in _EXPORTS["relation"]:
        from . import relation
        return getattr(relation, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
