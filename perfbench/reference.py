"""Independent reference semantics for the benchmark's untimed check phase.

Partitions are restricted-growth tuples (block index = order of first
appearance).  Every operation follows the paper's definitions directly and
shares no code with ``partlog``:

- join: blocks are the non-empty intersections, read off label pairs;
- meet: components of "same block in either operand";
- nand: components of "distinguished by both operands";
- implication s => p: p with each block that lies inside one s-block
  discretized;
- graph_op: components of the arcs the Boolean table falsifies.

``Searcher`` walks assignment grids in the documented enumeration order
(universe sizes 2.. upward, first sorted atom varying slowest, partitions in
restricted-growth lexicographic order), so it names the same first
countermodel the program must report.
"""

from __future__ import annotations

from functools import cache
from itertools import product


def canon(labels) -> tuple[int, ...]:
    remap: dict = {}
    return tuple(remap.setdefault(v, len(remap)) for v in labels)


def bottom(n: int) -> tuple[int, ...]:
    return (0,) * n


def top(n: int) -> tuple[int, ...]:
    return tuple(range(n))


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n elements in restricted-growth lexicographic order."""
    out = [(0,)]
    for _ in range(n - 1):
        out = [p + (v,) for p in out for v in range(max(p) + 2)]
    return tuple(out)


def from_blocks(universe, blocks) -> tuple[int, ...]:
    where = {el: k for k, block in enumerate(blocks) for el in block}
    if sorted(where) != sorted(universe) or \
            sum(len(b) for b in blocks) != len(universe):
        raise ValueError("blocks %r do not partition %r" % (blocks, universe))
    return canon(where[el] for el in universe)


def _components(n: int, linked) -> tuple[int, ...]:
    """Blocks are the connected components of the graph linked(u, v)."""
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if label[v] < 0 and linked(u, v):
                    label[v] = start
                    stack.append(v)
    return canon(label)


def join(s, p):
    return canon(zip(s, p))


def meet(s, p):
    return _components(len(s), lambda u, v: s[u] == s[v] or p[u] == p[v])


def nand(s, t):
    return _components(len(s), lambda u, v: s[u] != s[v] and t[u] != t[v])


def implies(s, p):
    labels: list = list(p)
    for b in set(p):
        members = [u for u in range(len(p)) if p[u] == b]
        if len({s[u] for u in members}) == 1:
            for u in members:
                labels[u] = ("single", u)
    return canon(labels)


def graph_op(table: int, s, t):
    """table bits, high to low: (dit s, dit t) = TT, TF, FT, FF."""
    def falsified(u, v):
        bit = 2 * (s[u] != s[v]) + (t[u] != t[v])
        return u != v and not (table >> bit) & 1
    return _components(len(s), falsified)


def refines(s, p) -> bool:
    """s <= p: every distinction of s is a distinction of p."""
    n = len(s)
    return all(p[u] != p[v] for u in range(n) for v in range(n) if s[u] != s[v])


OPS = {"join": join, "meet": meet, "impl": implies, "nand": nand}


def evaluate(f: tuple, env: dict, n: int) -> tuple[int, ...]:
    """Value of a desugared generator formula; env maps atom names to rgs."""
    memo: dict = {}

    def go(g):
        if g not in memo:
            kind = g[0]
            if kind == "atom":
                memo[g] = env[g[1]]
            elif kind == "0":
                memo[g] = bottom(n)
            elif kind == "1":
                memo[g] = top(n)
            else:
                memo[g] = OPS[kind](go(g[1]), go(g[2]))
        return memo[g]

    return go(f)


class Searcher:
    """Whole-grid countermodel search over operation tables on partition
    indices; tables are filled lazily from the reference operations."""

    def __init__(self):
        self._tables: dict = {}

    def _table(self, op: str, n: int):
        key = (op, n)
        if key not in self._tables:
            parts = partitions(n)
            index = {p: k for k, p in enumerate(parts)}
            fn = OPS[op]
            self._tables[key] = [[index[fn(a, b)] for b in parts] for a in parts]
        return self._tables[key]

    def first_countermodel(self, f: tuple, names, max_n: int, weak: bool):
        """(n, rank, bindings, value) of the first countermodel, or None.

        Strong search hunts values other than the discrete partition, weak
        search hunts the indiscrete one.
        """
        for n in range(2, max_n + 1):
            found = self._search_grid(f, names, n, weak)
            if found is not None:
                rank, value = found
                parts = partitions(n)
                digits = _digits(rank, len(parts), len(names))
                return n, rank, {x: parts[d] for x, d in zip(names, digits)}, value
        return None

    def _search_grid(self, f, names, n, weak):
        parts = partitions(n)
        size = len(parts)
        cells = size ** len(names)
        vectors: dict = {}
        for pos, x in enumerate(names):
            stride = size ** (len(names) - 1 - pos)
            vectors[("atom", x)] = [(k // stride) % size for k in range(cells)]
        vectors[("0",)] = [0] * cells
        vectors[("1",)] = [size - 1] * cells      # the discrete partition is last

        def go(g):
            if g not in vectors:
                table = self._table(g[0], n)
                vectors[g] = [table[a][b] for a, b in zip(go(g[1]), go(g[2]))]
            return vectors[g]

        values = go(f)
        for rank, v in enumerate(values):
            if (v == 0) if weak else (v != size - 1):
                return rank, parts[v]
        return None


def _digits(rank: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        rank, d = divmod(rank, base)
        out.append(d)
    return out[::-1]


def assignments_through(n: int, atoms: int) -> int:
    """Assignments on universes 2..n."""
    return sum(len(partitions(m)) ** atoms for m in range(2, n + 1))


def self_test() -> None:
    """The paper's worked examples; raises RuntimeError on a mismatch."""
    u = "abcde"
    sigma = from_blocks(u, ["abc", "de"])
    pi = from_blocks(u, ["ab", "cde"])
    checks = [
        (join(sigma, pi), from_blocks(u, ["ab", "c", "de"])),
        (meet(sigma, pi), bottom(5)),
        (implies(sigma, pi), from_blocks(u, ["a", "b", "cde"])),
        (nand(sigma, pi), from_blocks(u, ["abde", "c"])),
    ]
    people = ("Tom", "John", "Jim")
    alpha = from_blocks(people, [["Tom"], ["John", "Jim"]])
    omega = from_blocks(people, [["Tom", "Jim"], ["John"]])
    checks += [(meet(alpha, omega), bottom(3)),
               (nand(alpha, omega), from_blocks(people, [["Tom", "John"], ["Jim"]]))]
    # the four primitives are graph_op tables AND, OR, IMPLIES, NAND
    for a, b in product(partitions(4), repeat=2):
        checks += [(graph_op(0b1000, a, b), meet(a, b)),
                   (graph_op(0b1110, a, b), join(a, b)),
                   (graph_op(0b1011, a, b), implies(a, b)),
                   (graph_op(0b0111, a, b), nand(a, b)),
                   (refines(a, b), implies(a, b) == top(4))]
    checks.append(([len(partitions(n)) for n in range(1, 7)], [1, 2, 5, 15, 52, 203]))
    for got, want in checks:
        if got != want:
            raise RuntimeError("reference self-test: got %r, want %r" % (got, want))
