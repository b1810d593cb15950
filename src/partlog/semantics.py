"""Evaluation in the partition algebra and its dual, and brute-force checking.

A formula evaluates to a partition once its atoms are bound to partitions on a
shared universe; a partition tautology always evaluates to the discrete
partition 1, and a weak partition tautology never evaluates to the indiscrete
partition 0.  Countermodel search enumerates assignments over universes of
increasing size, so the first countermodel reported is of minimal size.

One interpreter, _run, executes the program of formula.lower under three
operation tables: partitions, equivalence relations (the dual algebra, read
through dualize_back) and truth values.  _run now comes from formula, so only
that module knows the program format.  A search lowers its formula once and
runs the program once per assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterator, Sequence

from . import core
from .core import (
    Partition, PartitionLogicError, Universe, bottom, enumerate_partitions,
    make_partition, top,
)
from .formula import (
    Atom, DualFormula, Equiv, Formula, Impl, Join, Meet, Nand,
    _run, dualize_back, lower,
)

if TYPE_CHECKING:
    from .relation import PairRelation


class UnboundAtom(PartitionLogicError):
    pass


class BudgetExceeded(PartitionLogicError):
    pass


class TooLarge(PartitionLogicError):
    pass


class NotPiRegular(PartitionLogicError):
    pass


# ---------------------------------------------------------------------------
# Assignments and evaluation
# ---------------------------------------------------------------------------

@dataclass
class Assignment:
    """Binding of atom names to partitions on one shared universe."""

    universe: Universe
    bindings: dict[str, Partition] = field(default_factory=dict)

    def __post_init__(self):
        for name, p in self.bindings.items():
            if p.universe != self.universe:
                raise core.UniverseMismatch(
                    "binding %r lives on a different universe" % name)

    def get(self, name: str) -> Partition:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundAtom(name) from None


def _partition_ops() -> dict:
    # read from core at call time, so that a wrapped kernel operation is called
    return {Join: core.join, Meet: core.meet, Impl: core.implies, Nand: core.nand}


def eval_formula(f: Formula, a: Assignment) -> Partition:
    """Evaluate f in the partition algebra on a's universe.

    The formula is desugared first; 0 and 1 always denote the indiscrete and
    discrete partitions.  Equal subformulas are evaluated once.
    """
    u = a.universe
    return _run(lower(f), a.get, bottom(u), top(u), _partition_ops())


def eval_dual(d: DualFormula, a: Assignment) -> PairRelation:
    """Evaluate a dual formula in the algebra of equivalence relations.

    A d-superscripted atom denotes the indit set of its binding, so
    eval_dual(dualize(f), a) = indit(eval_formula(f, a)).  The dual formula
    is read through dualize_back, each primitive running as its dual in the
    relation module's one table; (f => g)^d = g^d - f^d, so Impl swaps its
    operands into the difference.  Loads partlog.relation on first use.
    """
    from .relation import _DUAL_OPS as dual, PairRelation, indit
    u = a.universe
    ops = {Join: dual["meet"], Meet: dual["join"],
           Impl: lambda x, y: dual["diff"](y, x), Nand: dual["nor"]}
    return _run(lower(dualize_back(d)), lambda name: indit(a.get(name)),
                PairRelation.full(u), PairRelation.diagonal(u), ops)


# ---------------------------------------------------------------------------
# Truth tables and the reduction principle
# ---------------------------------------------------------------------------

_BOOL_OPS = {Join: lambda x, y: x or y, Meet: lambda x, y: x and y,
             Impl: lambda x, y: not x or y, Nand: lambda x, y: not (x and y)}


def is_truth_table_tautology(f: Formula) -> bool:
    """True iff f evaluates to 1 under every 0/1 assignment.

    Checked both by truth tables and, via the reduction principle
    Pi(2) = P(1), by evaluating over the two partitions on a two-element
    universe; the routes must agree.
    """
    code = lower(f)
    names = sorted({x for op, x, _ in code if op is Atom})
    u2 = canonical_universe(2)
    zero_one = (bottom(u2), top(u2))
    ops = _partition_ops()
    by_tables = by_pi2 = True
    for bits in product((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        by_tables &= bool(_run(code, env.__getitem__, False, True, _BOOL_OPS))
        pi2 = {n: zero_one[b] for n, b in env.items()}
        by_pi2 &= _run(code, pi2.__getitem__, *zero_one, ops) == zero_one[1]
    if by_tables != by_pi2:
        raise core.InternalInvariantError(
            "truth-table and Pi(2) routes disagree on %r" % (f,))
    return by_tables


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def canonical_universe(n: int) -> Universe:
    return Universe(tuple("u%d" % i for i in range(n)))


@lru_cache(maxsize=None)
def partitions_on(n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(canonical_universe(n)))


def assignments_over(names: Sequence[str], n: int) -> Iterator[Assignment]:
    """All assignments of partitions on the canonical n-universe, in
    deterministic order (first name varies slowest, restricted-growth order)."""
    u = canonical_universe(n)
    for combo in product(partitions_on(n), repeat=len(names)):
        yield Assignment(u, dict(zip(names, combo)))


@dataclass
class CheckResult:
    """Outcome of a bounded tautology check."""

    verdict: str                      # "tautology_up_to" | "weak_tautology_up_to" | "countermodel"
    max_n: int
    assignment: Assignment | None = None
    evaluated: Partition | None = None
    witness_pair: tuple[str, str] | None = None

    @property
    def is_countermodel(self) -> bool:
        return self.verdict == "countermodel"


def _search(f: Formula, max_n: int, budget: int, weak: bool) -> CheckResult:
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    code = lower(f)
    names = sorted({x for op, x, _ in code if op is Atom})
    # the budget bounds the full grid, bell(n) ** len(names) assignments per
    # size (one, empty, without atoms); the count stops once it passes it
    if names:
        total = 0
        for n in range(2, max_n + 1):
            total += bell(n) ** len(names)
            if total > budget:
                break
    else:
        total = max_n - 1
    if total > budget:
        raise BudgetExceeded(
            "search needs more than its budget of %d evaluations" % budget)
    # an atom-free program sees only 0 and 1, on which the primitives act as
    # truth values at every size (the reduction principle), so its one, empty,
    # assignment on two elements decides every size
    sizes = range(2, max_n + 1) if names else (2,)
    ops = _partition_ops()
    for n in sizes:
        u = canonical_universe(n)
        t, b = top(u), bottom(u)
        combos = product(partitions_on(n), repeat=len(names)) if names else ((),)
        for combo in combos:
            env = dict(zip(names, combo))
            v = _run(code, env.__getitem__, b, t, ops)
            if (v == b) if weak else (v != t):
                pair = None if weak else next(p for p in u.pairs() if v.same_block(*p))
                return CheckResult("countermodel", max_n, Assignment(u, env), v, pair)
    verdict = "weak_tautology_up_to" if weak else "tautology_up_to"
    return CheckResult(verdict, max_n)


def check_partition_tautology(f: Formula, max_n: int,
                              budget: int = 10_000_000) -> CheckResult:
    """Search all assignments on universes of size 2..max_n for an evaluation
    different from 1; the first (hence minimal-universe) countermodel wins."""
    return _search(f, max_n, budget, weak=False)


def check_weak(f: Formula, max_n: int, budget: int = 10_000_000) -> CheckResult:
    """Like check_partition_tautology but hunting evaluations equal to 0."""
    return _search(f, max_n, budget, weak=True)


# ---------------------------------------------------------------------------
# Bell numbers and the omega_n family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Bell numbers by the triangle recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


_OMEGA_MAX_N = 6   # Bell(6)=203 atoms, ~20k disjuncts; beyond that refuse


def omega_atom(i: int) -> Atom:
    return Atom("p%d" % i)


def omega(n: int) -> Formula:
    """The join of all equivalences over Bell(n)+1 fresh atoms.

    Evaluates to 1 on every assignment over universes of size <= n (pigeonhole)
    yet has a countermodel on Bell(n)+1 elements, so no fixed universe size
    decides partition tautologies.
    """
    if n < 2:
        raise ValueError("omega is defined for n >= 2")
    if n > _OMEGA_MAX_N:
        raise TooLarge("omega(%d) would need %d atoms" % (n, bell(n) + 1))
    b = bell(n)
    out: Formula | None = None
    for i in range(b + 1):
        for j in range(i + 1, b + 1):
            term = Equiv(omega_atom(i), omega_atom(j))
            out = term if out is None else Join(out, term)
    assert out is not None
    return out


def omega_countermodel(n: int) -> Assignment:
    """The explicit countermodel: on U = {0..Bell(n)}, atom p_i binds the
    binary partition isolating element i."""
    b = bell(n)
    u = canonical_universe(b + 1)
    bindings = {}
    for i in range(b + 1):
        el = u.elements[i]
        rest = [e for e in u.elements if e != el]
        bindings["p%d" % i] = make_partition(u, [[el], rest])
    return Assignment(u, bindings)


# ---------------------------------------------------------------------------
# The Boolean core B_pi and the block algebra B(pi)
# ---------------------------------------------------------------------------

def non_singleton_blocks(p: Partition) -> tuple[tuple[str, ...], ...]:
    return tuple(b for b in p.blocks if len(b) > 1)


def is_pi_regular(r: Partition, p: Partition) -> bool:
    """True iff r is p with some subset of p's blocks discretized,
    i.e. r = s => p for some s."""
    core._check_same_universe(r, p)
    for block in p.blocks:
        whole = (len({r.block_of(el) for el in block}) == 1
                 and sum(1 for el in p.universe.elements
                         if r.block_of(el) == r.block_of(block[0])) == len(block))
        discrete = all(
            sum(1 for el in p.universe.elements
                if r.block_of(el) == r.block_of(x)) == 1
            for x in block)
        if not (whole or discrete):
            return False
    return True


def chi(r: Partition, p: Partition) -> dict[tuple[str, ...], int]:
    """Characteristic map of a p-regular partition over p's non-singleton
    blocks: 1 where the block is discretized in r, 0 where it stays whole."""
    if not is_pi_regular(r, p):
        raise NotPiRegular("%r is not %r-regular" % (r, p))
    out = {}
    for block in non_singleton_blocks(p):
        discretized = r.block_of(block[0]) != r.block_of(block[1])
        out[block] = 1 if discretized else 0
    return out


def discretize_blocks(p: Partition, chosen: Sequence[tuple[str, ...]]) -> Partition:
    """p with the chosen blocks replaced by their singletons."""
    chosen_set = {tuple(b) for b in chosen}
    blocks: list[list[str]] = []
    for block in p.blocks:
        if block in chosen_set:
            blocks.extend([el] for el in block)
        else:
            blocks.append(list(block))
    return make_partition(p.universe, blocks)


def boolean_core(p: Partition, cap: int = 20) -> list[Partition]:
    """All 2^|p_ns| p-regular partitions, in binary-counting order over the
    non-singleton blocks (bit i set = discretize the i-th one)."""
    ns = non_singleton_blocks(p)
    if len(ns) > cap:
        raise TooLarge("2^%d core elements exceeds the cap" % len(ns))
    out = []
    for mask in range(2 ** len(ns)):
        chosen = [b for i, b in enumerate(ns) if mask >> i & 1]
        out.append(discretize_blocks(p, chosen))
    return out


def block_algebra_size(p: Partition) -> int:
    """|B(p)|: the complete subalgebra of P(U) generated by p's blocks."""
    return 2 ** p.n_blocks


def in_block_algebra(p: Partition, subset: set[str]) -> bool:
    """Membership predicate for B(p): is the subset a union of blocks of p?"""
    return all(set(b) <= subset or not (set(b) & subset) for b in p.blocks)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def assignment_to_json(a: Assignment) -> dict:
    return {"universe": list(a.universe.elements),
            "bindings": {name: [list(b) for b in p.blocks]
                         for name, p in sorted(a.bindings.items())}}


def _labels(v, what: str) -> tuple[str, ...]:
    """v as a tuple of labels, if it is a JSON list of strings."""
    if type(v) is not list or any(type(x) is not str for x in v):
        raise PartitionLogicError("%s must be a list of strings" % what)
    return tuple(v)


def assignment_from_json(obj) -> Assignment:
    """The assignment a model file describes: {"universe": [label, ...],
    "bindings": {name: [[label, ...], ...]}}.  Any other shape raises
    PartitionLogicError, as does a binding that is not a partition of the
    universe."""
    if type(obj) is not dict or type(obj.get("bindings")) is not dict:
        raise PartitionLogicError(
            "a model is an object with a universe and a bindings object")
    u = Universe(_labels(obj.get("universe"), "universe"))
    bindings = {}
    for name, blocks in obj["bindings"].items():
        if type(blocks) is not list:
            raise PartitionLogicError("binding %r must be a list of blocks" % name)
        bindings[name] = make_partition(
            u, [_labels(b, "each block of %r" % name) for b in blocks])
    return Assignment(u, bindings)


def check_result_to_json(r: CheckResult) -> dict:
    out: dict = {"verdict": r.verdict, "max_n": r.max_n}
    if r.assignment is not None:
        out["universe"] = list(r.assignment.universe.elements)
        out["bindings"] = assignment_to_json(r.assignment)["bindings"]
    if r.evaluated is not None:
        out["evaluated"] = [list(b) for b in r.evaluated.blocks]
    if r.witness_pair is not None:
        out["pair"] = list(r.witness_pair)
    return out
