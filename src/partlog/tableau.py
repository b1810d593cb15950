"""Beth-style semantic tableaus for partition logic.

A tableau for a formula starts from the root statement (u0,u1):F formula and
tries to build a countermodel.  T-rules put the Boolean conditions of an
operation at the base pair (branching where the condition is a disjunction);
F-rules demand a falsifying chain with the Boolean F-conditions on every link,
trying the base pair first, then back-chains over existing elements, and only
as a last resort chains through new elements.  The structural rules are
T-anti-transitivity, F-transitivity, and pair symmetry (built into the
canonical unordered storage of pairs).

A branch closes when some pair carries both T and F for one formula; a branch
that satisfies every pending rule without closing is complete and yields a
countermodel by reading each atom's blocks off the connected components of its
atomic F-statements.  Branches can grow forever (the Devil's tableau), so the
prover runs under element and step budgets and returns Unknown when they are
exhausted.

One agenda says what is owed.  ``_agenda(br)`` yields every rule application
still owed on a branch, in the order the prover takes them: the one-shot
T-rules (T-or, T-impl, T-nand, all read from ``_T_RULES``), anti-transitivity
splits, unwitnessed falsifying chains, and last the saturation rules (F-or,
T-and and F-transitivity gaps).  The prover saturates a branch and then takes
the agenda's first entry; ``Branch.pending()`` lists every entry, and a
branch is complete exactly when nothing is pending.  Depth-first search keeps
its open splits on an explicit stack, so the depth of a tableau is not bounded
by Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import combinations, permutations

from .core import (
    InternalInvariantError, Partition, PartitionLogicError, _components,
)
from .formula import (
    Atom, Formula, Impl, Join, Meet, Nand, One, Zero, atoms_of, desugar,
    subformulas, to_text,
)
from .semantics import (
    Assignment, canonical_universe, check_partition_tautology, eval_formula,
)


class BranchClosed(PartitionLogicError):
    pass


class BranchIncomplete(PartitionLogicError):
    pass


class VerificationFailed(PartitionLogicError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(message if step is None
                         else "%s (trace step %d)" % (message, step))
        self.step = step


T, F = "T", "F"


@dataclass(frozen=True)
class SignedStatement:
    """A signed formula at an unordered pair of distinct elements.

    Pairs are stored canonically with i < j; symmetry of dit and indit sets
    makes (i,j) and (j,i) the same statement, so the symmetry rules hold by
    representation.
    """

    i: int
    j: int
    sign: str
    formula: Formula

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("statement pair must be canonical (i < j)")
        if self.sign not in (T, F):
            raise ValueError("sign must be T or F")

    def opposite(self) -> "SignedStatement":
        return replace(self, sign=T if self.sign == F else F)


def stmt(i: int, j: int, sign: str, formula: Formula) -> SignedStatement:
    if i == j:
        raise ValueError("statement pairs join distinct elements")
    if i > j:
        i, j = j, i
    return SignedStatement(i, j, sign, formula)


@dataclass(frozen=True)
class ProverConfig:
    max_elements: int = 8
    max_steps: int = 200_000
    use_branch_closing_lemma: bool = True

    def __post_init__(self):
        if self.max_elements < 2:
            raise ValueError("max_elements must be at least 2")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class TraceStep:
    rule: str
    premises: tuple[int, ...]
    conclusions: tuple[int, ...]
    branch: int


@dataclass
class ProofTrace:
    """Replayable record: statements with ids, the branch tree, and rule steps."""

    statements: list[tuple[SignedStatement, int]] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)   # branch id -> parent (-1 for root)
    steps: list[TraceStep] = field(default_factory=list)


@dataclass
class Branch:
    """One branch of the tableau: its statements, stage size, and done-marks.

    ``statements`` maps each statement to its global id (insertion ordered);
    ``processed`` marks connective statements whose one-shot rule has fired
    ("checked once").  Structural obligations and falsifying-chain witnesses
    are re-examined against the current stage each time the branch is touched,
    which plays the role of the per-stage second check mark.
    """

    root: Formula
    id: int = 0
    n_elements: int = 2
    statements: dict[SignedStatement, int] = field(default_factory=dict)
    processed: set[SignedStatement] = field(default_factory=set)
    closed: bool = False

    def element_names(self) -> tuple[str, ...]:
        return tuple("u%d" % k for k in range(self.n_elements))

    def holds(self, i: int, j: int, sign: str, f: Formula) -> bool:
        """Truth of a signed condition, with the constants resolved natively."""
        if isinstance(f, One):
            return sign == T
        if isinstance(f, Zero):
            return sign == F
        return stmt(i, j, sign, f) in self.statements

    def child(self, new_id: int) -> "Branch":
        return Branch(self.root, new_id, self.n_elements,
                      dict(self.statements), set(self.processed), self.closed)

    def pending(self) -> list[tuple[str, SignedStatement]]:
        """The worklist: rule applications still owed at the current stage.

        For F-transitivity the statement is the missing conclusion."""
        return [(rule, s) for rule, s, _ in _agenda(self) if rule != "check"]


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass
class ProverOutcome:
    verdict: str                       # "proved" | "countermodel" | "unknown"
    trace: ProofTrace | None = None
    assignment: Assignment | None = None
    pair: tuple[str, str] | None = None
    reason: str | None = None


# ---------------------------------------------------------------------------
# The prover
# ---------------------------------------------------------------------------

class _StepsExceeded(Exception):
    pass


_ELEMENT_INTRODUCING = (Impl, Meet, Nand)
# one-shot T-rules: the rule name and the signs put on the left and right
# operands, one alternative each
_T_RULES = {Join: ("T-or", (T, T)), Impl: ("T-impl", (F, T)),
            Nand: ("T-nand", (F, F))}
_ONE_SHOT = {rule for rule, _ in _T_RULES.values()}
# saturation rules: the statement's own sign goes on both operands
_SATURATION_RULES = {(F, Join): "F-or", (T, Meet): "T-and"}


def _both_operands(s: SignedStatement):
    return [(s.i, s.j, s.sign, s.formula.left), (s.i, s.j, s.sign, s.formula.right)]


def _agenda(br: Branch):
    """Every rule application still owed on ``br``, in the order the prover
    takes them, as (rule, statement, alternatives).

    Each alternative is a list of (i, j, sign, formula) additions.  A
    ``"check"`` entry is an unprocessed one-shot statement that one of its
    alternatives already satisfies, so it only needs its mark.  Falsifying
    chains carry ``None``: their alternatives depend on the element budget,
    and the prover builds them (``_Prover._f_alternatives``).
    """
    for s in br.statements:
        if s.sign == T and s not in br.processed and type(s.formula) in _T_RULES:
            rule, signs = _T_RULES[type(s.formula)]
            alts = [[(s.i, s.j, sign, g)]
                    for sign, g in zip(signs, (s.formula.left, s.formula.right))]
            if any(br.holds(*alt[0]) for alt in alts):
                yield "check", s, []
            else:
                yield rule, s, alts
    for s in br.statements:
        if s.sign == T:
            f = s.formula
            for k in range(br.n_elements):
                if k not in (s.i, s.j) and not (br.holds(s.i, k, T, f)
                                                or br.holds(k, s.j, T, f)):
                    yield ("T-anti-transitivity", s,
                           [[(s.i, k, T, f)], [(k, s.j, T, f)]])
                    break
    for s in br.statements:
        if (s.sign == F and isinstance(s.formula, _ELEMENT_INTRODUCING)
                and not statement_witnessed(br, s)):
            yield "falsifying-chain", s, None
    for s in br.statements:
        rule = _SATURATION_RULES.get((s.sign, type(s.formula)))
        if rule is not None:
            additions = _both_operands(s)
            if not all(br.holds(*a) for a in additions):
                yield rule, s, [additions]
    for f, (_, comp) in _f_graphs(br).items():
        for i, j in _f_gaps(br, f, comp):
            yield "F-transitivity", stmt(i, j, F, f), [[(i, j, F, f)]]


def _f_graphs(br: Branch):
    """Per formula, in order of first appearance: its F-statements and the
    components (an RGS) of the graph of pairs they connect."""
    by_formula: dict[Formula, list[SignedStatement]] = {}
    for s in br.statements:
        if s.sign == F:
            by_formula.setdefault(s.formula, []).append(s)
    return {f: (stmts, _components(br.n_elements, [(s.i, s.j) for s in stmts]))
            for f, stmts in by_formula.items()}


def _f_gaps(br: Branch, f: Formula, comp):
    """Pairs inside one component of f's F-graph that lack the F-statement,
    component by component."""
    blocks: dict[int, list[int]] = {}
    for k, c in enumerate(comp):
        blocks.setdefault(c, []).append(k)
    for members in blocks.values():
        for i, j in combinations(members, 2):
            if stmt(i, j, F, f) not in br.statements:
                yield i, j


@dataclass
class _Split:
    """A branching rule application on the DFS stack: the branch it splits,
    the alternatives not yet tried, and the one-shot statement each child
    marks.  ``unknown`` is the reason the split cannot count as closed: the
    last one a finished child reported, else "max_elements" when the element
    budget cut alternatives off, else None."""

    branch: Branch
    premises: tuple[int, ...]
    rule: str
    alternatives: Iterator[list]
    mark: SignedStatement | None
    unknown: str | None


class _Prover:
    def __init__(self, root: Formula, cfg: ProverConfig):
        self.cfg = cfg
        self.root = root
        self.steps = 0
        self.trace = ProofTrace()
        self.trace.parents.append(-1)
        self.n_branches = 1
        # chains for the F-and rule never need more links than the root has
        # subformulas (the crude upper bound for transmitting T-formulas)
        self.max_and_chain = max(2, len(subformulas(root)))
        br = Branch(root)
        self._apply(br, "root", (), [(0, 1, F, root)])
        self.root_branch = br

    # -- bookkeeping --------------------------------------------------------

    def _tick(self):
        self.steps += 1
        if self.steps > self.cfg.max_steps:
            raise _StepsExceeded()

    def _new_branch(self, parent: Branch) -> Branch:
        child = parent.child(self.n_branches)
        self.trace.parents.append(parent.id)
        self.n_branches += 1
        return child

    def _apply(self, br: Branch, rule: str, premises: tuple[int, ...],
               additions) -> bool:
        """Add the conclusion statements of one rule application.

        Returns True if anything changed; closes the branch on contradiction.
        """
        self._tick()
        new_ids = []
        closing: tuple[int, ...] | None = None
        for (i, j, sign, f) in additions:
            if isinstance(f, (One, Zero)):
                if (isinstance(f, One) and sign == F) or \
                        (isinstance(f, Zero) and sign == T):
                    closing = ()
                continue
            s = stmt(i, j, sign, f)
            if s in br.statements:
                continue
            sid = len(self.trace.statements)
            self.trace.statements.append((s, br.id))
            br.statements[s] = sid
            new_ids.append(sid)
            twin = s.opposite()
            if twin in br.statements:
                closing = (br.statements[twin], sid)
        if new_ids or closing is not None:
            self.trace.steps.append(TraceStep(rule, premises, tuple(new_ids), br.id))
        if closing is not None and not br.closed:
            br.closed = True
            self.trace.steps.append(TraceStep("close", closing, (), br.id))
        return bool(new_ids) or closing is not None

    # -- deterministic saturation -------------------------------------------

    def _saturate(self, br: Branch) -> bool:
        """F-or and T-and expansion plus F-transitivity, to fixpoint."""
        changed = True
        while changed and not br.closed:
            changed = False
            for s, sid in list(br.statements.items()):
                rule = _SATURATION_RULES.get((s.sign, type(s.formula)))
                if rule is None or s in br.processed:
                    continue
                br.processed.add(s)
                changed |= self._apply(br, rule, (sid,), _both_operands(s))
                if br.closed:
                    return True
            changed |= self._f_transitivity(br)
        if not br.closed and self.cfg.use_branch_closing_lemma:
            self._lemma_close(br)
        return br.closed

    def _f_transitivity(self, br: Branch) -> bool:
        changed = False
        for f, (stmts, comp) in _f_graphs(br).items():
            additions = [(i, j, F, f) for i, j in _f_gaps(br, f, comp)]
            if additions:
                premises = tuple(br.statements[s] for s in stmts)
                changed |= self._apply(br, "F-transitivity", premises, additions)
                if br.closed:
                    return True
        return changed

    def _lemma_close(self, br: Branch):
        """Branch-closing lemma: T-tau and T(tau=>pi) on F-pi-connected links
        that both carry F-pi force a link with all three, which contradicts."""
        t_stmts = [s for s in br.statements if s.sign == T]
        impls = [s for s in t_stmts if isinstance(s.formula, Impl)]
        graphs = None
        for s2 in impls:
            tau, pi = s2.formula.left, s2.formula.right
            if not br.holds(s2.i, s2.j, F, pi):
                continue
            for s1 in t_stmts:
                if s1.formula != tau or not br.holds(s1.i, s1.j, F, pi):
                    continue
                # F0 holds everywhere, so its graph is one component
                if not isinstance(pi, Zero):
                    if graphs is None:
                        graphs = _f_graphs(br)
                    comp = graphs[pi][1]
                    if comp[s1.i] != comp[s2.i]:
                        continue
                br.closed = True
                self.trace.steps.append(TraceStep(
                    "lemma-close",
                    (br.statements[s1], br.statements[s2]), (), br.id))
                return

    # -- scheduling ---------------------------------------------------------

    def explore(self, br: Branch):
        """Depth-first development from ``br`` in a deterministic order, on an
        explicit stack of splits.

        Returns ("open", branch) for the first complete open branch, else
        ("closed", None) or ("unknown", reason)."""
        stack: list[_Split] = []
        reason = None
        while True:
            result = self._develop(br)
            if isinstance(result, _Split):
                stack.append(result)
            elif result == "open":
                return ("open", br)
            br = None
            while stack and br is None:
                br = self._next_child(stack[-1])
                if br is None:
                    reason = stack.pop().unknown
                    if stack and reason is not None:
                        stack[-1].unknown = reason
            if br is None:
                return ("closed", None) if reason is None else ("unknown", reason)

    def _develop(self, br: Branch):
        """Saturate and take the agenda's first entry, one tick each, until
        the branch closes ("closed"), is complete ("open") or splits."""
        while True:
            self._tick()
            if self._saturate(br):
                return "closed"
            rule, s, alts = next(_agenda(br), (None, None, None))
            if rule is None:
                return "open"
            if rule == "check":
                br.processed.add(s)
                continue
            truncated = False
            if alts is None:
                rule, alts, truncated = self._f_alternatives(br, s)
            return _Split(br, (br.statements[s],), rule, iter(alts),
                          s if rule in _ONE_SHOT else None,
                          "max_elements" if truncated else None)

    def _next_child(self, split: _Split) -> Branch | None:
        """The branch of the next alternative of ``split`` that does not
        close at once, or None when the alternatives run out."""
        for additions in split.alternatives:
            child = self._new_branch(split.branch)
            if split.mark is not None:
                child.processed.add(split.mark)
            fresh = {k for (i, j, _, _) in additions for k in (i, j)
                     if k >= child.n_elements}
            child.n_elements += len(fresh)
            self._apply(child, split.rule, split.premises, additions)
            if not child.closed:
                return child
        return None

    # -- element-introducing F-rules ----------------------------------------

    def _f_alternatives(self, br: Branch, s: SignedStatement):
        """Disjunctive alternatives for an unwitnessed F-statement.

        Order: base pair, back-chains over existing elements, then chains
        through new elements; returns (rule, alternatives, truncated) where
        truncated means some alternative was cut off by the element budget,
        so an all-closed result cannot count as Proved.
        """
        f = s.formula
        n = br.n_elements
        others = [k for k in range(n) if k not in (s.i, s.j)]
        budget = self.cfg.max_elements - n
        truncated = False
        alts: list[list] = []

        if isinstance(f, Meet):
            # base pair: one link, F on either operand
            alts.append([(s.i, s.j, F, f.left)])
            alts.append([(s.i, s.j, F, f.right)])
            # back-chains: simple paths with alternating labels, both phases
            for mids in _all_orderings(others):
                for phase in (0, 1):
                    alts.append(self._chain_additions(s, mids, phase=phase))
            # new chains of increasing length, alternating labels
            for links in range(2, self.max_and_chain + 1):
                if links - 1 > budget:
                    truncated = True
                    break
                mids = list(range(n, n + links - 1))
                for phase in (0, 1):
                    alts.append(self._chain_additions(s, mids, phase=phase))
            return ("F-and", alts, truncated)

        conds = _link_conditions(f)
        base = [(s.i, s.j, sign, g) for sign, g in conds]
        alts.append(base)
        if isinstance(f, Impl):
            # one or two links: a single intermediate, existing then new
            for k in others:
                alts.append(self._chain_additions(s, [k], conds=conds))
            if budget >= 1:
                alts.append(self._chain_additions(s, [n], conds=conds))
            else:
                truncated = True
            return ("F-impl", alts, truncated)

        # nand: up to four links (three intermediates), all same conditions;
        # back-chains first, then every pattern containing new elements
        for mids in _all_orderings(others, limit=3):
            alts.append(self._chain_additions(s, mids, conds=conds))
        for count in range(1, 4):
            for existing_count in range(0, 4 - count):
                if count > budget:
                    truncated = True
                    continue
                total = count + existing_count
                for existing in permutations(others, existing_count):
                    for positions in combinations(range(total), count):
                        mids = _weave(existing, positions, n)
                        alts.append(self._chain_additions(s, mids, conds=conds))
        return ("F-nand", alts, truncated)

    def _chain_additions(self, s, mids, conds=None, phase=0):
        """Statement additions putting the link conditions on the chain
        s.i -> mids... -> s.j.  For the meet, labels alternate between the
        two operands starting with the one selected by ``phase``."""
        nodes = [s.i] + list(mids) + [s.j]
        additions = []
        f = s.formula
        for idx, (x, y) in enumerate(zip(nodes, nodes[1:])):
            if conds is None:
                g = (f.left, f.right)[(idx + phase) % 2]
                additions.append((min(x, y), max(x, y), F, g))
            else:
                for sign, g in conds:
                    additions.append((min(x, y), max(x, y), sign, g))
        return additions


def _link_conditions(f: Formula):
    if isinstance(f, Impl):
        return [(T, f.left), (F, f.right)]
    if isinstance(f, Nand):
        return [(T, f.left), (T, f.right)]
    raise TypeError("no uniform link condition for %r" % (f,))


def statement_witnessed(br: Branch, s: SignedStatement) -> bool:
    """Does a falsifying chain with the required conditions already exist
    among the branch's statements?  (Any length: the conditions describe
    membership in a closure, so longer chains witness just as well.)"""
    f = s.formula
    if isinstance(f, Meet):
        def edge(x, y):
            return br.holds(x, y, F, f.left) or br.holds(x, y, F, f.right)
    else:
        conds = _link_conditions(f)

        def edge(x, y):
            return all(br.holds(x, y, sign, g) for sign, g in conds)
    n = br.n_elements
    seen = {s.i}
    frontier = [s.i]
    while frontier:
        x = frontier.pop()
        for y in range(n):
            if y not in seen and edge(x, y):
                if y == s.j:
                    return True
                seen.add(y)
                frontier.append(y)
    return False


def _all_orderings(pool, limit=None):
    """Non-empty ordered selections from pool, shortest first, lexicographic."""
    top = len(pool) if limit is None else min(limit, len(pool))
    for m in range(1, top + 1):
        yield from permutations(pool, m)


def _weave(existing, fresh_positions, first_fresh):
    total = len(existing) + len(fresh_positions)
    out = []
    e = iter(existing)
    nxt = first_fresh
    for idx in range(total):
        if idx in fresh_positions:
            out.append(nxt)
            nxt += 1
        else:
            out.append(next(e))
    return out


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def prove(f: Formula, cfg: ProverConfig | None = None) -> ProverOutcome:
    """Run the tableau for (u0,u1):F f.

    Returns Proved with a replayable trace if every branch closes,
    a self-verified Countermodel from the first complete open branch,
    or Unknown when the element/step budgets give out first.
    """
    cfg = cfg or ProverConfig()
    root = desugar(f)
    prover = _Prover(root, cfg)
    try:
        if prover.root_branch.closed:
            status, payload = "closed", None
        else:
            status, payload = prover.explore(prover.root_branch)
    except _StepsExceeded:
        return ProverOutcome("unknown", prover.trace, reason="max_steps")
    if status == "closed":
        return ProverOutcome("proved", prover.trace)
    if status == "unknown":
        return ProverOutcome("unknown", prover.trace, reason=payload)
    branch = payload
    model = extract_model(branch)
    pair = ("u0", "u1")
    if not eval_formula(root, model).same_block(*pair):
        raise InternalInvariantError(
            "open branch produced a model that does not falsify the root")
    return ProverOutcome("countermodel", prover.trace, model, pair)


def branch_is_closed(br: Branch) -> bool:
    if br.closed:
        return True
    return any(s.opposite() in br.statements for s in br.statements)


def branch_is_complete(br: Branch) -> bool:
    """All rules exhausted at the current stage: nothing is pending."""
    return not br.pending()


def extract_model(br: Branch) -> Assignment:
    """Countermodel of an open complete branch.

    Per atom, the blocks are the connected components of the graph of that
    atom's F-statements; pairs never identified stay in different blocks.
    Atoms of the root with no F-statements come out as the discrete partition.
    """
    if branch_is_closed(br):
        raise BranchClosed("cannot extract a model from a closed branch")
    if not branch_is_complete(br):
        raise BranchIncomplete("branch still has pending rule applications")
    universe = canonical_universe(br.n_elements)
    graphs = _f_graphs(br)
    discrete = ((), tuple(range(br.n_elements)))
    bindings = {name: Partition(universe, graphs.get(Atom(name), discrete)[1])
                for name in sorted(atoms_of(br.root))}
    return Assignment(universe, bindings)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def replay_trace(trace: ProofTrace):
    """Check that every step's premises exist on its branch before its
    conclusions and that every leaf branch is closed; raises VerificationFailed."""
    if not trace.steps:
        raise VerificationFailed("empty trace", 0)

    def ancestors(b: int) -> set[int]:
        out = set()
        while b != -1:
            out.add(b)
            b = trace.parents[b]
        return out

    has_children = {trace.parents[b] for b in range(len(trace.parents))}
    closed_on: set[int] = set()
    next_id = 0
    for idx, step in enumerate(trace.steps):
        visible = ancestors(step.branch)
        for pid in step.premises:
            if pid >= next_id:
                raise VerificationFailed("premise %d not yet introduced" % pid, idx)
            if trace.statements[pid][1] not in visible:
                raise VerificationFailed(
                    "premise %d lives on an unrelated branch" % pid, idx)
        for cid in step.conclusions:
            if cid != next_id:
                raise VerificationFailed("conclusion ids out of order", idx)
            s, b = trace.statements[cid]
            if b != step.branch:
                raise VerificationFailed("conclusion recorded on wrong branch", idx)
            next_id += 1
        if step.rule in ("close", "lemma-close"):
            closed_on.add(step.branch)
    for b in range(len(trace.parents)):
        if b not in has_children:
            if not (closed_on & ancestors(b)):
                raise VerificationFailed("leaf branch %d never closed" % b, None)


def verify_outcome(f: Formula, outcome: ProverOutcome) -> bool:
    """Cross-check a prover outcome against the semantics.

    A countermodel must leave the root pair undistinguished when the formula
    is evaluated under it; a proof must replay and must survive exhaustive
    countermodel search on universes of size up to 3.
    """
    g = desugar(f)
    if outcome.verdict == "countermodel":
        if outcome.assignment is None or outcome.pair is None:
            return False
        try:
            value = eval_formula(g, outcome.assignment)
        except PartitionLogicError:
            return False
        a, b = outcome.pair
        return a != b and value.same_block(a, b)
    if outcome.verdict == "proved":
        try:
            replay_trace(outcome.trace)
        except VerificationFailed:
            return False
        return not check_partition_tautology(g, 3).is_countermodel
    return True


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def trace_to_json(trace: ProofTrace) -> dict:
    return {
        "statements": [
            {"id": k, "branch": b, "pair": ["u%d" % s.i, "u%d" % s.j],
             "sign": s.sign, "formula": to_text(s.formula)}
            for k, (s, b) in enumerate(trace.statements)],
        "branches": [{"id": k, "parent": p} for k, p in enumerate(trace.parents)],
        "steps": [{"rule": st.rule, "premises": list(st.premises),
                   "conclusions": list(st.conclusions), "branch": st.branch}
                  for st in trace.steps],
    }


def trace_from_json(obj: dict) -> ProofTrace:
    from .formula import parse
    statements = []
    for item in obj["statements"]:
        i = int(item["pair"][0][1:])
        j = int(item["pair"][1][1:])
        statements.append((stmt(i, j, item["sign"], parse(item["formula"])),
                           item["branch"]))
    parents = [b["parent"] for b in sorted(obj["branches"], key=lambda b: b["id"])]
    steps = [TraceStep(s["rule"], tuple(s["premises"]), tuple(s["conclusions"]),
                       s["branch"]) for s in obj["steps"]]
    return ProofTrace(statements, parents, steps)


def outcome_to_json(outcome: ProverOutcome, include_trace: bool = False) -> dict:
    from .semantics import assignment_to_json
    out: dict = {"verdict": outcome.verdict}
    if outcome.verdict == "countermodel":
        out["model"] = assignment_to_json(outcome.assignment)
        out["pair"] = list(outcome.pair)
    if outcome.verdict == "unknown":
        out["reason"] = outcome.reason
    if include_trace and outcome.trace is not None:
        full = trace_to_json(outcome.trace)
        out["trace"] = full["steps"]
        # the statement and branch tables make the step list independently
        # replayable
        out["statements"] = full["statements"]
        out["branches"] = full["branches"]
    return out
