"""Formula ASTs, concrete syntax, dualization, and the syntactic transforms.

Desugared formulas use only the four primitive connectives (join, meet,
implication, nand) plus the constants 0 and 1; the derived connectives
(negation, equivalence, inequivalence, nor, difference) exist only before
desugaring.  lower() desugars a formula into a hash-consed straight-line
program, without recursion; desugar, atoms_of and every evaluator read it.
Dual formulas mirror the primitive layer for the algebra of equivalence
relations, with d-superscripted atoms and the operations meet, join,
difference, and nor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .core import PartitionLogicError


class ParseError(PartitionLogicError):
    def __init__(self, message: str, pos: int, expected: frozenset[str]):
        super().__init__("%s at position %d (expected one of: %s)"
                         % (message, pos, ", ".join(sorted(expected))))
        self.pos = pos
        self.expected = expected


class NandPresent(PartitionLogicError):
    pass


class AtomCollision(PartitionLogicError):
    pass


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

class Formula:
    """Base class; all nodes are frozen dataclasses, hence hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Zero(Formula):
    pass


@dataclass(frozen=True)
class One(Formula):
    pass


@dataclass(frozen=True)
class Join(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Meet(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Impl(Formula):
    left: Formula   # antecedent
    right: Formula  # consequent


@dataclass(frozen=True)
class Nand(Formula):
    left: Formula
    right: Formula


# derived surface forms, eliminated by desugar()

@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Equiv(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Inequiv(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Nor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Diff(Formula):
    """Difference Diff(s, t) = "t minus s", desugaring to t /\\ ~s."""

    left: Formula
    right: Formula


ZERO = Zero()
ONE = One()

_BINARY = (Join, Meet, Impl, Nand, Equiv, Inequiv, Nor, Diff)


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<atom>[a-z][a-zA-Z0-9_]*)
  | (?P<zero>0)
  | (?P<one>1)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<neg>~(?!>))
  | (?P<meet>/\\)
  | (?P<join>\\/)
  | (?P<equiv><=>)
  | (?P<inequiv><~>)
  | (?P<impl>=>)
  | (?P<nand>\|)
""", re.VERBOSE)

_EOF = "end of input"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos,
                             frozenset({"atom", "0", "1", "(", ")", "~",
                                        "/\\", "\\/", "|", "=>", "<=>", "<~>"}))
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    """Recursive descent over the precedence tower ~, /\\, \\/, |, =>, <=>/<~>."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError("unexpected %r" % (tok[1] or _EOF), tok[2],
                             frozenset({kind}))
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.equiv_level()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("trailing input %r" % tok[1], tok[2], frozenset({_EOF}))
        return f

    def equiv_level(self) -> Formula:
        f = self.impl_level()
        while self.peek()[0] in ("equiv", "inequiv"):
            kind = self.take(self.peek()[0])[0]
            g = self.impl_level()
            f = Equiv(f, g) if kind == "equiv" else Inequiv(f, g)
        return f

    def impl_level(self) -> Formula:
        f = self.nand_level()
        if self.peek()[0] == "impl":           # right-associative
            self.take("impl")
            return Impl(f, self.impl_level())
        return f

    def nand_level(self) -> Formula:
        f = self.join_level()
        while self.peek()[0] == "nand":
            self.take("nand")
            f = Nand(f, self.join_level())
        return f

    def join_level(self) -> Formula:
        f = self.meet_level()
        while self.peek()[0] == "join":
            self.take("join")
            f = Join(f, self.meet_level())
        return f

    def meet_level(self) -> Formula:
        f = self.unary_level()
        while self.peek()[0] == "meet":
            self.take("meet")
            f = Meet(f, self.unary_level())
        return f

    def unary_level(self) -> Formula:
        if self.peek()[0] == "neg":
            self.take("neg")
            return Not(self.unary_level())
        return self.primary()

    def primary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "atom":
            self.take("atom")
            return Atom(text)
        if kind == "zero":
            self.take("zero")
            return ZERO
        if kind == "one":
            self.take("one")
            return ONE
        if kind == "lparen":
            self.take("lparen")
            f = self.equiv_level()
            self.take("rparen")
            return f
        raise ParseError("unexpected %r" % (text or _EOF), pos,
                         frozenset({"atom", "0", "1", "(", "~"}))


def parse(text: str) -> Formula:
    """Parse the ASCII surface syntax; derived connectives survive as AST nodes."""
    return _Parser(text).parse()


_LEVEL = {Atom: 0, Zero: 0, One: 0, Not: 1, Meet: 2, Join: 3, Nand: 4,
          Impl: 5, Equiv: 6, Inequiv: 6}
_INFIX = {Meet: "/\\", Join: "\\/", Nand: "|", Impl: "=>",
          Equiv: "<=>", Inequiv: "<~>"}


def to_text(f: Formula) -> str:
    """Minimal-parenthesization printer; parse(to_text(f)) == f.

    Nor and Diff have no concrete syntax (they are programmatic constructors
    only) and are rejected here; desugar them first.
    """
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Zero:
        return "0"
    if kind is One:
        return "1"
    if kind is Not:
        inner = to_text(f.operand)
        if _LEVEL[type(f.operand)] > 1:
            inner = "(" + inner + ")"
        return "~" + inner
    if kind in _INFIX:
        level = _LEVEL[kind]
        right_assoc = kind is Impl
        lt, rt = to_text(f.left), to_text(f.right)
        ll, rl = _LEVEL[type(f.left)], _LEVEL[type(f.right)]
        if ll > level or (right_assoc and ll == level):
            lt = "(" + lt + ")"
        if rl > level or (not right_assoc and rl == level):
            rt = "(" + rt + ")"
        return "%s %s %s" % (lt, _INFIX[kind], rt)
    raise ValueError("%s has no concrete syntax; desugar first" % kind.__name__)


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

# the derived connectives as programs over their operands' instructions a, b
_DERIVED = {
    Equiv: lambda emit, a, b: emit(Meet, emit(Impl, a, b), emit(Impl, b, a)),
    Inequiv: lambda emit, a, b: emit(Meet, emit(Join, a, b), emit(Nand, a, b)),
    Nor: lambda emit, a, b: emit(Meet, emit(Impl, a, emit(Zero)),
                                 emit(Impl, b, emit(Zero))),
    # Diff(s, t) is "t minus s", the converse non-implication t /\ ~s
    Diff: lambda emit, a, b: emit(Meet, b, emit(Impl, a, emit(Zero))),
}


def lower(f: Formula) -> tuple[tuple, ...]:
    """Desugar f into a straight-line program, children before parents.

    Instructions are (Atom, name, None), (Zero, None, None), (One, None, None)
    or (op, i, j) for a primitive op on the values of instructions i and j;
    the last one is the root.  Equal subformulas share one instruction: the
    key is the flat tuple (op, i, j), so no tree is hashed, and a Python
    subtree shared inside f is lowered once.  Children are visited in the
    desugared formula's order, so atoms come out left to right.
    """
    index: dict[tuple, int] = {}        # instruction -> position, in order
    done: dict[int, int] = {}           # id(node) -> its instruction

    def emit(op, x=None, y=None) -> int:
        return index.setdefault((op, x, y), len(index))

    stack: list[tuple[Formula, bool]] = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        kind = type(g)
        if kind is Atom:
            i = emit(Atom, g.name)
        elif kind is Zero or kind is One:
            i = emit(kind)
        elif not expanded:
            stack.append((g, True))
            if kind is Not:
                stack.append((g.operand, False))
            elif kind not in _BINARY:
                raise TypeError("not a Formula: %r" % (g,))
            else:                       # Diff(s, t) desugars with t first
                first, second = (g.right, g.left) if kind is Diff else (g.left, g.right)
                stack += ((second, False), (first, False))
            continue
        elif kind is Not:
            i = emit(Impl, done[id(g.operand)], emit(Zero))
        else:
            a, b = done[id(g.left)], done[id(g.right)]
            rule = _DERIVED.get(kind)
            i = rule(emit, a, b) if rule else emit(kind, a, b)
        done[id(g)] = i
    return tuple(index)


def desugar(f: Formula) -> Formula:
    """Rewrite derived connectives into the four primitives and constants,
    by rebuilding lower(f); equal subformulas come out as one object."""
    nodes: list[Formula] = []
    for op, x, y in lower(f):
        nodes.append(Atom(x) if op is Atom else
                     op() if x is None else op(nodes[x], nodes[y]))
    return nodes[-1]


def is_desugared(f: Formula) -> bool:
    """True iff f is built from atoms, 0, 1 and the four primitives only.

    An explicit-stack walk that visits each shared subtree once."""
    stack, seen = [f], set()
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        if isinstance(g, (Join, Meet, Impl, Nand)):
            stack += (g.left, g.right)
        elif not isinstance(g, (Atom, Zero, One)):
            return False
    return True


def atoms_of(f: Formula) -> set[str]:
    return {x for op, x, _ in lower(f) if op is Atom}


def subformulas(f: Formula) -> list[Formula]:
    """Unique subformulas in deterministic post-order (children first)."""
    seen: dict[Formula, None] = {}

    def walk(g: Formula):
        match g:
            case Not(a):
                walk(a)
            case _ if isinstance(g, _BINARY):
                walk(g.left)
                walk(g.right)
        seen.setdefault(g)

    walk(f)
    return list(seen)


def complexity(f: Formula) -> int:
    """Total AST node count (duplicates included)."""
    match f:
        case Atom() | Zero() | One():
            return 1
        case Not(a):
            return 1 + complexity(a)
        case _ if isinstance(f, _BINARY):
            return 1 + complexity(f.left) + complexity(f.right)
    raise TypeError("not a Formula: %r" % (f,))


# ---------------------------------------------------------------------------
# Dual formulas
# ---------------------------------------------------------------------------

class DualFormula:
    __slots__ = ()


@dataclass(frozen=True)
class DAtom(DualFormula):
    """Atom with the d superscript, denoting an equivalence relation indit(x)."""

    name: str


@dataclass(frozen=True)
class DTop(DualFormula):
    """1-hat = U x U, the dual of the constant 0."""


@dataclass(frozen=True)
class DBottom(DualFormula):
    """0-hat = the diagonal, the dual of the constant 1."""


@dataclass(frozen=True)
class DMeet(DualFormula):
    left: DualFormula
    right: DualFormula


@dataclass(frozen=True)
class DJoin(DualFormula):
    left: DualFormula
    right: DualFormula


@dataclass(frozen=True)
class DDiff(DualFormula):
    """Difference DDiff(a, b) = a - b (left minus right)."""

    left: DualFormula
    right: DualFormula


@dataclass(frozen=True)
class DNor(DualFormula):
    left: DualFormula
    right: DualFormula


DTOP = DTop()
DBOTTOM = DBottom()


def dualize(f: Formula) -> DualFormula:
    """Swap 0/1, meet/join, implication/difference, nand/nor; superscript atoms.

    Requires a desugared formula.  (f => g) dualizes to g^d - f^d.
    """
    match f:
        case Atom(name):
            return DAtom(name)
        case Zero():
            return DTOP
        case One():
            return DBOTTOM
        case Join(a, b):
            return DMeet(dualize(a), dualize(b))
        case Meet(a, b):
            return DJoin(dualize(a), dualize(b))
        case Impl(a, b):
            return DDiff(dualize(b), dualize(a))
        case Nand(a, b):
            return DNor(dualize(a), dualize(b))
    raise ValueError("dualize requires a desugared formula, got %r" % (f,))


def dualize_back(d: DualFormula) -> Formula:
    match d:
        case DAtom(name):
            return Atom(name)
        case DTop():
            return ZERO
        case DBottom():
            return ONE
        case DMeet(a, b):
            return Join(dualize_back(a), dualize_back(b))
        case DJoin(a, b):
            return Meet(dualize_back(a), dualize_back(b))
        case DDiff(a, b):
            return Impl(dualize_back(b), dualize_back(a))
        case DNor(a, b):
            return Nand(dualize_back(a), dualize_back(b))
    raise TypeError("not a DualFormula: %r" % (d,))


_DUAL_INFIX = {DMeet: "/\\", DJoin: "\\/", DNor: "!|", DDiff: "-"}


def dual_to_text(d: DualFormula) -> str:
    """Display syntax for dual formulas; atoms carry the ^d superscript.

    Display-only (there is no dual parser), so compound operands are always
    parenthesized rather than relying on a precedence convention.
    """
    kind = type(d)
    if kind is DAtom:
        return d.name + "^d"
    if kind is DTop:
        return "1^"
    if kind is DBottom:
        return "0^"
    lt, rt = dual_to_text(d.left), dual_to_text(d.right)
    if type(d.left) in _DUAL_INFIX:
        lt = "(" + lt + ")"
    if type(d.right) in _DUAL_INFIX:
        rt = "(" + rt + ")"
    return "%s %s %s" % (lt, _DUAL_INFIX[kind], rt)


# ---------------------------------------------------------------------------
# The sixteen binary logical operations
# ---------------------------------------------------------------------------

class OpCode(Enum):
    """The 16 binary logical operations, in bijection with their truth tables.

    The enum value is the 4-bit table (Ts,Tt),(Ts,Ft),(Fs,Tt),(Fs,Ft) read as
    an integer, most significant bit first.
    """

    ZERO = 0b0000
    NOR = 0b0001
    CONV_NONIMPL = 0b0010   # not-s and t
    NOT_RIGHT = 0b0101
    NONIMPL = 0b0100        # s and not-t
    NOT_LEFT = 0b0011
    XOR = 0b0110
    NAND = 0b0111
    AND = 0b1000
    IFF = 0b1001
    LEFT = 0b1100
    CONV_IMPL = 0b1101
    RIGHT = 0b1010
    IMPL = 0b1011
    OR = 0b1110
    ONE = 0b1111

    @property
    def table(self):
        from .core import BoolOpTable
        return BoolOpTable.from_value(self.value)

    @property
    def symbol(self) -> str:
        return _OPCODE_SYMBOL[self]


_OPCODE_SYMBOL = {
    OpCode.ZERO: "0", OpCode.NOR: "nor", OpCode.CONV_NONIMPL: "<=/=",
    OpCode.NOT_RIGHT: "~t", OpCode.NONIMPL: "=/=>", OpCode.NOT_LEFT: "~s",
    OpCode.XOR: "<~>", OpCode.NAND: "|", OpCode.AND: "/\\",
    OpCode.IFF: "<=>", OpCode.LEFT: "s", OpCode.CONV_IMPL: "<=",
    OpCode.RIGHT: "t", OpCode.IMPL: "=>", OpCode.OR: "\\/", OpCode.ONE: "1",
}


def dual_opcode(op: OpCode) -> OpCode:
    """Boolean duality on tables: f^d(x, y) = not f(not x, not y)."""
    t = op.table
    bits = (not t.ff, not t.ft, not t.tf, not t.tt)
    v = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | int(bits[3])
    return OpCode(v)


_S, _T = Atom("s"), Atom("t")


def _meets(*conjuncts: Formula) -> Formula:
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = Meet(out, c)
    return out


_CNF_ROWS = {
    OpCode.ZERO: _meets(Join(_S, _T), Impl(_S, _T), Impl(_T, _S), Nand(_S, _T)),
    OpCode.NOR: _meets(Impl(_S, _T), Impl(_T, _S), Nand(_S, _T)),
    OpCode.NONIMPL: _meets(Join(_S, _T), Impl(_T, _S), Nand(_S, _T)),
    OpCode.NOT_RIGHT: _meets(Impl(_T, _S), Nand(_S, _T)),
    OpCode.CONV_NONIMPL: _meets(Join(_S, _T), Impl(_S, _T), Nand(_S, _T)),
    OpCode.NOT_LEFT: _meets(Impl(_S, _T), Nand(_S, _T)),
    OpCode.XOR: _meets(Join(_S, _T), Nand(_S, _T)),
    OpCode.NAND: Nand(_S, _T),
    OpCode.AND: _meets(Join(_S, _T), Impl(_S, _T), Impl(_T, _S)),
    OpCode.IFF: _meets(Impl(_S, _T), Impl(_T, _S)),
    OpCode.LEFT: _meets(Join(_S, _T), Impl(_T, _S)),
    OpCode.CONV_IMPL: Impl(_T, _S),
    OpCode.RIGHT: _meets(Join(_S, _T), Impl(_S, _T)),
    OpCode.IMPL: Impl(_S, _T),
    OpCode.OR: Join(_S, _T),
    OpCode.ONE: Impl(_S, _S),   # 1 has no CNF row
}


def cnf_of(op: OpCode) -> Formula:
    """The partition CNF for op, as a formula in the two fixed atoms s and t."""
    return _CNF_ROWS[op]


_DS, _DT = DAtom("s"), DAtom("t")


def _djoins(*disjuncts: DualFormula) -> DualFormula:
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = DJoin(out, d)
    return out


_DNF_ROWS = {
    OpCode.NOR: DNor(_DS, _DT),
    OpCode.NONIMPL: DDiff(_DS, _DT),
    OpCode.NOT_RIGHT: _djoins(DDiff(_DS, _DT), DNor(_DS, _DT)),
    OpCode.CONV_NONIMPL: DDiff(_DT, _DS),
    OpCode.NOT_LEFT: _djoins(DDiff(_DT, _DS), DNor(_DS, _DT)),
    OpCode.XOR: _djoins(DDiff(_DT, _DS), DDiff(_DS, _DT)),
    OpCode.NAND: _djoins(DDiff(_DT, _DS), DNor(_DS, _DT), DDiff(_DS, _DT)),
    OpCode.AND: DMeet(_DS, _DT),
    OpCode.IFF: _djoins(DMeet(_DS, _DT), DNor(_DS, _DT)),
    OpCode.LEFT: _djoins(DMeet(_DS, _DT), DDiff(_DS, _DT)),
    OpCode.CONV_IMPL: _djoins(DMeet(_DS, _DT), DDiff(_DS, _DT), DNor(_DS, _DT)),
    OpCode.RIGHT: _djoins(DMeet(_DS, _DT), DDiff(_DT, _DS)),
    OpCode.IMPL: _djoins(DMeet(_DS, _DT), DDiff(_DT, _DS), DNor(_DS, _DT)),
    OpCode.OR: _djoins(DMeet(_DS, _DT), DDiff(_DS, _DT), DDiff(_DT, _DS)),
    OpCode.ONE: _djoins(DMeet(_DS, _DT), DDiff(_DS, _DT), DDiff(_DT, _DS),
                        DNor(_DS, _DT)),
    OpCode.ZERO: DDiff(_DS, _DS),   # 0-hat has no DNF row; s^d - s^d
}


def dnf_dual_of(op: OpCode) -> DualFormula:
    """The equivalence-relation DNF for the dual-algebra operation named op."""
    return _DNF_ROWS[op]


# ---------------------------------------------------------------------------
# Transforms of subset tautologies (single/double pi-negation, Goedel)
# ---------------------------------------------------------------------------

def _check_transform_input(f: Formula, pi: Formula):
    if not (isinstance(pi, Atom) or pi == ZERO):
        raise ValueError("pi must be an Atom or the constant 0 sentinel")

    def walk(g: Formula):
        match g:
            case Atom(name):
                if isinstance(pi, Atom) and name == pi.name:
                    raise AtomCollision("transform atom %r occurs in the formula" % name)
            case Zero() | One():
                pass
            case Nand(_, _):
                raise NandPresent("rewrite nand away before transforming")
            case Join(a, b) | Meet(a, b) | Impl(a, b):
                walk(a)
                walk(b)
            case _:
                raise ValueError("transforms require a desugared formula, got %r" % (g,))

    walk(f)


def _pi_subst(f: Formula, pi: Formula, on_atom) -> Formula:
    match f:
        case Atom():
            return on_atom(f)
        case Zero():
            return pi
        case One():
            return ONE
        case Join(a, b):
            return Join(_pi_subst(a, pi, on_atom), _pi_subst(b, pi, on_atom))
        case Meet(a, b):
            return Meet(_pi_subst(a, pi, on_atom), _pi_subst(b, pi, on_atom))
        case Impl(a, b):
            return Impl(_pi_subst(a, pi, on_atom), _pi_subst(b, pi, on_atom))
    raise TypeError("unreachable")


def single_pi_neg_transform(f: Formula, pi: Formula) -> Formula:
    """Replace each atom x by (x => pi) and the constant 0 by pi."""
    _check_transform_input(f, pi)
    return _pi_subst(f, pi, lambda a: Impl(a, pi))


def double_pi_neg_transform(f: Formula, pi: Formula) -> Formula:
    """Replace each atom x by ((x => pi) => pi) and the constant 0 by pi."""
    _check_transform_input(f, pi)
    return _pi_subst(f, pi, lambda a: Impl(Impl(a, pi), pi))


def godel_transform(f: Formula, pi: Formula) -> Formula:
    """Goedel pi-transform: atoms x become x \\/ pi, 0 becomes pi, 1 stays,
    join and implication map componentwise, and meets become the meet of the
    double pi-negations of the transformed operands.

    With the pi = 0 sentinel, x \\/ 0 simplifies to x, so formulas without
    meets are left unchanged.
    """
    _check_transform_input(f, pi)

    def neg2(g: Formula) -> Formula:
        return Impl(Impl(g, pi), pi)

    def walk(g: Formula) -> Formula:
        match g:
            case Atom():
                return g if pi == ZERO else Join(g, pi)
            case Zero():
                return pi
            case One():
                return ONE
            case Join(a, b):
                return Join(walk(a), walk(b))
            case Impl(a, b):
                return Impl(walk(a), walk(b))
            case Meet(a, b):
                return Meet(neg2(walk(a)), neg2(walk(b)))
        raise TypeError("unreachable")

    return walk(f)


# ---------------------------------------------------------------------------
# JSON wire format for ASTs
# ---------------------------------------------------------------------------

_OP_NAMES = {Atom: "atom", Zero: "0", One: "1", Join: "join", Meet: "meet",
             Impl: "impl", Nand: "nand", Not: "not", Equiv: "equiv",
             Inequiv: "inequiv", Nor: "nor", Diff: "diff"}
_NAME_OPS = {v: k for k, v in _OP_NAMES.items()}


def formula_to_json(f: Formula) -> dict:
    kind = type(f)
    if kind is Atom:
        return {"op": "atom", "args": [f.name]}
    if kind in (Zero, One):
        return {"op": _OP_NAMES[kind], "args": []}
    if kind is Not:
        return {"op": "not", "args": [formula_to_json(f.operand)]}
    return {"op": _OP_NAMES[kind],
            "args": [formula_to_json(f.left), formula_to_json(f.right)]}


def formula_from_json(obj: dict) -> Formula:
    op = _NAME_OPS[obj["op"]]
    args = obj["args"]
    if op is Atom:
        return Atom(args[0])
    if op in (Zero, One):
        return op()
    if op is Not:
        return Not(formula_from_json(args[0]))
    return op(formula_from_json(args[0]), formula_from_json(args[1]))
