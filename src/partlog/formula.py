"""Formula ASTs, concrete syntax, dualization, and the syntactic transforms.

Desugared formulas use only the four primitive connectives (join, meet,
implication, nand) plus the constants 0 and 1; the derived connectives
(negation, equivalence, inequivalence, nor, difference) exist only before
desugaring.  Dual formulas mirror the primitive layer for the algebra of
equivalence relations, with d-superscripted atoms and the operations meet,
join, difference, and nor.

Every node is interned: a constructor returns the one live node for its class
and operands, so hashing is O(1) (the hash is computed at construction) and ==
is identity, whatever the depth.

No function here recurses, so depth costs no stack.  There are two walks, one
interpreter, one parser loop:

- _fold, an explicit-stack post-order fold that visits each shared subtree
  once.  lower() is a fold that desugars f into a hash-consed straight-line
  program; complexity, subformulas, is_desugared, dualize_back and the JSON
  pair are folds too.
- _print, an explicit-stack printer that pushes text pieces and joins them
  once; to_text, dual_to_text and the nodes' repr feed it.
- _run, the interpreter of lower()'s programs under a table of operations.
  Evaluation in every algebra, desugar, dualize and the transforms are runs.
- parse, one precedence-climbing loop over operand and operator stacks, read
  from the one operator table that the printer reads too.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from enum import Enum
from functools import lru_cache

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
# Formula AST: interned nodes
# ---------------------------------------------------------------------------

class _Ref(weakref.ref):        # weakref.KeyedRef without its Python __new__
    __slots__ = ("key",)


# (class, *operands) -> weak reference to the one live node with that key; the
# operands are interned already, so hashing a key never walks a tree
_NODES: dict[tuple, _Ref] = {}
_BUILDING = threading.RLock()   # one builder at a time, so no key gets two nodes


def _forget(ref, nodes=_NODES, remove=_remove_dead_weakref) -> None:
    # a node died: drop its entry, unless a new node has taken the key since;
    # bound as defaults, as a node may die after the module's globals at exit
    remove(nodes, ref.key)


def _intern(key: tuple):
    """The node for key = (class, *operands): the live one if another thread
    has just built it, else a new one, entered in the table."""
    with _BUILDING:
        ref = _NODES.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        cls, operands = key[0], key[1:]
        node = object.__new__(cls)
        for name, value in zip(cls.__match_args__, operands):
            object.__setattr__(node, name, value)
        # the class's name, as the class's own hash changes between processes
        object.__setattr__(node, "_hash", hash((cls.__name__, *operands)))
        ref = _NODES[key] = _Ref(node, _forget)
        ref.key = key
    return node


class _Node:
    """An interned, immutable node, so == is identity and the hash is computed
    once.  Each arity has its own __new__; this one is the constants'."""

    __slots__ = ("_hash", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls):
        ref = _NODES.get((cls,))
        return ref and ref() or _intern((cls,))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy, deepcopy and pickle construct again, so they get this node
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        return _print(self, _repr_pieces)


class _Named(_Node):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        ref = _NODES.get((cls, name))
        return ref and ref() or _intern((cls, name))


class _Unary(_Node):
    __slots__ = __match_args__ = ("operand",)

    def __new__(cls, operand):
        ref = _NODES.get((cls, operand))
        return ref and ref() or _intern((cls, operand))


class _Binary(_Node):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        ref = _NODES.get((cls, left, right))
        return ref and ref() or _intern((cls, left, right))


def _repr_pieces(g):
    # the dataclass repr, e.g. Impl(left=Atom(name='s'), right=One())
    if not isinstance(g, _Node):
        return repr(g)
    return ([(type(g).__name__ + "(", None)]
            + [(", " * (k > 0) + f + "=", getattr(g, f)) for k, f in enumerate(g.__match_args__)]
            + [(")", None)])


class Formula:
    """Base class of the formula nodes, which are interned (see _Node)."""

    __slots__ = ()


class Atom(_Named, Formula): __slots__ = ()
class Zero(_Node, Formula): __slots__ = ()
class One(_Node, Formula): __slots__ = ()
class Join(_Binary, Formula): __slots__ = ()
class Meet(_Binary, Formula): __slots__ = ()
class Impl(_Binary, Formula): __slots__ = ()        # left => right
class Nand(_Binary, Formula): __slots__ = ()
# derived surface forms, eliminated by desugar()
class Not(_Unary, Formula): __slots__ = ()
class Equiv(_Binary, Formula): __slots__ = ()
class Inequiv(_Binary, Formula): __slots__ = ()
class Nor(_Binary, Formula): __slots__ = ()
class Diff(_Binary, Formula): __slots__ = ()        # Diff(s, t) = "t minus s" = t /\ ~s


ZERO = Zero()
ONE = One()

_BINARY = (Join, Meet, Impl, Nand, Equiv, Inequiv, Nor, Diff)
_PRIMITIVE = frozenset({Atom, Zero, One, Join, Meet, Impl, Nand})


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


# token kind -> (symbol, level, constructor, associativity); a smaller level
# binds tighter: ~, /\, \/, |, =>, then <=> and <~>
_OPERATORS = {
    "neg": ("~", 1, Not, "prefix"),
    "meet": ("/\\", 2, Meet, "left"),
    "join": ("\\/", 3, Join, "left"),
    "nand": ("|", 4, Nand, "left"),
    "impl": ("=>", 5, Impl, "right"),
    "equiv": ("<=>", 6, Equiv, "left"),
    "inequiv": ("<~>", 6, Inequiv, "left"),
}
_CLOSE = 7                          # ")" and the end apply every open operator
_OPEN = (None, 8, None, None)       # "(" on the operator stack: nothing reduces past it
_CONSTANTS = {"zero": ZERO, "one": ONE}
_OPERAND_START = frozenset({"atom", "0", "1", "(", "~"})


def parse(text: str) -> Formula:
    """Parse the ASCII surface syntax; derived connectives survive as AST nodes.

    One precedence-climbing loop over an operand stack and an operator stack.
    """
    operands: list[Formula] = []
    pending: list[tuple] = []       # operators and "(" not yet applied
    depth = 0                       # open parentheses
    want_operand = True

    def reduce(level: int, assoc: str) -> None:
        # apply the stacked operators that bind tighter than the incoming one
        while pending and (pending[-1][1] < level
                           or pending[-1][1] == level and assoc == "left"):
            _, _, make, arity = pending.pop()
            if arity == "prefix":
                operands[-1] = make(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = make(operands[-1], right)

    for kind, tok, pos in _tokenize(text):
        if want_operand:
            if kind == "atom" or kind in _CONSTANTS:
                operands.append(Atom(tok) if kind == "atom" else _CONSTANTS[kind])
                want_operand = False
            elif kind == "neg":
                pending.append(_OPERATORS[kind])
            elif kind == "lparen":
                pending.append(_OPEN)
                depth += 1
            else:
                raise ParseError("unexpected %r" % (tok or _EOF), pos, _OPERAND_START)
        elif kind in _OPERATORS and kind != "neg":
            op = _OPERATORS[kind]
            reduce(op[1], op[3])
            pending.append(op)
            want_operand = True
        elif kind == "rparen" and depth:
            reduce(_CLOSE, "left")
            pending.pop()
            depth -= 1
        elif kind == "eof" and not depth:
            break
        elif depth:
            raise ParseError("unexpected %r" % (tok or _EOF), pos, frozenset({"rparen"}))
        else:
            raise ParseError("trailing input %r" % tok, pos, frozenset({_EOF}))
    reduce(_CLOSE, "left")
    return operands[0]


def _print(f, pieces) -> str:
    """Print on an explicit stack.  pieces(g) is a leaf's text, or g's output
    as (text, child) pairs, each child (if not None) printed right after its
    text; the text is joined once, so printing is linear."""
    out: list[str] = []
    stack: list = [("", f)]
    while stack:
        text, g = stack.pop()
        out.append(text)
        if g is not None:
            p = pieces(g)
            if type(p) is str:
                out.append(p)
            else:
                stack += reversed(p)
    return "".join(out)


def _infix(left, symbol: str, right, left_parens: bool, right_parens: bool) -> tuple:
    middle = "%s %s %s" % (")" if left_parens else "", symbol,
                           "(" if right_parens else "")
    return (("(" if left_parens else "", left), (middle, right),
            (")" if right_parens else "", None))


_SYNTAX = {make: (symbol, level, assoc)
           for symbol, level, make, assoc in _OPERATORS.values()}
_LEVEL = {make: level for _, level, make, _ in _OPERATORS.values()}   # leaves: 0


def _text_pieces(g):
    kind = type(g)
    if kind is Atom:
        return g.name
    if kind is Zero or kind is One:
        return "0" if kind is Zero else "1"
    if kind not in _SYNTAX:
        raise ValueError("%s has no concrete syntax; desugar first" % kind.__name__)
    symbol, level, assoc = _SYNTAX[kind]
    if assoc == "prefix":
        parens = _LEVEL.get(type(g.operand), 0) > level
        return ((symbol + "(" if parens else symbol, g.operand),
                (")" if parens else "", None))
    ll, rl = _LEVEL.get(type(g.left), 0), _LEVEL.get(type(g.right), 0)
    return _infix(g.left, symbol, g.right,
                  ll > level or (assoc == "right" and ll == level),
                  rl > level or (assoc == "left" and rl == level))


def to_text(f: Formula) -> str:
    """Minimal-parenthesization printer; parse(to_text(f)) == f.

    Nor and Diff have no concrete syntax (they are programmatic constructors
    only) and are rejected here; desugar them first.
    """
    return _print(f, _text_pieces)


# ---------------------------------------------------------------------------
# Desugaring: the fold, lowering, and the interpreter
# ---------------------------------------------------------------------------

def _children(g) -> tuple:
    """The operands of a formula or dual formula node, left to right."""
    kind = type(g)
    if kind in _BINARY or kind in _DUAL_BINARY:
        return (g.left, g.right)
    if kind is Not:
        return (g.operand,)
    return ()


def _fold(root, children, combine):
    """Post-order fold on an explicit stack.

    The value of a node is combine(node, [values of children(node)]); it is
    computed once per distinct object (memo by id, as every node stays
    reachable from root), so a shared subtree is visited once.
    """
    done: dict[int, object] = {}
    stack: list = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) in done:
                continue
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack += [(k, None) for k in reversed(kids)]
                continue
        done[id(node)] = combine(node, [done[id(k)] for k in kids])
    return done[id(root)]


# the derived connectives as programs over their operands' instructions a, b
_DERIVED = {
    Equiv: lambda emit, a, b: emit(Meet, emit(Impl, a, b), emit(Impl, b, a)),
    Inequiv: lambda emit, a, b: emit(Meet, emit(Join, a, b), emit(Nand, a, b)),
    Nor: lambda emit, a, b: emit(Meet, emit(Impl, a, emit(Zero)),
                                 emit(Impl, b, emit(Zero))),
    # Diff(s, t) is "t minus s", the converse non-implication t /\ ~s
    Diff: lambda emit, a, b: emit(Meet, b, emit(Impl, a, emit(Zero))),
}


def _desugared_order(g) -> tuple:
    # Diff(s, t) desugars with t first
    return (g.right, g.left) if type(g) is Diff else _children(g)


@lru_cache(maxsize=64)
def lower(f: Formula) -> tuple[tuple, ...]:
    """Desugar f into a straight-line program, children before parents.

    Instructions are (Atom, name, None), (Zero, None, None), (One, None, None)
    or (op, i, j) for a primitive op on the values of instructions i and j;
    the last one is the root.  Equal subformulas share one instruction: the
    key is the flat tuple (op, i, j), as desugaring makes equal instructions
    from unequal nodes, and an equal subtree of f is one node, lowered once.
    Children are visited in the desugared formula's order, so atoms come out
    left to right.  A bounded memo keeps the last programs (f is interned
    and a program is immutable), so the prover's several uses of its root
    lower it once.
    """
    index: dict[tuple, int] = {}        # instruction -> position, in order

    def emit(op, x=None, y=None) -> int:
        return index.setdefault((op, x, y), len(index))

    def step(g, kids) -> int:
        kind = type(g)
        if kind is Atom:
            return emit(Atom, g.name)
        if kind is Zero or kind is One:
            return emit(kind)
        if kind is Not:
            return emit(Impl, kids[0], emit(Zero))
        if kind is Diff:
            return _DERIVED[Diff](emit, kids[1], kids[0])
        if kind not in _BINARY:
            raise TypeError("not a Formula: %r" % (g,))
        rule = _DERIVED.get(kind)
        return rule(emit, *kids) if rule else emit(kind, *kids)

    _fold(f, _desugared_order, step)
    return tuple(index)


def _run(code, atom, zero, one, ops):
    """Run a program from lower() in one algebra: atom maps a name to its
    value, zero and one are the values of the constants, and ops maps each
    primitive connective to a binary operation.  Returns the root's value."""
    vals: list = []
    push = vals.append
    for op, x, y in code:
        if op is Atom:
            push(atom(x))
        elif op is Zero:
            push(zero)
        elif op is One:
            push(one)
        else:
            push(ops[op](vals[x], vals[y]))
    return vals[-1]


_PRIMITIVE_OPS = {Join: Join, Meet: Meet, Impl: Impl, Nand: Nand}


def desugar(f: Formula) -> Formula:
    """Rewrite derived connectives into the four primitives and constants,
    by running lower(f) with the constructors; equal subformulas come out as
    one object."""
    return _run(lower(f), Atom, ZERO, ONE, _PRIMITIVE_OPS)


def is_desugared(f: Formula) -> bool:
    """True iff f is built from atoms, 0, 1 and the four primitives only."""
    return _fold(f, _children, lambda g, kids: type(g) in _PRIMITIVE and all(kids))


def atoms_of(f: Formula) -> set[str]:
    return {x for op, x, _ in lower(f) if op is Atom}


def subformulas(f: Formula) -> list[Formula]:
    """Unique subformulas in deterministic post-order (children first).

    Equal subformulas are one interned node, which _fold visits once."""
    out: list[Formula] = []
    _fold(f, _children, lambda g, kids: out.append(g))
    return out


def complexity(f: Formula) -> int:
    """Total AST node count (duplicates included)."""
    def count(g, kids) -> int:
        if not isinstance(g, Formula):
            raise TypeError("not a Formula: %r" % (g,))
        return 1 + sum(kids)

    return _fold(f, _children, count)


# ---------------------------------------------------------------------------
# Dual formulas
# ---------------------------------------------------------------------------

class DualFormula:
    __slots__ = ()


class DAtom(_Named, DualFormula): __slots__ = ()    # x^d, the equivalence relation indit(x)
class DTop(_Node, DualFormula): __slots__ = ()      # 1-hat = U x U, the dual of 0
class DBottom(_Node, DualFormula): __slots__ = ()   # 0-hat = the diagonal, the dual of 1
class DMeet(_Binary, DualFormula): __slots__ = ()
class DJoin(_Binary, DualFormula): __slots__ = ()
class DDiff(_Binary, DualFormula): __slots__ = ()   # DDiff(a, b) = a - b
class DNor(_Binary, DualFormula): __slots__ = ()


DTOP = DTop()
DBOTTOM = DBottom()

_DUAL_INFIX = {DMeet: "/\\", DJoin: "\\/", DNor: "!|", DDiff: "-"}
_DUAL_BINARY = frozenset(_DUAL_INFIX)

# each primitive and its dual; (f => g) dualizes to g^d - f^d
_TO_DUAL = {Join: DMeet, Meet: DJoin, Impl: lambda a, b: DDiff(b, a), Nand: DNor}
_FROM_DUAL = {DMeet: Join, DJoin: Meet, DDiff: lambda a, b: Impl(b, a), DNor: Nand}


def dualize(f: Formula) -> DualFormula:
    """Swap 0/1, meet/join, implication/difference, nand/nor; superscript atoms.

    Requires a desugared formula.  (f => g) dualizes to g^d - f^d.
    """
    if not is_desugared(f):
        raise ValueError("dualize requires a desugared formula")
    return _run(lower(f), DAtom, DTOP, DBOTTOM, _TO_DUAL)


def dualize_back(d: DualFormula) -> Formula:
    def undual(g, kids) -> Formula:
        kind = type(g)
        if kind is DAtom:
            return Atom(g.name)
        if kind is DTop:
            return ZERO
        if kind is DBottom:
            return ONE
        if kind not in _FROM_DUAL:
            raise TypeError("not a DualFormula: %r" % (g,))
        return _FROM_DUAL[kind](*kids)

    return _fold(d, _children, undual)


def _dual_pieces(d):
    kind = type(d)
    if kind is DAtom:
        return d.name + "^d"
    if kind is DTop or kind is DBottom:
        return "1^" if kind is DTop else "0^"
    return _infix(d.left, _DUAL_INFIX[kind], d.right,
                  type(d.left) in _DUAL_BINARY, type(d.right) in _DUAL_BINARY)


def dual_to_text(d: DualFormula) -> str:
    """Display syntax for dual formulas; atoms carry the ^d superscript.

    Display-only (there is no dual parser), so compound operands are always
    parenthesized rather than relying on a precedence convention.
    """
    return _print(d, _dual_pieces)


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

def _check_transform_input(f: Formula, pi: Formula) -> tuple[tuple, ...]:
    """The program of f, once pi is known to be an atom or 0 and f to be
    desugared; a program with a nand or the atom pi reports the first such
    instruction."""
    if not (isinstance(pi, Atom) or pi == ZERO):
        raise ValueError("pi must be an Atom or the constant 0 sentinel")
    if not is_desugared(f):
        raise ValueError("transforms require a desugared formula")
    code = lower(f)
    pi_name = pi.name if isinstance(pi, Atom) else None
    for op, x, _ in code:
        if op is Nand:
            raise NandPresent("rewrite nand away before transforming")
        if op is Atom and x == pi_name:
            raise AtomCollision("transform atom %r occurs in the formula" % x)
    return code


def single_pi_neg_transform(f: Formula, pi: Formula) -> Formula:
    """Replace each atom x by (x => pi) and the constant 0 by pi."""
    code = _check_transform_input(f, pi)
    return _run(code, lambda x: Impl(Atom(x), pi), pi, ONE, _PRIMITIVE_OPS)


def double_pi_neg_transform(f: Formula, pi: Formula) -> Formula:
    """Replace each atom x by ((x => pi) => pi) and the constant 0 by pi."""
    code = _check_transform_input(f, pi)
    return _run(code, lambda x: Impl(Impl(Atom(x), pi), pi), pi, ONE,
                _PRIMITIVE_OPS)


def godel_transform(f: Formula, pi: Formula) -> Formula:
    """Goedel pi-transform: atoms x become x \\/ pi, 0 becomes pi, 1 stays,
    join and implication map componentwise, and meets become the meet of the
    double pi-negations of the transformed operands.

    With the pi = 0 sentinel, x \\/ 0 simplifies to x, so formulas without
    meets are left unchanged.
    """
    code = _check_transform_input(f, pi)

    def neg2(g: Formula) -> Formula:
        return Impl(Impl(g, pi), pi)

    atom = Atom if pi == ZERO else lambda x: Join(Atom(x), pi)
    ops = {Join: Join, Impl: Impl, Meet: lambda a, b: Meet(neg2(a), neg2(b))}
    return _run(code, atom, pi, ONE, ops)


# ---------------------------------------------------------------------------
# JSON wire format for ASTs
# ---------------------------------------------------------------------------

_OP_NAMES = {Atom: "atom", Zero: "0", One: "1", Join: "join", Meet: "meet",
             Impl: "impl", Nand: "nand", Not: "not", Equiv: "equiv",
             Inequiv: "inequiv", Nor: "nor", Diff: "diff"}
_NAME_OPS = {v: k for k, v in _OP_NAMES.items()}


def formula_to_json(f: Formula) -> dict:
    return _fold(f, _children, lambda g, kids: {
        "op": _OP_NAMES[type(g)], "args": [g.name] if type(g) is Atom else kids})


def formula_from_json(obj: dict) -> Formula:
    def build(o, kids) -> Formula:
        op = _NAME_OPS[o["op"]]
        return Atom(o["args"][0]) if op is Atom else op(*kids)

    return _fold(obj, lambda o: () if o["op"] == "atom" else o["args"], build)
