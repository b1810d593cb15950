"""The iterative formula walkers against the recursive ones they replaced.

formula.py walks formulas with one post-order fold, one printer loop, one
interpreter and one precedence-climbing parser loop, none of which recurses.
The recursive walkers below are the earlier implementations, kept verbatim
as test-local references: the new code must agree with them on seeded
corpora, including every ParseError's message, position and expected set,
and must answer on formulas far deeper than the recursion limit.
"""

import ast
import random
import sys
from pathlib import Path

import pytest

import partlog.formula as formula
from partlog.corpus import formula_corpus
from partlog.formula import (
    Atom, AtomCollision, DAtom, DBottom, DDiff, DJoin, DMeet, DNor, DTop,
    Diff, Equiv, Formula, Impl, Inequiv, Join, Meet, Nand, NandPresent, Nor,
    Not, ONE, One, ParseError, ZERO, Zero, _tokenize, complexity, desugar,
    double_pi_neg_transform, dual_to_text, dualize, dualize_back,
    formula_from_json, formula_to_json, godel_transform, is_desugared, lower,
    parse, single_pi_neg_transform, subformulas, to_text,
)
from partlog.semantics import omega

S, T, P, Q = Atom("s"), Atom("t"), Atom("p"), Atom("q")


# ---------------------------------------------------------------------------
# Recursive references
# ---------------------------------------------------------------------------

_EOF = "end of input"


class RefParser:
    """Recursive descent over the precedence tower ~, /\\, \\/, |, =>, <=>/<~>."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError("unexpected %r" % (tok[1] or _EOF), tok[2],
                             frozenset({kind}))
        self.i += 1
        return tok

    def parse(self):
        f = self.equiv_level()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("trailing input %r" % tok[1], tok[2], frozenset({_EOF}))
        return f

    def equiv_level(self):
        f = self.impl_level()
        while self.peek()[0] in ("equiv", "inequiv"):
            kind = self.take(self.peek()[0])[0]
            g = self.impl_level()
            f = Equiv(f, g) if kind == "equiv" else Inequiv(f, g)
        return f

    def impl_level(self):
        f = self.nand_level()
        if self.peek()[0] == "impl":
            self.take("impl")
            return Impl(f, self.impl_level())
        return f

    def nand_level(self):
        f = self.join_level()
        while self.peek()[0] == "nand":
            self.take("nand")
            f = Nand(f, self.join_level())
        return f

    def join_level(self):
        f = self.meet_level()
        while self.peek()[0] == "join":
            self.take("join")
            f = Join(f, self.meet_level())
        return f

    def meet_level(self):
        f = self.unary_level()
        while self.peek()[0] == "meet":
            self.take("meet")
            f = Meet(f, self.unary_level())
        return f

    def unary_level(self):
        if self.peek()[0] == "neg":
            self.take("neg")
            return Not(self.unary_level())
        return self.primary()

    def primary(self):
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


_LEVEL = {Atom: 0, Zero: 0, One: 0, Not: 1, Meet: 2, Join: 3, Nand: 4,
          Impl: 5, Equiv: 6, Inequiv: 6}
_INFIX = {Meet: "/\\", Join: "\\/", Nand: "|", Impl: "=>",
          Equiv: "<=>", Inequiv: "<~>"}


def ref_to_text(f):
    kind = type(f)
    if kind is Atom:
        return f.name
    if kind is Zero:
        return "0"
    if kind is One:
        return "1"
    if kind is Not:
        inner = ref_to_text(f.operand)
        if _LEVEL[type(f.operand)] > 1:
            inner = "(" + inner + ")"
        return "~" + inner
    if kind in _INFIX:
        level = _LEVEL[kind]
        right_assoc = kind is Impl
        lt, rt = ref_to_text(f.left), ref_to_text(f.right)
        ll, rl = _LEVEL[type(f.left)], _LEVEL[type(f.right)]
        if ll > level or (right_assoc and ll == level):
            lt = "(" + lt + ")"
        if rl > level or (not right_assoc and rl == level):
            rt = "(" + rt + ")"
        return "%s %s %s" % (lt, _INFIX[kind], rt)
    raise ValueError("%s has no concrete syntax; desugar first" % kind.__name__)


_DUAL_INFIX = {DMeet: "/\\", DJoin: "\\/", DNor: "!|", DDiff: "-"}


def ref_dual_to_text(d):
    kind = type(d)
    if kind is DAtom:
        return d.name + "^d"
    if kind is DTop:
        return "1^"
    if kind is DBottom:
        return "0^"
    lt, rt = ref_dual_to_text(d.left), ref_dual_to_text(d.right)
    if type(d.left) in _DUAL_INFIX:
        lt = "(" + lt + ")"
    if type(d.right) in _DUAL_INFIX:
        rt = "(" + rt + ")"
    return "%s %s %s" % (lt, _DUAL_INFIX[kind], rt)


_BINARY = (Join, Meet, Impl, Nand, Equiv, Inequiv, Nor, Diff)


def ref_subformulas(f):
    seen = {}

    def walk(g):
        match g:
            case Not(a):
                walk(a)
            case _ if isinstance(g, _BINARY):
                walk(g.left)
                walk(g.right)
        seen.setdefault(g)

    walk(f)
    return list(seen)


def ref_complexity(f):
    match f:
        case Atom() | Zero() | One():
            return 1
        case Not(a):
            return 1 + ref_complexity(a)
        case _ if isinstance(f, _BINARY):
            return 1 + ref_complexity(f.left) + ref_complexity(f.right)
    raise TypeError("not a Formula: %r" % (f,))


def ref_dualize(f):
    match f:
        case Atom(name):
            return DAtom(name)
        case Zero():
            return DTop()
        case One():
            return DBottom()
        case Join(a, b):
            return DMeet(ref_dualize(a), ref_dualize(b))
        case Meet(a, b):
            return DJoin(ref_dualize(a), ref_dualize(b))
        case Impl(a, b):
            return DDiff(ref_dualize(b), ref_dualize(a))
        case Nand(a, b):
            return DNor(ref_dualize(a), ref_dualize(b))
    raise ValueError("dualize requires a desugared formula, got %r" % (f,))


def ref_dualize_back(d):
    match d:
        case DAtom(name):
            return Atom(name)
        case DTop():
            return ZERO
        case DBottom():
            return ONE
        case DMeet(a, b):
            return Join(ref_dualize_back(a), ref_dualize_back(b))
        case DJoin(a, b):
            return Meet(ref_dualize_back(a), ref_dualize_back(b))
        case DDiff(a, b):
            return Impl(ref_dualize_back(b), ref_dualize_back(a))
        case DNor(a, b):
            return Nand(ref_dualize_back(a), ref_dualize_back(b))
    raise TypeError("not a DualFormula: %r" % (d,))


def ref_check_transform_input(f, pi):
    if not (isinstance(pi, Atom) or pi == ZERO):
        raise ValueError("pi must be an Atom or the constant 0 sentinel")

    def walk(g):
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


def ref_pi_subst(f, pi, on_atom):
    match f:
        case Atom():
            return on_atom(f)
        case Zero():
            return pi
        case One():
            return ONE
        case Join(a, b):
            return Join(ref_pi_subst(a, pi, on_atom), ref_pi_subst(b, pi, on_atom))
        case Meet(a, b):
            return Meet(ref_pi_subst(a, pi, on_atom), ref_pi_subst(b, pi, on_atom))
        case Impl(a, b):
            return Impl(ref_pi_subst(a, pi, on_atom), ref_pi_subst(b, pi, on_atom))
    raise TypeError("unreachable")


def ref_single(f, pi):
    ref_check_transform_input(f, pi)
    return ref_pi_subst(f, pi, lambda a: Impl(a, pi))


def ref_double(f, pi):
    ref_check_transform_input(f, pi)
    return ref_pi_subst(f, pi, lambda a: Impl(Impl(a, pi), pi))


def ref_godel(f, pi):
    ref_check_transform_input(f, pi)

    def neg2(g):
        return Impl(Impl(g, pi), pi)

    def walk(g):
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


_OP_NAMES = {Atom: "atom", Zero: "0", One: "1", Join: "join", Meet: "meet",
             Impl: "impl", Nand: "nand", Not: "not", Equiv: "equiv",
             Inequiv: "inequiv", Nor: "nor", Diff: "diff"}
_NAME_OPS = {v: k for k, v in _OP_NAMES.items()}


def ref_to_json(f):
    kind = type(f)
    if kind is Atom:
        return {"op": "atom", "args": [f.name]}
    if kind in (Zero, One):
        return {"op": _OP_NAMES[kind], "args": []}
    if kind is Not:
        return {"op": "not", "args": [ref_to_json(f.operand)]}
    return {"op": _OP_NAMES[kind],
            "args": [ref_to_json(f.left), ref_to_json(f.right)]}


def ref_from_json(obj):
    op = _NAME_OPS[obj["op"]]
    args = obj["args"]
    if op is Atom:
        return Atom(args[0])
    if op in (Zero, One):
        return op()
    if op is Not:
        return Not(ref_from_json(args[0]))
    return op(ref_from_json(args[0]), ref_from_json(args[1]))


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2)
CORPUS = [f for seed in SEEDS for f in formula_corpus(seed, 100, max_depth=6)]


def outcome(fn, *args):
    """fn's value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:                # noqa: BLE001 - compared below
        return type(exc), str(exc)


class TestAgainstRecursiveReferences:
    def test_printers(self):
        for f in CORPUS:
            assert to_text(f) == ref_to_text(f)
            d = dualize(desugar(f))
            assert dual_to_text(d) == ref_dual_to_text(d)

    def test_printers_reject_programmatic_connectives(self):
        rng = random.Random(3)
        for f in CORPUS[:100]:
            g = rng.choice([Nor(f, S), Diff(S, f), Not(Diff(f, f)),
                            Impl(f, Join(Nor(S, T), f))])
            assert outcome(to_text, g) == outcome(ref_to_text, g)
            assert outcome(to_text, g)[0] is ValueError

    def test_parse(self):
        for f in CORPUS:
            text = ref_to_text(f)
            assert parse(text) == RefParser(text).parse() == f

    def test_counts(self):
        for f in CORPUS:
            assert complexity(f) == ref_complexity(f)
            assert subformulas(f) == ref_subformulas(f)
            g = desugar(f)
            assert subformulas(g) == ref_subformulas(g)
            assert len(lower(g)) == len(subformulas(g))

    def test_dualize(self):
        for f in CORPUS:
            g = desugar(f)
            d = dualize(g)
            assert d == ref_dualize(g)
            assert dualize_back(d) == ref_dualize_back(d) == g
            if not is_desugared(f):
                assert outcome(dualize, f)[0] is ValueError
                assert outcome(ref_dualize, f)[0] is ValueError

    @pytest.mark.parametrize("pi", [Q, ZERO], ids=["q", "0"])
    def test_transforms(self, pi):
        pairs = ((single_pi_neg_transform, ref_single),
                 (double_pi_neg_transform, ref_double),
                 (godel_transform, ref_godel))
        for f in CORPUS:
            for g in (f, desugar(f)):
                for new, ref in pairs:
                    got, want = outcome(new, g, pi), outcome(ref, g, pi)
                    if isinstance(want, Formula):
                        assert got == want
                    elif is_desugared(g):
                        assert got[0] is want[0]
                    else:
                        # a formula that is not desugared is refused first,
                        # even where the recursive walk met a nand before it
                        assert got[0] is ValueError
                        assert want[0] in (ValueError, NandPresent)

    def test_json(self):
        for f in CORPUS:
            obj = formula_to_json(f)
            assert obj == ref_to_json(f)
            assert formula_from_json(obj) == ref_from_json(obj) == f


def parse_variants(text):
    """text cut at each token boundary, and with each single token deleted."""
    tokens = _tokenize(text)[:-1]
    for _, tok, pos in tokens:
        yield text[:pos]
        yield text[:pos + len(tok)]
        yield text[:pos] + text[pos + len(tok):]


def parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.pos, exc.expected


class TestParseErrorsAgainstRecursiveDescent:
    def test_cut_and_deleted_tokens(self):
        seen_errors = 0
        for f in CORPUS[::10]:
            for text in parse_variants(ref_to_text(f)):
                want = parse_outcome(lambda x: RefParser(x).parse(), text)
                assert parse_outcome(parse, text) == want, text
                seen_errors += isinstance(want, tuple)
        assert seen_errors > 1000

    def test_each_error_kind(self):
        for text in ["", "s =>", "(s", "(s t)", "s )", "s t", "~", "s ~ t",
                     "s => => t", "((s)", "s # t", ")", "~~(s /\\ )"]:
            want = parse_outcome(lambda x: RefParser(x).parse(), text)
            assert isinstance(want, tuple), text
            assert parse_outcome(parse, text) == want, text


def test_transform_reports_the_first_faulty_instruction():
    # the program of s | p lists p before the nand
    with pytest.raises(AtomCollision):
        single_pi_neg_transform(Nand(P, S), P)
    with pytest.raises(NandPresent):
        single_pi_neg_transform(Join(Nand(S, T), P), P)


# ---------------------------------------------------------------------------
# Deep formulas
# ---------------------------------------------------------------------------

DEEP = " => ".join(["s"] * 3000)


@pytest.fixture
def low_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(600)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.usefixtures("low_recursion_limit")
class TestDeepFormulas:
    """A 3000-link => chain, five times deeper than the recursion limit."""

    def test_hash_and_equality(self):
        f, g = parse(DEEP), parse(DEEP)
        assert f == g and hash(f) == hash(g)
        assert f in {g} and f in [g] and f in {g: 1}
        assert parse(DEEP + " => s") != f

    def test_parse_and_print(self):
        f = parse(DEEP)
        assert type(f) is Impl
        assert to_text(f) == DEEP

    def test_counts(self):
        f = parse(DEEP)
        assert complexity(f) == 5999
        assert len(subformulas(f)) == 3000

    def test_dualize(self):
        d = dualize(parse(DEEP))
        text = dual_to_text(d)
        assert text.startswith("(((") and text.endswith("s^d) - s^d) - s^d")
        assert lower(dualize_back(d)) == lower(parse(DEEP))

    @pytest.mark.parametrize("transform,pi,link,last", [
        (single_pi_neg_transform, Q, "(s => q)", "s => q"),
        (single_pi_neg_transform, ZERO, "(s => 0)", "s => 0"),
        (double_pi_neg_transform, Q, "((s => q) => q)", "(s => q) => q"),
        (godel_transform, Q, "s \\/ q", "s \\/ q"),
        (godel_transform, ZERO, "s", "s"),
    ])
    def test_transforms(self, transform, pi, link, last):
        want = " => ".join([link] * 2999 + [last])
        assert to_text(transform(parse(DEEP), pi)) == want

    def test_json_round_trip(self):
        f = parse(DEEP)
        assert to_text(formula_from_json(formula_to_json(f))) == DEEP

    @pytest.mark.parametrize("k", [5, 6])
    def test_omega_round_trip(self, k):
        text = to_text(omega(k))
        assert to_text(parse(text)) == text


# ---------------------------------------------------------------------------
# Recursion guard
# ---------------------------------------------------------------------------

def self_calls(tree):
    """(function, line) for each call of a function by its own name."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == fn.name
                    or isinstance(callee, ast.Attribute) and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"):
                out.append((fn.name, node.lineno))
    return out


def test_no_function_in_formula_py_recurses():
    source = Path(formula.__file__).read_text()
    assert self_calls(ast.parse(source)) == []


def test_the_guard_sees_direct_and_method_recursion():
    assert self_calls(ast.parse("def f(x):\n    return f(x - 1)\n")) == [("f", 2)]
    method = "class C:\n    def g(self):\n        return self.g()\n"
    assert self_calls(ast.parse(method)) == [("g", 3)]
