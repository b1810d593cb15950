"""Interned formula nodes: one live node per class and operands."""

import copy
import gc
import pickle
import sys
import threading

import pytest

from partlog import formula
from partlog.corpus import formula_corpus
from partlog.formula import (
    DBOTTOM, DTOP, ONE, ZERO, Atom, DAtom, DBottom, DDiff, DTop, DualFormula,
    Formula, Impl, Inequiv, Join, Not, One, Zero, desugar, dualize, parse,
    to_text,
)

NODE_CLASSES = Formula.__subclasses__() + DualFormula.__subclasses__()

# each class's node on the sample operands of make(), as the frozen
# dataclasses printed it
REPRS = {
    "Atom": "Atom(name='s')",
    "Zero": "Zero()",
    "One": "One()",
    "Join": "Join(left=Atom(name='s'), right=Atom(name='t'))",
    "Meet": "Meet(left=Atom(name='s'), right=Atom(name='t'))",
    "Impl": "Impl(left=Atom(name='s'), right=Atom(name='t'))",
    "Nand": "Nand(left=Atom(name='s'), right=Atom(name='t'))",
    "Not": "Not(operand=Atom(name='s'))",
    "Equiv": "Equiv(left=Atom(name='s'), right=Atom(name='t'))",
    "Inequiv": "Inequiv(left=Atom(name='s'), right=Atom(name='t'))",
    "Nor": "Nor(left=Atom(name='s'), right=Atom(name='t'))",
    "Diff": "Diff(left=Atom(name='s'), right=Atom(name='t'))",
    "DAtom": "DAtom(name='s')",
    "DTop": "DTop()",
    "DBottom": "DBottom()",
    "DMeet": "DMeet(left=DAtom(name='s'), right=DAtom(name='t'))",
    "DJoin": "DJoin(left=DAtom(name='s'), right=DAtom(name='t'))",
    "DDiff": "DDiff(left=DAtom(name='s'), right=DAtom(name='t'))",
    "DNor": "DNor(left=DAtom(name='s'), right=DAtom(name='t'))",
}


def make(cls):
    """A node of cls, built from scratch down to its atoms."""
    atom = DAtom if issubclass(cls, DualFormula) else Atom
    sample = {"name": "s", "operand": atom("s"), "left": atom("s"), "right": atom("t")}
    return cls(*[sample[f] for f in cls.__match_args__])


def test_the_nineteen_node_classes():
    assert sorted(c.__name__ for c in NODE_CLASSES) == sorted(REPRS)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
class TestEveryNodeClass:
    def test_constructing_twice_gives_one_object(self, cls):
        g = make(cls)
        assert make(cls) is g
        assert cls(**{f: getattr(g, f) for f in cls.__match_args__}) is g

    def test_copies_are_the_node(self, cls):
        g = make(cls)
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g

    def test_immutable(self, cls):
        g = make(cls)
        for name in cls.__match_args__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(g, name, ZERO)
            with pytest.raises(AttributeError):
                delattr(g, name)

    def test_repr(self, cls):
        assert repr(make(cls)) == REPRS[cls.__name__]


def test_constants_are_the_module_singletons():
    assert Zero() is ZERO and One() is ONE and DTop() is DTOP and DBottom() is DBOTTOM


def test_nested_repr():
    assert repr(parse("~(s => 0) <=> 1")) == \
        "Equiv(left=Not(operand=Impl(left=Atom(name='s'), right=Zero())), right=One())"


def test_match_binds_the_operands():
    match parse("~s => (t <~> 0)"):
        case Impl(Not(Atom(a)), Inequiv(left=Atom(name=b), right=Zero())):
            assert (a, b) == ("s", "t")
        case other:
            pytest.fail("no match for %r" % (other,))
    match dualize(desugar(parse("s => t"))):
        case DDiff(DAtom(a), DAtom(b)):
            assert (a, b) == ("t", "s")
        case other:
            pytest.fail("no match for %r" % (other,))


def test_parse_and_desugar_give_the_interned_node():
    for f in formula_corpus(0, 60, max_depth=5):
        text = to_text(f)
        assert parse(text) is parse(text) is f
        g = desugar(f)
        assert desugar(g) is g


def test_the_table_forgets_dropped_nodes():
    gc.collect()
    before = len(formula._NODES)
    built = [Join(Atom("x%d" % k), Not(Atom("y%d" % k))) for k in range(10_000)]
    assert len(formula._NODES) == before + 4 * len(built)
    del built
    gc.collect()
    assert len(formula._NODES) == before


def test_threads_building_the_same_formulas_get_one_node():
    # more threads than cores, switching often, all building the same new nodes
    texts = ["(a%d \\/ b%d) => ~(a%d /\\ c%d)" % (k, k, k, k) for k in range(1000)]
    built = {}

    def build(i):
        built[i] = [parse(text) for text in texts]

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(saved)
    assert sorted(built) == [0, 1, 2, 3]
    assert all(f is g for i in built for f, g in zip(built[i], built[0]))
