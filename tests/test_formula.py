"""Parser, printer, desugaring, dualization, op tables, and transforms."""

import random

import pytest

from partlog.corpus import random_formula
from partlog.formula import (
    Atom, AtomCollision, DAtom, DBottom, DDiff, DJoin, DMeet, DNor, DTop,
    Diff, Equiv, Impl, Inequiv, Join, Meet, Nand, NandPresent, Nor,
    Not, ONE, OpCode, ParseError, ZERO, atoms_of, cnf_of, complexity, desugar,
    dnf_dual_of, dual_opcode, dual_to_text, dualize, dualize_back,
    formula_from_json, formula_to_json, godel_transform, is_desugared, lower,
    parse, single_pi_neg_transform, double_pi_neg_transform, subformulas,
    to_text,
)

S, T, P = Atom("s"), Atom("t"), Atom("p")


class TestParse:
    def test_modus_ponens_shape(self):
        got = parse("(s /\\ (s => p)) => p")
        assert got == Impl(Meet(S, Impl(S, P)), P)

    def test_constants(self):
        assert parse("0") == ZERO
        assert parse("1") == ONE

    def test_negation_desugars_to_implies_zero(self):
        assert desugar(parse("~s")) == Impl(S, ZERO)

    def test_precedence_tower(self):
        # ~ binds tighter than /\ than \/ than | than => than <=>
        assert parse("~s /\\ t") == Meet(Not(S), T)
        assert parse("s /\\ t \\/ p") == Join(Meet(S, T), P)
        assert parse("s \\/ t | p") == Nand(Join(S, T), P)
        assert parse("s | t => p") == Impl(Nand(S, T), P)
        assert parse("s => t <=> p") == Equiv(Impl(S, T), P)
        assert parse("s <~> t") == Inequiv(S, T)

    def test_implication_is_right_associative(self):
        assert parse("s => t => p") == Impl(S, Impl(T, P))

    def test_left_associative_levels(self):
        assert parse("s /\\ t /\\ p") == Meet(Meet(S, T), P)
        assert parse("s | t | p") == Nand(Nand(S, T), P)

    def test_parens_override(self):
        assert parse("s /\\ (t \\/ p)") == Meet(S, Join(T, P))

    def test_atom_lexeme(self):
        assert parse("aB_9") == Atom("aB_9")
        with pytest.raises(ParseError):
            parse("Foo")

    def test_parse_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as e:
            parse("s => ")
        assert e.value.pos == 5
        assert "atom" in e.value.expected
        with pytest.raises(ParseError) as e:
            parse("s t")
        assert e.value.pos == 2


class TestToText:
    def test_simple_forms(self):
        assert to_text(Impl(S, P)) == "s => p"
        assert to_text(Nand(S, S)) == "s | s"

    def test_precedence_forces_parens_on_join(self):
        assert to_text(Meet(Join(Atom("a"), Atom("b")), Atom("c"))) == "(a \\/ b) /\\ c"

    def test_associativity_prints_minimally(self):
        assert to_text(Meet(Meet(S, T), P)) == "s /\\ t /\\ p"
        assert to_text(Meet(S, Meet(T, P))) == "s /\\ (t /\\ p)"
        assert to_text(Impl(S, Impl(T, P))) == "s => t => p"
        assert to_text(Impl(Impl(S, T), P)) == "(s => t) => p"

    def test_round_trip_on_500_random_asts(self):
        rng = random.Random(20240817)
        for _ in range(500):
            f = random_formula(rng, max_depth=5)
            assert parse(to_text(f)) == f

    def test_programmatic_connectives_have_no_syntax(self):
        with pytest.raises(ValueError):
            to_text(Nor(S, T))
        with pytest.raises(ValueError):
            to_text(Diff(S, T))


class TestDesugar:
    def test_equiv(self):
        a, b = Atom("a"), Atom("b")
        assert desugar(Equiv(a, b)) == Meet(Impl(a, b), Impl(b, a))

    def test_not_zero(self):
        assert desugar(Not(ZERO)) == Impl(ZERO, ZERO)

    def test_nor(self):
        a, b = Atom("a"), Atom("b")
        assert desugar(Nor(a, b)) == Meet(Impl(a, ZERO), Impl(b, ZERO))

    def test_inequiv_and_diff(self):
        assert desugar(Inequiv(S, T)) == Meet(Join(S, T), Nand(S, T))
        assert desugar(Diff(S, T)) == Meet(T, Impl(S, ZERO))

    def test_idempotent_and_primitive_only(self):
        rng = random.Random(99)
        for _ in range(200):
            f = random_formula(rng, max_depth=5)
            d = desugar(f)
            assert is_desugared(d)
            assert desugar(d) == d


def recursive_is_desugared(f):
    """The recursive rule, as a test-local reference."""
    if isinstance(f, (Atom, type(ZERO), type(ONE))):
        return True
    if isinstance(f, (Join, Meet, Impl, Nand)):
        return recursive_is_desugared(f.left) and recursive_is_desugared(f.right)
    return False


class TestIsDesugared:
    @pytest.mark.parametrize("n", [5, 6])
    def test_omega(self, n):
        from partlog.semantics import omega
        assert is_desugared(desugar(omega(n)))

    def test_deep_chain_with_equiv_is_not_desugared(self):
        f = Equiv(S, T)
        for _ in range(3000):
            f = Join(S, f)
        assert not is_desugared(f)
        assert is_desugared(desugar(f))

    def test_agrees_with_recursive_reference_on_corpus(self):
        from partlog.corpus import formula_corpus
        corpus = formula_corpus(17, 150, max_depth=5)
        for f in corpus + [desugar(f) for f in corpus]:
            assert is_desugared(f) == recursive_is_desugared(f), f
        assert not is_desugared("s") and not is_desugared(Join(S, "t"))


class TestLower:
    def test_equiv_program(self):
        assert lower(Equiv(S, T)) == ((Atom, "s", None), (Atom, "t", None),
                                      (Impl, 0, 1), (Impl, 1, 0), (Meet, 2, 3))

    def test_equal_subformulas_share_one_instruction(self):
        code = lower(Join(Impl(S, T), Impl(Atom("s"), T)))
        assert code[-1] == (Join, 2, 2) and len(code) == 4

    def test_children_come_first_in_desugared_order(self):
        # Diff(s, t) desugars to t /\ ~s, so t is met first
        code = lower(Diff(S, Not(T)))
        assert code[0] == (Atom, "t", None)
        for i, (op, x, y) in enumerate(code):
            if op in (Join, Meet, Impl, Nand):
                assert x < i and y < i

    def test_rejects_non_formulas(self):
        with pytest.raises(TypeError, match="not a Formula"):
            lower(Join(S, "t"))
        with pytest.raises(TypeError, match="not a Formula"):
            desugar(Not(3))


class TestDualize:
    def test_constants_swap(self):
        assert dualize(ZERO) == DTop()
        assert dualize(ONE) == DBottom()

    def test_modus_ponens_dual(self):
        mp = desugar(parse("(s /\\ (s => t)) => t"))
        # t^d - (s^d \/ (t^d - s^d))
        ds, dt = DAtom("s"), DAtom("t")
        assert dualize(mp) == DDiff(dt, DJoin(ds, DDiff(dt, ds)))

    def test_involution_on_random_formulas(self):
        rng = random.Random(4096)
        for _ in range(100):
            f = desugar(random_formula(rng, max_depth=5))
            assert dualize_back(dualize(f)) == f

    def test_requires_desugared(self):
        with pytest.raises(ValueError):
            dualize(Not(S))

    def test_dual_text(self):
        mp = desugar(parse("(s /\\ (s => t)) => t"))
        assert dual_to_text(dualize(mp)) == "t^d - (s^d \\/ (t^d - s^d))"


class TestOpCodes:
    def test_sixteen_distinct_tables(self):
        assert len({op.table.value for op in OpCode}) == 16

    def test_primitive_tables(self):
        assert OpCode.AND.table.value == 0b1000
        assert OpCode.OR.table.value == 0b1110
        assert OpCode.IMPL.table.value == 0b1011
        assert OpCode.NAND.table.value == 0b0111

    def test_dual_opcode_pairs(self):
        expected = {
            OpCode.ZERO: OpCode.ONE, OpCode.IMPL: OpCode.CONV_NONIMPL,
            OpCode.OR: OpCode.AND, OpCode.IFF: OpCode.XOR,
            OpCode.CONV_IMPL: OpCode.NONIMPL, OpCode.NOR: OpCode.NAND,
            OpCode.LEFT: OpCode.LEFT, OpCode.RIGHT: OpCode.RIGHT,
            OpCode.NOT_LEFT: OpCode.NOT_LEFT, OpCode.NOT_RIGHT: OpCode.NOT_RIGHT,
        }
        for op, dual in expected.items():
            assert dual_opcode(op) == dual
            assert dual_opcode(dual) == op
        for op in OpCode:
            assert dual_opcode(dual_opcode(op)) == op

    def test_cnf_rows_from_the_table(self):
        assert cnf_of(OpCode.AND) == Meet(Meet(Join(S, T), Impl(S, T)), Impl(T, S))
        assert cnf_of(OpCode.XOR) == Meet(Join(S, T), Nand(S, T))
        assert cnf_of(OpCode.ONE) == Impl(S, S)

    def test_dnf_rows_from_the_table(self):
        ds, dt = DAtom("s"), DAtom("t")
        assert dnf_dual_of(OpCode.IFF) == DJoin(DMeet(ds, dt), DNor(ds, dt))
        assert dnf_dual_of(OpCode.ZERO) == DDiff(ds, ds)

    def test_cnf_rows_are_primitive(self):
        for op in OpCode:
            assert is_desugared(cnf_of(op))


class TestTransforms:
    def test_single_pi_on_excluded_middle(self):
        f = desugar(parse("s \\/ ~s"))
        got = single_pi_neg_transform(f, P)
        assert got == Join(Impl(S, P), Impl(Impl(S, P), P))

    def test_constant_one_unchanged(self):
        assert single_pi_neg_transform(ONE, P) == ONE

    def test_double_pi_on_negation(self):
        got = double_pi_neg_transform(Impl(S, ZERO), P)
        assert got == Impl(Impl(Impl(S, P), P), P)

    def test_godel_zero_transform_leaves_meet_free_formulas_alone(self):
        f = desugar(parse("s \\/ ~s"))
        assert godel_transform(f, ZERO) == f == Join(S, Impl(S, ZERO))

    def test_godel_with_atom_pi(self):
        f = desugar(parse("s \\/ ~s"))
        got = godel_transform(f, P)
        assert got == Join(Join(S, P), Impl(Join(S, P), P))

    def test_godel_meet_clause_at_zero(self):
        got = godel_transform(Meet(S, T), ZERO)
        nn = lambda x: Impl(Impl(x, ZERO), ZERO)
        assert got == Meet(nn(S), nn(T))

    def test_atom_collision_and_nand_rejected(self):
        with pytest.raises(AtomCollision):
            single_pi_neg_transform(Join(S, T), S)
        with pytest.raises(NandPresent):
            godel_transform(Nand(S, T), P)


class TestSubformulas:
    def test_atom(self):
        assert subformulas(S) == [S]
        assert complexity(S) == 1

    def test_implication(self):
        f = Impl(S, P)
        assert subformulas(f) == [S, P, f]
        assert complexity(f) == 3

    def test_modus_ponens_has_seven_nodes(self):
        assert complexity(parse("(s /\\ (s => p)) => p")) == 7

    def test_postorder_unique(self):
        f = Meet(Impl(S, P), Impl(S, P))
        assert subformulas(f) == [S, P, Impl(S, P), f]

    def test_atoms_of(self):
        assert atoms_of(parse("(s /\\ (s => p)) => p")) == {"s", "p"}


class TestJson:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_formula(rng, max_depth=4)
            assert formula_from_json(formula_to_json(f)) == f

    def test_shape(self):
        assert formula_to_json(Impl(S, ZERO)) == {
            "op": "impl",
            "args": [{"op": "atom", "args": ["s"]}, {"op": "0", "args": []}],
        }
