"""Partition logic: the algebra of partitions on a finite set, tautology
checking by exhaustive model search, and a semantic-tableau prover with
countermodel extraction."""

from .core import (
    BoolOpTable, EmptyBlock, InternalInvariantError, MissingElements,
    NotEquivalence, OverlappingBlocks, PairRelation, Partition,
    PartitionLogicError, RelationKind, Universe, UniverseMismatch, bottom,
    closure, dit, dual_op, enumerate_partitions, eq_diff, eq_join, eq_meet,
    eq_nor, from_equivalence, graph_op, implies, indit, interior, join,
    logical_entropy, make_partition, meet, nand, neg, pi_nand, pi_neg,
    refines, top,
)
from .formula import (
    Atom, AtomCollision, Diff, DualFormula, Equiv, Formula, Impl, Inequiv,
    Join, Meet, Nand, NandPresent, Nor, Not, ONE, OpCode, ParseError, ZERO,
    Zero, One, cnf_of, complexity, desugar, dnf_dual_of, dual_opcode,
    dual_to_text, dualize, dualize_back, double_pi_neg_transform, lower,
    godel_transform, parse, single_pi_neg_transform, subformulas, to_text,
)
from .semantics import (
    Assignment, BudgetExceeded, CheckResult, NotPiRegular, TooLarge,
    UnboundAtom, bell, boolean_core, check_partition_tautology, check_weak,
    chi, eval_dual, eval_formula, is_pi_regular, is_truth_table_tautology,
    omega, omega_countermodel,
)
from .tableau import (
    Branch, BranchClosed, BranchIncomplete, ProverConfig, ProverOutcome,
    SignedStatement, VerificationFailed, extract_model, prove, verify_outcome,
)

__version__ = "0.1.0"
