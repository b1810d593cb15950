"""Partition logic: the algebra of partitions on a finite set, tautology
checking by exhaustive model search, and a semantic-tableau prover with
countermodel extraction.

The relation route (PairRelation, dit/indit, closure/interior, the dual
algebra; core.RELATION_NAMES) is importable from here as well, and loads
partlog.relation, and with it numpy, on first use."""

from . import core
from .core import (
    BoolOpTable, EmptyBlock, InternalInvariantError, MissingElements,
    NotEquivalence, OverlappingBlocks, Partition, PartitionLogicError,
    Universe, UniverseMismatch, bottom, enumerate_partitions, graph_op,
    implies, join, logical_entropy, make_partition, meet, nand, neg, pi_neg,
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


def __getattr__(name: str):
    if name in core.RELATION_NAMES:
        return getattr(core, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
