"""Partition logic: the algebra of partitions on a finite set, tautology
checking by exhaustive model search, and a semantic-tableau prover with
countermodel extraction.

`import partlog` loads nothing but this package.  Every public name, and
every submodule, loads with its submodule on first use (PEP 562), so code
that only uses the partition algebra never compiles the prover.

The relation route (PairRelation, dit/indit, closure/interior, the dual
algebra; _EXPORTS["relation"]) is importable from here as well, and loads
partlog.relation on first use.  Its names are left out of __all__ to keep
`from partlog import *` small."""

__version__ = "0.1.0"

# Each submodule and the public names it lends the package.
_EXPORTS = {
    "core": (
        "BoolOpTable", "EmptyBlock", "InternalInvariantError",
        "MissingElements", "NotEquivalence", "OverlappingBlocks", "Partition",
        "PartitionLogicError", "Universe", "UniverseMismatch", "bottom",
        "enumerate_partitions", "graph_op", "implies", "join",
        "logical_entropy", "make_partition", "meet", "nand", "neg", "pi_neg",
        "refines", "top",
    ),
    "formula": (
        "Atom", "AtomCollision", "Diff", "DualFormula", "Equiv", "Formula",
        "Impl", "Inequiv", "Join", "Meet", "Nand", "NandPresent", "Nor", "Not",
        "ONE", "OpCode", "ParseError", "ZERO", "Zero", "One", "cnf_of",
        "complexity", "desugar", "dnf_dual_of", "dual_opcode", "dual_to_text",
        "dualize", "dualize_back", "double_pi_neg_transform", "lower",
        "godel_transform", "parse", "single_pi_neg_transform", "subformulas",
        "to_text",
    ),
    "semantics": (
        "Assignment", "BudgetExceeded", "CheckResult", "NotPiRegular",
        "TooLarge", "UnboundAtom", "bell", "boolean_core",
        "check_partition_tautology", "check_weak", "chi", "eval_dual",
        "eval_formula", "is_pi_regular", "is_truth_table_tautology", "omega",
        "omega_countermodel",
    ),
    "tableau": (
        "Branch", "BranchClosed", "BranchIncomplete", "ProverConfig",
        "ProverOutcome", "SignedStatement", "VerificationFailed",
        "extract_model", "prove", "verify_outcome",
    ),
    "relation": (
        "RelationKind", "PairRelation", "closure", "interior",
        "chain_bounded_closure", "dit", "indit", "from_equivalence",
        "pi_nand", "eq_meet", "eq_join", "eq_diff", "eq_nor", "dual_op",
        "relation_to_json", "relation_from_json",
    ),
    "cli": (), "corpus": (), "identities": (), "jsonout": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for module in ("core", "formula", "semantics", "tableau")
           for name in (module, *_EXPORTS[module])]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    value = import_module("%s.%s" % (__name__, module or name))
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
