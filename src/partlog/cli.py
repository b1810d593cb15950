"""Command-line front end.

Subcommands: parse, eval, check, prove, dual, transform, identities, entropy.
Only prove loads the tableau; only identities loads the relation route.
JSON goes to stdout with sorted keys and a "schema": "partlog/1" tag so golden
files are byte-stable; human-readable errors go to stderr.  Every JSON command
writes through jsonout, whose bytes are exactly those of json.dumps(payload,
sort_keys=True, indent=2): it writes every value from one explicit stack of
open containers, scalars with json's own helpers, so no depth of formula
exhausts its stack; prove's trace reaches it as text written in one pass
(tableau.trace_sections).  A model file must be an object with a list of
string labels as its universe and lists of lists of labels as its bindings;
any other file exits 65.

Exit codes: 0 success (tautology / proved for check and prove), 1 countermodel
or failed identities, 2 prover gave up (unknown), 64 usage or parse error,
65 bad model file, 70 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonout
from .core import InternalInvariantError, PartitionLogicError, logical_entropy
from .core import partition_to_json
from .formula import (
    AtomCollision, NandPresent, ParseError, desugar,
    double_pi_neg_transform, dual_to_text, dualize, formula_to_json,
    godel_transform, parse as parse_formula, single_pi_neg_transform, to_text,
)
from .semantics import (
    BudgetExceeded, UnboundAtom, assignment_from_json, check_partition_tautology,
    check_result_to_json, check_weak, eval_formula,
)

SCHEMA = "partlog/1"

EX_OK = 0
EX_COUNTERMODEL = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_MODEL = 65
EX_INTERNAL = 70


def _emit(payload: dict) -> None:
    # encode builds every piece before any is written, so a value it cannot
    # write exits 70 with empty stdout; the pieces are written, not joined
    # into one string, as the JSON of a deep formula runs to hundreds of MB
    out = sys.stdout
    out.writelines(jsonout.encode({"schema": SCHEMA, **payload}))
    out.write("\n")


def _fail(code: int, message: str) -> int:
    print("partlog: %s" % message, file=sys.stderr)
    return code


def _load_model(path: str):
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return assignment_from_json(obj)
    except (OSError, ValueError, PartitionLogicError) as exc:
        raise _ModelFileError(str(exc)) from exc
    except RecursionError:      # json.load recurses on nested lists
        raise _ModelFileError("nested too deeply") from None


class _ModelFileError(Exception):
    pass


def _cmd_parse(args) -> int:
    ast = parse_formula(args.formula)
    _emit(formula_to_json(ast))
    return EX_OK


def _cmd_eval(args) -> int:
    f = parse_formula(args.formula)
    model = _load_model(args.model)
    value = eval_formula(f, model)
    _emit(partition_to_json(value))
    return EX_OK


def _cmd_check(args) -> int:
    f = parse_formula(args.formula)
    checker = check_weak if args.weak else check_partition_tautology
    result = checker(f, args.max_n, budget=args.budget)
    _emit(check_result_to_json(result))
    return EX_COUNTERMODEL if result.is_countermodel else EX_OK


def tableau_prove(f, cfg=None):
    from .tableau import prove      # only prove loads the tableau
    return prove(f, cfg)


def outcome_to_json(outcome, include_trace: bool = False) -> dict:
    """tableau.outcome_to_json, with the trace as tableau.trace_sections."""
    from .tableau import outcome_to_json, trace_sections
    out = outcome_to_json(outcome)
    if include_trace and outcome.trace is not None:
        out.update(trace_sections(outcome.trace))
    return out


def _cmd_prove(args) -> int:
    from .tableau import ProverConfig
    f = parse_formula(args.formula)
    cfg = ProverConfig(max_elements=args.max_elements, max_steps=args.max_steps)
    outcome = tableau_prove(f, cfg)
    _emit(outcome_to_json(outcome, include_trace=args.trace))
    return {"proved": EX_OK, "countermodel": EX_COUNTERMODEL,
            "unknown": EX_UNKNOWN}[outcome.verdict]


def _cmd_dual(args) -> int:
    f = desugar(parse_formula(args.formula))
    print(dual_to_text(dualize(f)))
    return EX_OK


_TRANSFORMS = {"single-pi": single_pi_neg_transform,
               "double-pi": double_pi_neg_transform,
               "godel": godel_transform}


def _cmd_transform(args) -> int:
    f = desugar(parse_formula(args.formula))
    try:
        pi = parse_formula(args.pi)     # the transforms accept only an atom or 0
    except ParseError as exc:
        return _fail(EX_USAGE, "--pi: %s" % exc)
    transformed = _TRANSFORMS[args.kind](f, pi)
    print(to_text(transformed))
    return EX_OK


def _cmd_identities(args) -> int:
    from .identities import SuiteContext, run_suite
    seed = args.seed
    env_seed = os.environ.get("PARTLOG_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    if args.max_n < 2:
        raise ValueError("--max-n must be at least 2")
    ctx = SuiteContext(max_n=args.max_n, seed=seed)
    results = run_suite(ctx)
    passed = failed = 0
    for r in results:
        if r.ok:
            passed += 1
            print("PASS %-55s %7d checks" % (r.name, r.checks))
        else:
            failed += 1
            print("FAIL %-55s %s" % (r.name, r.detail))
    print("passed %d failed %d (max_n=%d seed=%d)"
          % (passed, failed, args.max_n, seed))
    return EX_OK if failed == 0 else EX_COUNTERMODEL


def _cmd_entropy(args) -> int:
    model = _load_model(args.model)
    h = logical_entropy(model.get(args.atom))
    _emit({"entropy": "%d/%d" % (h.numerator, h.denominator),
           "numerator": h.numerator, "denominator": h.denominator})
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="partlog",
        description="Partition logic: evaluate, check, and prove formulas "
                    "over the lattice of partitions of a finite set.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its AST as JSON")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula under a model file")
    p.add_argument("formula")
    p.add_argument("--model", required=True, help="assignment JSON file")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("check", help="brute-force tautology check")
    p.add_argument("formula")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--weak", action="store_true",
                   help="hunt evaluations to 0 instead of non-1")
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="maximum number of assignment evaluations")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("prove", help="run the semantic tableau prover")
    p.add_argument("formula")
    p.add_argument("--max-elements", type=int, default=8, dest="max_elements")
    p.add_argument("--max-steps", type=int, default=200_000, dest="max_steps")
    p.add_argument("--trace", action="store_true",
                   help="include the rule-application trace in the output")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("dual", help="print the dual equivalence-relation formula")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("transform", help="transform a subset tautology")
    p.add_argument("formula")
    p.add_argument("--kind", required=True, choices=sorted(_TRANSFORMS))
    p.add_argument("--pi", required=True,
                   help="fresh atom name, or 0 for the 0-transform")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("identities", help="run the full invariant suite")
    p.add_argument("--max-n", type=int, default=4, dest="max_n")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed (the PARTLOG_SEED env var overrides this)")
    p.set_defaults(fn=_cmd_identities)

    p = sub.add_parser("entropy", help="logical entropy of one bound atom")
    p.add_argument("--model", required=True)
    p.add_argument("--atom", required=True)
    p.set_defaults(fn=_cmd_entropy)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        return _fail(EX_USAGE, str(exc))
    except (AtomCollision, NandPresent, BudgetExceeded, ValueError) as exc:
        return _fail(EX_USAGE, str(exc))
    except _ModelFileError as exc:
        return _fail(EX_MODEL, "bad model file: %s" % exc)
    except UnboundAtom as exc:
        return _fail(EX_MODEL, "model does not bind atom %s" % exc)
    except InternalInvariantError as exc:
        return _fail(EX_INTERNAL, "internal invariant violation: %s" % exc)
    except RecursionError:
        return _fail(EX_USAGE, "formula is nested too deeply")
    except Exception as exc:
        return _fail(EX_INTERNAL, "internal error: %s: %s" % (type(exc).__name__, exc))


if __name__ == "__main__":
    sys.exit(main())
