"""CLI: subcommands, exit codes, JSON schemas, and byte-stable output."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlog.cli import main
from partlog.core import logical_entropy, partition_to_json
from partlog.corpus import formula_corpus
from partlog.formula import formula_to_json, parse, to_text
from partlog.semantics import (
    assignment_from_json, check_partition_tautology, check_result_to_json, check_weak,
    eval_formula,
)
from partlog.tableau import ProverConfig, outcome_to_json, prove


@pytest.fixture()
def capture(capsys):
    def run(*argv, env=None):
        saved = {}
        if env:
            for k, v in env.items():
                saved[k] = os.environ.get(k)
                os.environ[k] = v
        try:
            code = main(list(argv))
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "universe": ["a", "b", "c", "d", "e"],
        "bindings": {"s": [["a", "b", "c"], ["d", "e"]],
                     "p": [["a", "b"], ["c", "d", "e"]]},
    }))
    return str(path)


class TestParse:
    def test_ast_json(self, capture):
        code, out, _ = capture("parse", "s => p")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "partlog/1"
        assert obj["op"] == "impl"

    def test_parse_error_exits_64(self, capture):
        code, _, err = capture("parse", "s =>")
        assert code == 64
        assert "position" in err


class TestEval:
    def test_implication_example(self, capture, model_file):
        code, out, _ = capture("eval", "s => p", "--model", model_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["blocks"] == [["a"], ["b"], ["c", "d", "e"]]

    def test_missing_model_file_exits_65(self, capture):
        code, _, err = capture("eval", "s", "--model", "/nonexistent.json")
        assert code == 65
        assert "model" in err

    def test_unbound_atom_exits_65(self, capture, model_file):
        code, _, _ = capture("eval", "s => q", "--model", model_file)
        assert code == 65

    def test_corrupt_model_exits_65(self, capture, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert capture("eval", "s", "--model", str(bad))[0] == 65

    @pytest.mark.parametrize("model", [
        {"universe": [1.5, 2.5], "bindings": {"s": [[1.5], [2.5]]}},
        {"universe": ["a", "b"], "bindings": []},
        {"universe": "ab", "bindings": {"s": [["a", "b"]]}},
        {"universe": ["a", "b"], "bindings": {"s": "ab"}},
        {"universe": ["a", "b"], "bindings": {"s": ["ab"]}},
        {"universe": [True, None], "bindings": {"s": [[True, None]]}},
        {"universe": ["a", "b"], "bindings": {"s": [["a", 1], ["b"]]}},
        {"universe": ["a", "b"]},
        {"bindings": {}},
        ["a", "b"],
        "ab",
    ])
    @pytest.mark.parametrize("argv", [["eval", "s"], ["entropy", "--atom", "s"]])
    def test_model_of_the_wrong_shape_exits_65(self, capture, tmp_path, model, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(model))
        code, out, err = capture(*argv, "--model", str(bad))
        assert (code, out) == (65, "")
        assert "bad model file" in err

    @pytest.mark.parametrize("argv", [["eval", "s"], ["entropy", "--atom", "s"]])
    def test_deeply_nested_model_exits_65(self, capture, tmp_path, argv):
        # json.load raises RecursionError on this file; it is a bad model
        # file, not a formula nested too deeply
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = capture(*argv, "--model", str(deep))
        assert (code, out) == (65, "")
        assert "bad model file" in err


class TestCheck:
    def test_tautology_exit_zero(self, capture):
        code, out, _ = capture("check", "(s /\\ (s => p)) => p", "--max-n", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "tautology_up_to"

    def test_countermodel_exit_one(self, capture):
        code, out, _ = capture("check", "((s => p) => s) => s", "--max-n", "3")
        assert code == 1
        obj = json.loads(out)
        assert obj["verdict"] == "countermodel"
        assert obj["bindings"]["s"] == [["u0", "u1"], ["u2"]]

    def test_weak_check(self, capture):
        code, out, _ = capture("check", "s \\/ ~s", "--weak", "--max-n", "3")
        assert code == 0
        assert json.loads(out)["verdict"] == "weak_tautology_up_to"

    @pytest.mark.parametrize("argv, want", [
        (["1"], ("tautology_up_to", 0)),
        (["0 => 1", "--weak"], ("weak_tautology_up_to", 0)),
        (["0"], ("countermodel", 1)),
    ])
    def test_atom_free_formula_enumerates_no_partitions(self, capture, monkeypatch,
                                                        argv, want):
        # one empty assignment decides every size, even up to 200 elements
        import partlog.semantics as semantics

        def refuse(n):
            raise AssertionError("called for n = %d" % n)

        monkeypatch.setattr(semantics, "partitions_on", refuse)
        monkeypatch.setattr(semantics, "bell", refuse)
        code, out, _ = capture("check", *argv, "--max-n", "200")
        assert (json.loads(out)["verdict"], code) == want

    def test_budget_exit_64(self, capture):
        code, _, err = capture("check", "s \\/ t \\/ p", "--max-n", "4",
                               "--budget", "10")
        assert code == 64
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ["s", "--max-n", "600"], ["s", "--max-n", "3000"],
        ["s", "--max-n", "99999999999999999999"],
        ["1", "--max-n", "99999999999999999999"],
    ])
    def test_far_over_budget_exits_64_at_once(self, capture, argv):
        start = time.perf_counter()
        code, out, err = capture("check", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (64, "")
        assert "more than its budget of 10000000" in err

    def test_raised_budget_counts_the_grid_at_once(self, capture):
        # bell(2..600) from one triangle; its countermodel is on two elements
        start = time.perf_counter()
        code, out, err = capture("check", "s", "--max-n", "600",
                                 "--budget", str(10 ** 1200))
        assert time.perf_counter() - start < 1.0
        want = {"bindings": {"s": [["u0", "u1"]]}, "evaluated": [["u0", "u1"]],
                "max_n": 600, "pair": ["u0", "u1"], "schema": "partlog/1",
                "universe": ["u0", "u1"], "verdict": "countermodel"}
        assert code == 1 and err == ""
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv, code, want", [
        (["1"], 0, {"verdict": "tautology_up_to"}),
        (["1", "--weak"], 0, {"verdict": "weak_tautology_up_to"}),
        (["0"], 1, {"verdict": "countermodel", "bindings": {},
                    "evaluated": [["u0", "u1"]], "pair": ["u0", "u1"],
                    "universe": ["u0", "u1"]}),
    ])
    def test_atom_free_check_decides_on_two_elements(self, capture, argv, code,
                                                     want):
        start = time.perf_counter()
        got = capture("check", *argv, "--max-n", "3000")
        assert time.perf_counter() - start < 1.0
        want = dict(want, max_n=3000, schema="partlog/1")
        assert got == (code, json.dumps(want, indent=2, sort_keys=True) + "\n", "")


class TestProve:
    def test_proved_exit_zero(self, capture):
        code, out, _ = capture("prove", "(s /\\ (s => p)) => p")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "proved"
        assert "trace" not in obj

    def test_trace_flag(self, capture):
        code, out, _ = capture("prove", "(s /\\ (s => p)) => p", "--trace")
        assert code == 0
        obj = json.loads(out)
        assert obj["trace"][0]["rule"] == "root"

    def test_countermodel_exit_one(self, capture):
        code, out, _ = capture("prove", "((s => p) => s) => s")
        assert code == 1
        obj = json.loads(out)
        assert obj["pair"] == ["u0", "u1"]
        assert obj["model"]["bindings"]["p"] == [["u0", "u1", "u2"]]

    def test_unknown_exit_two(self, capture):
        code, out, _ = capture("prove", "~~((s /\\ t) \\/ (s | t))",
                               "--max-elements", "2")
        assert code == 2
        assert json.loads(out)["reason"] == "max_elements"

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_non_positive_max_steps_exits_64(self, capture, steps):
        code, out, err = capture("prove", "s", "--max-steps", steps)
        assert code == 64
        assert out == ""
        assert "max_steps" in err


class TestDualTransform:
    def test_dual_text(self, capture):
        code, out, _ = capture("dual", "(s /\\ (s => t)) => t")
        assert code == 0
        assert out.strip() == "t^d - (s^d \\/ (t^d - s^d))"

    def test_transform_single_pi(self, capture):
        code, out, _ = capture("transform", "s \\/ ~s", "--kind", "single-pi",
                               "--pi", "p")
        assert code == 0
        assert out.strip() == "(s => p) \\/ ((s => p) => p)"

    def test_transform_godel_zero_sentinel(self, capture):
        code, out, _ = capture("transform", "s \\/ ~s", "--kind", "godel",
                               "--pi", "0")
        assert code == 0
        assert out.strip() == "s \\/ (s => 0)"

    def test_atom_collision_exits_64(self, capture):
        code, _, _ = capture("transform", "s \\/ ~s", "--kind", "godel",
                             "--pi", "s")
        assert code == 64

    @pytest.mark.parametrize("pi", ["1", "", "Q", "s => t"])
    def test_pi_that_is_not_an_atom_or_zero_exits_64(self, capture, pi):
        code, out, err = capture("transform", "s \\/ ~s", "--kind", "single-pi",
                                 "--pi", pi)
        assert code == 64
        assert out == "" and err.startswith("partlog: ")

    @pytest.mark.parametrize("pi", ["", "s =>"])
    def test_pi_parse_error_names_the_option(self, capture, pi):
        code, out, err = capture("transform", "s \\/ ~s", "--kind", "single-pi",
                                 "--pi", pi)
        assert code == 64 and out == ""
        assert err.startswith("partlog: --pi: unexpected 'end of input'")

    def test_pi_atom_round_trips_through_parse(self, capture):
        code, out, _ = capture("transform", "s \\/ ~s", "--kind", "single-pi",
                               "--pi", "q")
        assert code == 0
        assert out.strip() == "(s => q) \\/ ((s => q) => q)"


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["s", "t", "universe", "bindings"]), inner,
                      max_size=3),
    max_leaves=10)


def partitions_of(u):
    return st.lists(st.integers(0, len(u) - 1), min_size=len(u), max_size=len(u)).map(
        lambda ix: [[x for x, i in zip(u, ix) if i == k] for k in sorted(set(ix))])


def models_on(u):
    bindings = st.fixed_dictionaries({"s": partitions_of(u), "t": partitions_of(u)})
    return st.fixed_dictionaries({"universe": st.just(u), "bindings": bindings})


VALID_MODELS = st.lists(st.sampled_from("abcd"), min_size=2, max_size=4,
                        unique=True).flatmap(models_on)


def relabel(model, labels):
    """model with each label x written as labels.get(x, x) throughout."""
    return {"universe": [labels.get(x, x) for x in model["universe"]],
            "bindings": {name: [[labels.get(x, x) for x in b] for b in blocks]
                         for name, blocks in model["bindings"].items()}}


MODELS = (VALID_MODELS
          # floats, ints, bools, None or repeated labels in place of strings
          | st.builds(relabel, VALID_MODELS, st.dictionaries(
              st.sampled_from("abcd"),
              st.sampled_from(["a", "b", "", 0, 1, 1.5, True, None]), max_size=2))
          # one field of the wrong shape
          | st.builds(lambda m, key, v: {**m, key: v}, VALID_MODELS,
                      st.sampled_from(["universe", "bindings"]), ANY_JSON)
          | st.builds(lambda m, v: {**m, "bindings": {**m["bindings"], "s": v}},
                      VALID_MODELS, ANY_JSON | st.lists(ANY_JSON, max_size=3))
          | ANY_JSON)


@settings(max_examples=300, deadline=None)
@given(MODELS)
def test_any_model_file_exits_0_or_65(model):
    # the wrong shapes, floats and non-string labels included: a model file
    # is either read or refused as a bad model file, never an internal error
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w") as fh:
            json.dump(model, fh)
        for argv in (["eval", "s => t", "--model", path],
                     ["entropy", "--model", path, "--atom", "s"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 65), (model, argv, code, err.getvalue())


class TestEntropy:
    def test_example_value(self, capture, model_file):
        code, out, _ = capture("entropy", "--model", model_file, "--atom", "s")
        assert code == 0
        obj = json.loads(out)
        assert obj["entropy"] == "12/25"
        assert (obj["numerator"], obj["denominator"]) == (12, 25)


IDENTITIES_MAX_N_3_SEED_0 = """\
PASS core/open-closed-fixpoints                                   28 checks
PASS core/interior-lemma                                         300 checks
PASS core/join-dits-are-union                                     29 checks
PASS core/common-dits                                             17 checks
PASS core/implication-two-routes                                  29 checks
PASS core/implication-adjunction                                 133 checks
PASS core/chain-length-bounds                                     58 checks
PASS core/orthogonality                                           29 checks
PASS core/refinement-sandwich                                     58 checks
PASS core/weak-demorgan                                          133 checks
PASS core/modular-atom-nand-coatom                                 6 checks
PASS core/graph-op-two-routes                                    464 checks
PASS core/dual-algebra-dualities                                 116 checks
PASS formula/parse-print-round-trip                              500 checks
PASS formula/desugar-idempotent                                  300 checks
PASS formula/dualize-involution                                  300 checks
PASS formula/cnf-table-equivalence                               435 checks
PASS formula/dnf-dual-table-equivalence                          464 checks
PASS semantics/duality-principle                                5000 checks
PASS semantics/reduction-principle                                16 checks
PASS semantics/weak-tautologies-are-subset-tautologies            60 checks
PASS semantics/transform-propositions                            170 checks
PASS semantics/ore-distributivity                                500 checks
PASS semantics/dual-ore                                          500 checks
PASS semantics/lawvere-boundary-core                              29 checks
PASS semantics/co-leibniz                                        125 checks
PASS semantics/cnf-decomposition                                 500 checks
PASS semantics/dnf-decomposition                                 500 checks
PASS semantics/boolean-core-homomorphisms                         51 checks
PASS semantics/block-algebra-cardinality                           7 checks
PASS semantics/pi-nand-reduces-to-nand                            29 checks
PASS tableau/soundness-cross-check                                10 checks
PASS tableau/branch-closing-lemma-neutral                         10 checks
PASS tableau/chain-length-discipline                             266 checks
PASS tableau/negation-as-derived-rules                            12 checks
PASS tableau/stage-monotonicity                                    3 checks
PASS tableau/rule-local-soundness                                127 checks
passed 37 failed 0 (max_n=3 seed=0)
"""


class TestIdentities:
    def test_golden_at_max_n_3(self, capture):
        # every entry's name, order and check count
        assert capture("identities", "--max-n", "3", "--seed", "0") == \
            (0, IDENTITIES_MAX_N_3_SEED_0, "")

    def test_small_run_passes(self, capture):
        code, out, _ = capture("identities", "--max-n", "2", "--seed", "1")
        assert code == 0
        assert "failed 0" in out
        assert "seed=1" in out

    def test_env_seed_overrides_flag(self, capture):
        code, out, _ = capture("identities", "--max-n", "2", "--seed", "1",
                               env={"PARTLOG_SEED": "7"})
        assert code == 0
        assert "seed=7" in out

    @pytest.mark.parametrize("max_n", ["-1", "0", "1"])
    def test_max_n_below_two_exits_64(self, capture, max_n):
        code, out, err = capture("identities", "--max-n", max_n)
        assert (code, out) == (64, "")
        assert "--max-n must be at least 2" in err

    def test_failing_entry_exits_one(self, capture, monkeypatch):
        import partlog.identities as identities
        from partlog.identities import SuiteResult

        def rigged(ctx, names=None):
            return [SuiteResult("core/demo", True, 3),
                    SuiteResult("core/broken", False, 0, "boom")]

        # cli imports the suite when the command runs
        monkeypatch.setattr(identities, "run_suite", rigged)
        code, out, _ = capture("identities")
        assert code == 1
        assert "FAIL core/broken" in out and "passed 1 failed 1" in out


class TestInternalInvariantExitCode:
    def test_exit_70(self, capture, model_file, monkeypatch):
        from partlog.core import InternalInvariantError
        import partlog.cli as cli

        def boom(*a, **k):
            raise InternalInvariantError("routes disagree")

        monkeypatch.setattr(cli, "eval_formula", boom)
        code, _, err = capture("eval", "s", "--model", model_file)
        assert code == 70
        assert "internal invariant" in err


class TestUnexpectedErrorExitCode:
    def test_exit_70(self, capture, model_file, monkeypatch):
        import partlog.cli as cli

        def boom(*a, **k):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "eval_formula", boom)
        code, _, err = capture("eval", "s", "--model", model_file)
        assert code == 70
        assert "RuntimeError: unexpected" in err


class TestUnsupportedValueExitCode:
    def test_exit_70(self, capture, monkeypatch):
        import partlog.cli as cli

        monkeypatch.setattr(cli, "formula_to_json", lambda f: {"op": {1, 2}})
        code, out, err = capture("parse", "s")
        assert (code, out) == (70, "")
        assert "TypeError: Object of type set is not JSON serializable" in err


MODEL = {"universe": ["a", "b", "c", "d"],
         "bindings": {"s": [["a", "b"], ["c", "d"]], "t": [["a"], ["b", "c", "d"]]}}


class TestSameBytesAsJsonDumps:
    """Every JSON command's stdout is json.dumps(sort_keys=True, indent=2) of
    the library's payload plus the schema tag."""

    @staticmethod
    def expected(payload) -> str:
        return json.dumps({"schema": "partlog/1", **payload}, sort_keys=True,
                          indent=2) + "\n"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_formula_commands(self, capture, tmp_path, seed):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MODEL))
        model = assignment_from_json(MODEL)
        cfg = ProverConfig(max_elements=5, max_steps=300)
        for f in formula_corpus(seed, 12, max_depth=3, atom_names=("s", "t")):
            text = to_text(f)
            f = parse(text)
            runs = [
                (["parse"], formula_to_json(f)),
                (["eval", "--model", str(path)],
                 partition_to_json(eval_formula(f, model))),
                (["check", "--max-n", "3"],
                 check_result_to_json(check_partition_tautology(f, 3))),
                (["check", "--weak", "--max-n", "3"],
                 check_result_to_json(check_weak(f, 3))),
                (["prove", "--max-elements", "5", "--max-steps", "300"],
                 outcome_to_json(prove(f, cfg))),
                (["prove", "--max-elements", "5", "--max-steps", "300", "--trace"],
                 outcome_to_json(prove(f, cfg), include_trace=True)),
            ]
            for argv, payload in runs:
                code, out, err = capture(argv[0], text, *argv[1:])
                assert err == "" and code in (0, 1, 2), argv
                assert out == self.expected(payload), argv

    def test_entropy(self, capture, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(MODEL))
        for atom in ("s", "t"):
            h = logical_entropy(assignment_from_json(MODEL).get(atom))
            code, out, _ = capture("entropy", "--model", str(path), "--atom", atom)
            assert code == 0
            assert out == self.expected({"entropy": "%d/%d" % (h.numerator, h.denominator),
                                         "numerator": h.numerator,
                                         "denominator": h.denominator})


class TestTraceWriter:
    """prove --trace writes its statements, steps and branches straight from
    the prover's records; the bytes are json.dumps(sort_keys=True, indent=2)
    of the library's outcome_to_json(..., include_trace=True)."""

    EXIT = {"proved": 0, "countermodel": 1, "unknown": 2}

    def answer(self, capture, text, cfg=None, *argv):
        outcome = prove(parse(text), cfg)
        code, out, err = capture("prove", text, "--trace", *argv)
        assert (code, err) == (self.EXIT[outcome.verdict], "")
        assert out == TestSameBytesAsJsonDumps.expected(
            outcome_to_json(outcome, include_trace=True))
        return outcome, json.loads(out)

    def test_perfbench_shape(self, capture):
        # depth-4 formulas over s, t at the perfbench prove budgets
        cfg = ProverConfig(max_elements=5, max_steps=300)
        verdicts, long_unknowns = Counter(), 0
        for f in formula_corpus(0, 60, max_depth=4, atom_names=("s", "t")):
            outcome, _ = self.answer(capture, to_text(f), cfg, "--max-elements", "5",
                                     "--max-steps", "300")
            verdicts[outcome.verdict] += 1
            long_unknowns += (outcome.verdict == "unknown"
                              and len(outcome.trace.steps) >= 250)
        assert min(verdicts["proved"], verdicts["countermodel"]) > 0
        assert long_unknowns >= 10

    def test_a_proof_without_statements(self, capture):
        # the root 1 closes at once: no statement, and steps that cite nothing
        _, doc = self.answer(capture, "1")
        assert doc["statements"] == []
        assert doc["trace"] == [
            {"rule": "root", "premises": [], "conclusions": [], "branch": 0},
            {"rule": "close", "premises": [], "conclusions": [], "branch": 0}]

    def test_a_countermodel_without_steps(self, capture):
        _, doc = self.answer(capture, "0")
        assert (doc["statements"], doc["trace"]) == ([], [])
        assert doc["branches"] == [{"id": 0, "parent": -1}]
        assert doc["pair"] == ["u0", "u1"]

    def test_a_countermodel_next_to_its_trace(self, capture):
        _, doc = self.answer(capture, "((s => p) => s) => s")
        assert set(doc) == {"schema", "verdict", "model", "pair", "trace",
                            "statements", "branches"}
        assert doc["model"]["bindings"]["p"] == [["u0", "u1", "u2"]]

    def test_steps_with_and_without_premises_and_conclusions(self, capture):
        outcome, doc = self.answer(capture, "s => s")
        shapes = {(bool(st["premises"]), bool(st["conclusions"])) for st in doc["trace"]}
        assert shapes == {(False, True), (True, True), (True, False)}
        assert len(doc["statements"]) == len(outcome.trace.statements)


# parses argv[1] through main in one interpreter
PARSE = """
import sys
from partlog.cli import main
sys.exit(main(["parse", sys.argv[1]]))
"""


class TestDeepFormula:
    DEEP = " => ".join(["s"] * 3000)

    def test_parse_matches_json_dumps(self, capture):
        text = " => ".join(["s"] * 600)
        code, out, err = capture("parse", text)
        assert (code, err) == (0, "")
        # json's encoders recurse once or twice per level of the formula
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            want = json.dumps({"schema": "partlog/1", **formula_to_json(parse(text))},
                              sort_keys=True, indent=2)
        finally:
            sys.setrecursionlimit(limit)
        assert out == want + "\n"

    def test_parse_answers(self, tmp_path):
        # about 198 MB of JSON: written to a file, not captured
        path = tmp_path / "deep.json"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        try:
            with open(path, "wb") as fh:
                proc = subprocess.run([sys.executable, "-c", PARSE, self.DEEP],
                                      env=dict(os.environ, PYTHONPATH=src), stdout=fh,
                                      stderr=subprocess.PIPE, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, b"")
            with open(path, "rb") as fh:
                head = fh.read(40)
                fh.seek(-64, os.SEEK_END)
                tail = fh.read()
            assert head.startswith(b'{\n  "args": [\n    {\n      "args": [\n')
            assert tail.endswith(b'\n  "op": "impl",\n  "schema": "partlog/1"\n}\n')
        finally:
            path.unlink(missing_ok=True)

    @pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["no-trace", "trace"])
    def test_prove_runs_out_of_steps(self, capture, trace):
        code, out, err = capture("prove", self.DEEP, "--max-steps", "50", *trace)
        assert code == 2
        obj = json.loads(out)
        assert (obj["verdict"], obj["reason"]) == ("unknown", "max_steps")
        assert err == ""

    def test_check_answers(self, capture):
        code, out, err = capture("check", self.DEEP)
        assert code == 0
        assert json.loads(out)["verdict"] == "tautology_up_to"
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["dual"], ["transform", "--kind", "single-pi", "--pi", "q"]])
    def test_dual_and_transform_answer(self, capture, argv):
        code, out, err = capture(argv[0], self.DEEP, *argv[1:])
        assert code == 0
        assert out.strip() and err == ""


# runs each argv list of argv[1] through main, in one interpreter
RUN_ALL = """
import json, sys
from partlog.cli import main
for argv in json.loads(sys.argv[1]):
    print("exit", main(argv), flush=True)
"""


class TestDeterminism:
    def test_no_output_depends_on_a_hash(self):
        argvs = [["prove", f, "--trace", "--max-elements", "5", "--max-steps", "2000"]
                 for f in ["(s /\\ (s => t)) => t", "((s => t) => s) => s",
                           "(s <=> t) <=> (t <=> s)", "(s | t) => (t | s)"]]
        argvs.append(["identities", "--max-n", "2", "--seed", "0"])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(argvs)],
                                  env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count(b"exit ") == 5

    def test_byte_stable_output(self, capture):
        a = capture("check", "((s => p) => s) => s", "--max-n", "3")
        b = capture("check", "((s => p) => s) => s", "--max-n", "3")
        assert a == b

    def test_usage_error_exits_64(self, capture):
        assert capture("frobnicate")[0] == 64
