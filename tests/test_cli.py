"""CLI: subcommands, exit codes, JSON schemas, and byte-stable output."""

import json
import os

import pytest

from partlog.cli import main


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

    def test_budget_exit_64(self, capture):
        code, _, err = capture("check", "s \\/ t \\/ p", "--max-n", "4",
                               "--budget", "10")
        assert code == 64
        assert "budget" in err


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


class TestEntropy:
    def test_example_value(self, capture, model_file):
        code, out, _ = capture("entropy", "--model", model_file, "--atom", "s")
        assert code == 0
        obj = json.loads(out)
        assert obj["entropy"] == "12/25"
        assert (obj["numerator"], obj["denominator"]) == (12, 25)


class TestIdentities:
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

    def test_failing_entry_exits_one(self, capture, monkeypatch):
        import partlog.cli as cli
        from partlog.identities import SuiteResult

        def rigged(ctx, names=None):
            return [SuiteResult("core/demo", True, 3),
                    SuiteResult("core/broken", False, 0, "boom")]

        monkeypatch.setattr(cli, "run_suite", rigged)
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


class TestDeepFormula:
    DEEP = " => ".join(["s"] * 3000)

    @pytest.mark.parametrize("command", ["parse", "check", "prove"])
    def test_exits_64(self, capture, command):
        code, out, err = capture(command, self.DEEP)
        assert code == 64
        assert out == ""
        assert "nested too deeply" in err


class TestDeterminism:
    def test_byte_stable_output(self, capture):
        a = capture("check", "((s => p) => s) => s", "--max-n", "3")
        b = capture("check", "((s => p) => s) => s", "--max-n", "3")
        assert a == b

    def test_usage_error_exits_64(self, capture):
        assert capture("frobnicate")[0] == 64
