"""`import partlog` loads nothing but the package: each public name and each
submodule loads on first use, and only `prove` loads the tableau."""

import importlib
import os
import subprocess
import sys

import pytest

import partlog
import partlog.core

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that imports partlog from src and
    return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bare_import_loads_only_the_package():
    out = _fresh("import sys\n"
                 "before = set(sys.modules)\n"
                 "import partlog\n"
                 "print(sorted(set(sys.modules) - before))")
    assert out == "['partlog']"


def test_from_import_of_core_loads_only_core():
    out = _fresh("import sys\n"
                 "import partlog\n"
                 "before = set(sys.modules)\n"
                 "from partlog import core\n"
                 "print(sorted(m for m in set(sys.modules) - before"
                 " if m.startswith('partlog')))")
    assert out == "['partlog.core']"


# Runs one CLI command in a fresh interpreter and prints whether the tableau
# was loaded.
COMMAND = r"""
import contextlib, io, json, os, sys
from partlog.cli import main

model = os.path.join(sys.argv[1], "model.json")
with open(model, "w") as fh:
    json.dump({"universe": ["a", "b", "c"],
               "bindings": {"s": [["a", "b"], ["c"]], "t": [["a"], ["b", "c"]]}}, fh)
argv = [model if a == "MODEL" else a for a in sys.argv[3:]]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
assert code == int(sys.argv[2]), (argv, code)
print("partlog.tableau" in sys.modules)
"""


@pytest.mark.parametrize("argv, want", [
    (["parse", "s => t"], 0),
    (["check", "s => s", "--max-n", "3"], 0),
    (["check", "s", "--weak", "--max-n", "3"], 1),
    (["eval", "s => t", "--model", "MODEL"], 0),
    (["dual", "s => t"], 0),
    (["transform", "s \\/ ~s", "--kind", "godel", "--pi", "p"], 0),
    (["entropy", "--model", "MODEL", "--atom", "s"], 0),
])
def test_commands_other_than_prove_never_load_the_tableau(tmp_path, argv, want):
    assert _fresh(COMMAND, str(tmp_path), str(want), *argv) == "False"


# Runs check in a fresh interpreter and prints whether fractions was loaded
# after importing partlog.core and after the command.
NO_FRACTIONS = r"""
import contextlib, io, sys
import partlog.core
loaded = ["fractions" in sys.modules]
from partlog.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check", "s => s", "--max-n", "3"]) == 0
loaded.append("fractions" in sys.modules)
print(loaded)
"""


def test_core_and_check_never_load_fractions():
    # only logical_entropy needs it, and it loads it on first use
    assert _fresh(NO_FRACTIONS) == "[False, False]"


def test_prove_loads_the_tableau(tmp_path):
    argv = ["prove", "s => s", "--trace", "--max-steps", "300"]
    assert _fresh(COMMAND, str(tmp_path), "0", *argv) == "True"


def test_submodules_are_reachable_after_a_bare_import():
    out = _fresh("import partlog\n"
                 "outcome = partlog.tableau.prove(partlog.parse('s => s'))\n"
                 "print(outcome.verdict, partlog.core.__name__)")
    assert out == "proved partlog.core"


def test_every_export_is_its_home_submodules_object():
    for module, names in partlog._EXPORTS.items():
        home = importlib.import_module("partlog." + module)
        assert getattr(partlog, module) is home
        for name in names:
            assert getattr(partlog, name) is getattr(home, name), name


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from partlog import *", namespace)
    assert set(partlog.__all__) <= set(namespace)
    for name in partlog.__all__:
        assert namespace[name] is getattr(partlog, name)


def test_all_keeps_the_eager_exports_and_leaves_out_the_relation_route():
    assert {"core", "formula", "semantics", "tableau"} <= set(partlog.__all__)
    assert not set(partlog.__all__) & set(partlog._EXPORTS["relation"])
    assert len(partlog.__all__) == len(set(partlog.__all__))


def test_dir_lists_every_export():
    listed = set(dir(partlog))
    assert set(partlog.__all__) <= listed
    assert set(partlog._EXPORTS["relation"]) <= listed
    assert set(partlog._EXPORTS) <= listed


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        partlog.no_such_name
    with pytest.raises(ImportError):
        from partlog import no_such_name    # noqa: F401
