"""The relation route stays off the production path and stays importable."""

import os
import subprocess
import sys

import pytest

import partlog
import partlog.core
import partlog.relation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs every production command in a fresh interpreter, asserts that numpy
# was not loaded, then calls one relation-route function (argv[2]) and
# asserts that numpy was.
GUARD = r"""
import contextlib, io, json, os, sys
import partlog
import partlog.cli
from partlog.cli import main

model = os.path.join(sys.argv[1], "model.json")
with open(model, "w") as fh:
    json.dump({"universe": ["a", "b", "c"],
               "bindings": {"s": [["a", "b"], ["c"]], "t": [["a"], ["b", "c"]]}}, fh)
commands = [
    (["parse", "s => t"], 0),
    (["check", "s => s", "--max-n", "3"], 0),
    (["check", "s", "--weak", "--max-n", "3"], 1),
    (["prove", "s => s", "--trace", "--max-steps", "300"], 0),
    (["eval", "s => t", "--model", model], 0),
    (["dual", "s => t"], 0),
    (["transform", "s \\/ ~s", "--kind", "godel", "--pi", "p"], 0),
    (["entropy", "--model", model, "--atom", "s"], 0),
]
for argv, want in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == want, (argv, code)
assert "numpy" not in sys.modules, "a production command loaded numpy"

from partlog import Assignment, dit, dualize, eval_dual, parse, top
from partlog.core import Universe
u = Universe.of("a", "b")
if sys.argv[2] == "eval_dual":
    eval_dual(dualize(parse("s")), Assignment(u, {"s": top(u)}))
else:
    dit(top(u))
assert "numpy" in sys.modules, "the relation route did not load numpy"
print("ok")
"""


@pytest.mark.parametrize("first_use", ["eval_dual", "dit"])
def test_numpy_is_loaded_only_by_the_relation_route(tmp_path, first_use):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path), first_use],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_moved_names_resolve_to_the_relation_module():
    for name in partlog.core.RELATION_NAMES:
        obj = getattr(partlog.relation, name)
        assert getattr(partlog.core, name) is obj
        assert getattr(partlog, name) is obj
    from partlog.core import PairRelation, dual_op      # noqa: F401
    from partlog import closure, indit                  # noqa: F401


@pytest.mark.parametrize("module", [partlog, partlog.core])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError):
        module.no_such_name
