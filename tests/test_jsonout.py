"""The CLI's JSON writer: the bytes of json.dumps(v, sort_keys=True, indent=2)
for every value of the types it writes, from an explicit stack."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlog import jsonout, tableau
from partlog.jsonout import INDENT, Encoded, encode


def dumps(v) -> str:
    return "".join(encode(v))


def reference(v) -> str:
    return json.dumps(v, sort_keys=True, indent=2)


# keys that need escaping, that look like %-directives, or that sort
# differently as text and as code points
KEYS = (st.sampled_from(["id", "branch", "pair", "", "%s", "%%", "%(x)s", 'a"b',
                         "back\\slash", "\x00", "\x1f", "tab\t", "é", " ",
                         "😀", "A", "a", "aa"])
        | st.text(max_size=6))
SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1, True, False, -1])
           | st.integers() | st.text(max_size=8))
FLAT_LISTS = (st.lists(SCALARS, max_size=5) | st.lists(st.text(max_size=4), max_size=5)
              | st.lists(st.integers(), max_size=5))
FIELDS = SCALARS | FLAT_LISTS | FLAT_LISTS.map(tuple)
RECORDS = st.dictionaries(KEYS, FIELDS, max_size=5)
# tables: lists of records that share one key set, in one or several orders
TABLES = st.lists(KEYS, unique=True, max_size=5).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: FIELDS for k in keys}),
                          max_size=4))
JSON = st.recursive(
    SCALARS | FLAT_LISTS | RECORDS | TABLES | st.lists(RECORDS, max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(JSON)
def test_same_bytes_as_json_dumps(value):
    assert dumps(value) == reference(value)


class Text(str):
    pass


class Items(list):
    pass


@pytest.mark.parametrize("value", [
    object(), {1, 2}, b"x", {"a": [1, object()]}, [{"a": {"b": 1j}}],
    # json writes these, but no CLI payload holds one
    0.5, [1, 2.0], {"a": float("nan")}, Text("x"), [Items([1])], {"a": [Text()]}])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps(value)


@pytest.mark.parametrize("value", [{1: 0}, {True: 0}, {None: 0}, [{"a": {2: 1}}],
                                   [{1: "x"}, {1: "y"}], {Text("k"): 0}])
def test_keys_other_than_str_raise_type_error(value):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps(value)


def test_a_container_that_contains_itself_raises_value_error():
    loop = [1]
    loop.append(loop)
    table = {"a": [1], "b": {}}
    table["b"]["back"] = table
    for value in (loop, table, [[loop]]):
        with pytest.raises(ValueError, match="Circular reference"):
            dumps(value)


def test_a_shared_container_is_not_a_cycle():
    shared = {"op": "atom", "args": ["s"]}
    value = {"args": [shared, {"args": [shared, shared], "op": "meet"}], "op": "join"}
    assert dumps(value) == reference(value)


@pytest.mark.parametrize("kind", ["list", "dict"])
def test_depth_costs_no_stack(kind):
    # three times json's default recursion limit; the text is written out
    # line by line as the expected value
    depth = 3000
    value: object = 1
    for _ in range(depth):
        value = [value] if kind == "list" else {"k": value}
    opener = "[" if kind == "list" else '"k": {'
    lines = ["[" if kind == "list" else "{"]
    lines += [INDENT * i + opener for i in range(1, depth)]
    lines.append(INDENT * depth + ("1" if kind == "list" else '"k": 1'))
    lines += [INDENT * i + ("]" if kind == "list" else "}")
              for i in reversed(range(depth))]
    assert dumps(value) == "\n".join(lines)


def test_encoded_text_is_written_as_it_is():
    text = Encoded('[\n    "x",\n    1\n  ]')
    for value in ({"a": text, "b": 2}, {"a": text, "b": {"c": [1]}}):
        assert dumps(value) == reference({**value, "a": ["x", 1]})
    assert dumps(Encoded("[]")) == "[]"


def test_scalars_at_the_top():
    for value in ["x", "é\n", "", 0, -5, 10 ** 30, True, False, None]:
        assert dumps(value) == reference(value)


# ---------------------------------------------------------------------------
# No recursion: the module's functions form no call cycle
# ---------------------------------------------------------------------------

def reference_graph(tree) -> dict:
    """Each top-level function -> the top-level functions its body names
    (called, or passed on as a value)."""
    defs = {n.name: n for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {name: {node.id for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and node.id in defs}
            for name, fn in defs.items()}


def cycles(graph) -> list:
    """Functions on a cycle of the graph (self-loops included)."""
    on_cycle = []
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                on_cycle.append(start)
                break
            if name not in seen:
                seen.add(name)
                todo += graph.get(name, ())
    return on_cycle


def test_no_function_in_jsonout_recurses():
    tree = ast.parse(Path(jsonout.__file__).read_text())
    graph = reference_graph(tree)
    assert "encode" in graph
    assert cycles(graph) == []


def test_no_function_in_tableau_recurses():
    # the trace writer runs over traces of any length
    tree = ast.parse(Path(tableau.__file__).read_text())
    graph = reference_graph(tree)
    assert {"trace_sections", "_section", "_ids", "replay_trace"} <= graph.keys()
    assert cycles(graph) == []


def test_the_cycle_check_sees_direct_and_indirect_recursion():
    src = ("def f(x):\n    return g(x)\n\ndef g(x):\n    return f(x)\n\n"
           "def h(x):\n    return map(h, x)\n\ndef k(x):\n    return f(x)\n")
    assert sorted(cycles(reference_graph(ast.parse(src)))) == ["f", "g", "h"]
