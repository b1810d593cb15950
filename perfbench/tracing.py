"""Spans at partlog's module boundaries, recorded by wrapping public names.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces module attributes
with timing wrappers and ``Tracer.uninstall`` puts the originals back.  A name
that a refactor removed is reported in ``absent`` and simply not traced.

Boundary spans (name, start, end, parent, query id) are kept in memory and
written out by ``write``.  Kernel calls are far too many to keep one record
each, so they are leaf records: their durations are stored per operation and
per universe size, and added to the enclosing span's child time.

``Memos`` finds the memoised functions of ``partlog.core`` by their
``cache_clear``, so it keeps working if a refactor adds or removes memos.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from time import perf_counter_ns

# (module, attribute, span name); cli.main is spanned by the caller
WRAPPED = (
    ("partlog.cli", "parse_formula", "formula.parse"),
    ("partlog.cli", "check_partition_tautology", "semantics.check"),
    ("partlog.cli", "check_weak", "semantics.check"),
    ("partlog.cli", "tableau_prove", "tableau.prove"),
    ("partlog.cli", "check_result_to_json", "semantics.json"),
    ("partlog.cli", "outcome_to_json", "tableau.json"),
    ("partlog.semantics", "eval_formula", "semantics.eval"),
    ("partlog.tableau", "eval_formula", "semantics.eval"),
)
CORE_OPS = ("join", "meet", "implies", "nand", "refines", "graph_op")
CORE_MODULE = "partlog.core"


class Memos:
    """The memoised functions of partlog.core, with hit and miss counts that
    survive clearing."""

    def __init__(self):
        try:
            namespace = vars(importlib.import_module(CORE_MODULE))
        except ImportError:
            namespace = {}
        self.functions = list({id(fn): fn for fn in namespace.values()
                               if callable(getattr(fn, "cache_clear", None))}.values())
        self._banked = [0, 0]

    def counts(self) -> tuple[int, int] | None:
        """(hits, misses) of every memo so far, clears included; None
        without memos."""
        if not self.functions:
            return None
        hits, misses = self._banked
        for fn in self.functions:
            info = getattr(fn, "cache_info", None)
            if info is not None:
                now = info()
                hits, misses = hits + now.hits, misses + now.misses
        return hits, misses

    def clear(self) -> None:
        self._banked = list(self.counts() or (0, 0))
        for fn in self.functions:
            fn.cache_clear()


class Tracer:
    def __init__(self, memos: Memos):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: name id, start, end, parent index, query id,
        # and the time its children cover
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.query = -1
        self.core_ns = {op: array("q") for op in CORE_OPS}
        self.core_by_n: dict[int, array] = {}
        self._in_core = False
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        self.memos = memos
        self._cache_start = None

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        row = [self._name_id(name), perf_counter_ns(), 0, parent, self.query, 0]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += row[2] - row[1]

    def _span_wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _core_wrapper(self, op: str, fn):
        durations = self.core_ns[op]

        def traced(*args, **kwargs):
            if self._in_core:                    # count the outermost call only
                return fn(*args, **kwargs)
            self._in_core = True
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self._in_core = False
                durations.append(dt)
                n = len(getattr(args[-1], "rgs", ())) if args else 0
                self.core_by_n.setdefault(n, array("q")).append(dt)
                if self._stack:
                    self.spans[self._stack[-1]][5] += dt
        return traced

    # -- installing the wrappers ---------------------------------------------

    def _replace(self, module_name: str, attr: str, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append("%s.%s" % (module_name, attr))
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        for module_name, attr, span in WRAPPED:
            self._replace(module_name, attr,
                          lambda fn, span=span: self._span_wrapper(span, fn))
        for op in CORE_OPS:
            self._replace(CORE_MODULE, op, lambda fn, op=op: self._core_wrapper(op, fn))
        self._cache_start = self.memos.counts()

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def cache_counts(self) -> tuple[int, int] | None:
        """(hits, misses) on the kernel memos since install, where they exist."""
        now = self.memos.counts()
        if now is None or self._cache_start is None:
            return None
        return now[0] - self._cache_start[0], now[1] - self._cache_start[1]

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent,
                                 "columns": ["name", "start_ns", "end_ns",
                                             "parent", "query", "child_ns"],
                                 "core_calls": {op: len(v) for op, v in
                                                self.core_ns.items()}}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
