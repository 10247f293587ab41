"""Spans around calls into forbor's public functions, recorded from outside.

`Tracer.install()` replaces every public module-level function of the
package's modules with a wrapper, in every module namespace that holds
it (so `forbor.cli.admits_orientation` and `forbor.search.contains_induced`
are both traced).  While a query is active each wrapped call records a
span: name, start, end, parent span and query id.  Spans stay in memory
and are written out by `dump()`; self time (duration minus the time
covered by child spans) and call counts are accumulated as spans close.

Methods such as `Graph.neighbours` are not module-level functions and
stay unwrapped; so do the few tiny predicates in HOT, which run once per
enumerated word or orientation and would otherwise dominate the timing.
Their time counts toward the self time of the traced function calling
them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("graphs", "words", "search", "duality", "holes", "io", "cli")
HOT = {"is_A_free", "is_factor", "is_periodic", "is_acyclic", "underlying",
       "induced_subdigraph", "connected_components"}


def _targets():
    """(layer, name, function) for every public function defined in forbor."""
    for layer in MODULES:
        mod = importlib.import_module(f"forbor.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in HOT or inspect.isclass(obj):
                continue
            if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield layer, name, obj


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.span_name = array("i")
        self.span_query = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []             # [span index, child time]
        self.query = -1             # -1: no query active, calls pass through
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.original = {}
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def _label(self, label):
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        return self.name_id[label]

    def enter(self, label_id):
        index = len(self.span_start)
        self.span_name.append(label_id)
        self.span_query.append(self.query)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append([index, 0.0])
        self.span_start.append(perf_counter())
        return index

    def exit(self, index):
        end = perf_counter()
        self.span_end[index] = end
        _, child = self.stack.pop()
        duration = end - self.span_start[index]
        label = self.names[self.span_name[index]]
        self.self_s[label] += duration - child
        self.calls[label] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def begin_query(self, qid, kind):
        self.query = qid
        return self.enter(self._label(f"query.{kind}"))

    def end_query(self, index):
        self.exit(index)
        self.query = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, label, fn):
        tracer = self
        label_id = self._label(label)
        post = _POST.get(label)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if tracer.query >= 0:
                        tracer.counts[f"{label}.items"] += 1
                    yield item
            return counted

        pre = _PRE.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.query < 0:
                return fn(*args, **kwargs)
            before = pre(fn) if pre is not None else None
            index = tracer.enter(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            if post is not None:
                post(tracer, fn, args, result, before)
            return result
        return traced

    def install(self):
        import forbor
        wrapped = {}
        for layer, name, fn in _targets():
            self.original[f"{layer}.{name}"] = fn
            wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [forbor] + [importlib.import_module(f"forbor.{m}") for m in MODULES]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapped[id(obj)][1])

    def uninstall(self):
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, stem: Path):
        """Write the spans as <stem>.bin (columns) with a <stem>.json header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.span_name), ("query", self.span_query),
                   ("parent", self.span_parent), ("start", self.span_start),
                   ("end", self.span_end)]
        with open(stem.with_suffix(".bin"), "wb") as f:
            for _, col in columns:
                col.tofile(f)
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [[n, c.typecode, c.itemsize] for n, c in columns],
                  "byteorder": "native"}
        stem.with_suffix(".json").write_text(json.dumps(header))


# counters read from results, keyed by span label


def _nodes(tracer, fn, args, result, before):
    tracer.counts["search.nodes"] += result.work


def _automaton_states(tracer, fn, args, result, misses_before):
    if fn.cache_info().misses != misses_before:
        tracer.counts["words.automaton.states"] += len(result.states)


def _walk_states(tracer, fn, args, result, before):
    # each enumerate_periods call runs one walk pass over the full states
    aut = tracer.original["words.automaton"](args[0])
    tracer.counts["words.walk.full_states"] += len(aut.full_states())


_PRE = {"words.automaton": lambda fn: fn.cache_info().misses}
_POST = {"search.admits_orientation": _nodes,
         "words.automaton": _automaton_states,
         "words.enumerate_periods": _walk_states}
