"""Outside-in layer trace, installed in a worker by wrapping library callables.

Nothing in ``src/`` is instrumented.  ``Tracer.install`` replaces, from the
outside:

* every public module-level function of the layer modules, and ``cli.main``,
  with a wrapper that records a span (trace id = job index, span id, parent
  span id, name, start, end, self time);
* the scalar methods of ``CyclotomicNumber`` and ``NovikovElement`` and a few
  hot methods and private functions of other layers with a wrapper that only
  counts calls and accumulates self time.

Self time is a call's duration minus the durations of the wrapped calls made
inside it, so time spent in ``Fraction`` shows up as ``CyclotomicNumber``
self time.  Some wrappers also record layer properties (rows, ranks, chain
words, ...) in ``extra``.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter

SPAN_MODULES = ("linalg", "hochschild", "ainfty", "toric", "openclosed", "blowup", "trees")


# -- layer properties recorded next to the call counts -------------------------


def _row_reduce(extra, args, result):
    rank, _, cutoff_limited = result
    extra["linalg.row_reduce.rows"] += len(args[0])
    extra["linalg.row_reduce.rank"] += rank
    extra["linalg.row_reduce.cutoff_limited"] += bool(cutoff_limited)


def _determinant(extra, args, result):
    n = len(args[0])
    if n > extra["linalg.determinant.max_n"]:
        extra["linalg.determinant.max_n"] = n


def _chain_basis(extra, args, result):
    cat = args[0]
    extra["hochschild.chains"] += len(result)
    extra["hochschild.normalized_chains"] += sum(
        1 for obj, word in result if cat.algebras[obj].unit not in word[1:])


def _blaschke(extra, args, result):
    extra["toric.blaschke_enumerate.classes"] += len(result)


def _stable_types(extra, args, result):
    extra["trees.enumerate_stable_types.types"] += len(result)


def _cyclo_mul(extra, args, result):
    # a plain int or Fraction operand is coerced to order 1
    self, other = args
    if result is not NotImplemented and self.order != getattr(other, "order", 1):
        extra["novikov.cyclo_mul.mixed_order"] += 1


def _nov_mul(extra, args, result):
    self, other = args
    if len(self.terms) <= 1 and len(getattr(other, "terms", ())) <= 1:
        extra["novikov.nov_mul.monomial"] += 1


# called with (extra, args, result) after each call of the named callable
PROBES = {
    "linalg.row_reduce": _row_reduce,
    "linalg.determinant": _determinant,
    "hochschild.chain_basis": _chain_basis,
    "toric.blaschke_enumerate": _blaschke,
    "trees.enumerate_stable_types": _stable_types,
    "novikov.cyclo_mul": _cyclo_mul,
    "novikov.nov_mul": _nov_mul,
}

# (module, class or None for a module-level function, attributes, counter
# name): counted, never recorded as spans
METHODS = (
    ("novikov", "CyclotomicNumber", ("__mul__", "__rmul__"), "novikov.cyclo_mul"),
    ("novikov", "CyclotomicNumber", ("__add__", "__radd__"), "novikov.cyclo_add"),
    ("novikov", "CyclotomicNumber", ("to_order",), "novikov.cyclo_to_order"),
    ("novikov", "CyclotomicNumber", ("inverse",), "novikov.cyclo_inverse"),
    ("novikov", "NovikovElement", ("__init__",), "novikov.nov_init"),
    ("novikov", "NovikovElement", ("__mul__", "__rmul__"), "novikov.nov_mul"),
    ("novikov", "NovikovElement", ("__add__", "__radd__"), "novikov.nov_add"),
    ("novikov", "NovikovElement", ("invert",), "novikov.nov_invert"),
    ("ainfty", "AInftyAlgebra", ("from_json_dict",), "ainfty.from_json_dict"),
    ("ainfty", "AInftyAlgebra", ("unit_violations",), "ainfty.unit_violations"),
    ("trees", "TreedDiskType", ("canonical_key",), "trees.canonical_key"),
    # one call per candidate type that enumerate_stable_types deduplicates
    ("trees", None, ("_with_metric_classes",), "trees.candidates"),
)


class Tracer:
    def __init__(self):
        self.trace_id = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        # frames are [seconds spent in wrapped children, id of the enclosing span]
        self._stack: list[list] = [[0.0, None]]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, span: bool = False):
        probe = PROBES.get(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans, extra, ids = self._stack, self.spans, self.extra, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = next(ids) if span else parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if span:
                    spans.append((self.trace_id, span_id, parent[1], name,
                                  start, end, elapsed - frame[0]))
            if probe is not None:
                probe(extra, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the imported ``qhsplit`` package in place."""
        for layer in SPAN_MODULES:
            module = importlib.import_module(f"qhsplit.{layer}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", fn, span=True))
        cli = importlib.import_module("qhsplit.cli")
        cli.main = self.wrap("cli.main", cli.main, span=True)
        for layer, cls_name, attrs, name in METHODS:
            module = importlib.import_module(f"qhsplit.{layer}")
            owner = getattr(module, cls_name) if cls_name else module
            for attr in attrs:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))

    def counters(self) -> dict:
        return {"calls": {name: s[0] for name, s in self.stats.items()},
                "self_s": {name: s[1] for name, s in self.stats.items()},
                "extra": dict(self.extra)}

    def write_spans(self, path: str) -> None:
        keys = ("trace", "id", "parent", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
