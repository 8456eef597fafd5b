"""Spans around the public functions of the turaev modules.

``Tracer.install`` replaces every public module-level function (and the
static constructors of public classes) with a timing wrapper, in every
``turaev`` namespace that binds it, so calls made inside the library are
attributed too.  A span records its name, start, end, parent span and the
id of the diagram (or CLI batch) being processed; spans stay in memory
until ``write`` saves them with the per-layer aggregates.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

from turaev.pdcore import Refused

LAYERS = ("cli", "pdcore", "states", "tangles", "surgery", "moves", "surfcheck", "corpus")
MODULES = LAYERS + ("casetable", "render", "fixtures")
# The case table is part of the genus-two classifier.
LAYER_OF = {"casetable": "tangles"}
# O(1) dart arithmetic called ~10^5 times a pass; its cost stays in the
# caller's self time instead of multiplying the span count.
SKIP = {"crossing_of", "slot_of", "dart", "sigma"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.current_item = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple[object, str, object]] = []
        self._last_exc = None
        self.reset_counts()

    def begin(self, item: int) -> None:
        """Attribute the following spans to request ``item``."""
        self.current_item = item
        self._stack.clear()

    def reset_counts(self) -> None:
        """Start a new aggregation window; recorded spans are kept."""
        self.window = len(self.start)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.refused: Counter = Counter()  # (function, reason)
        self.errors: Counter = Counter()  # (function, exception type)
        self.counts: Counter = Counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"turaev.{m}"] for m in MODULES}
        namespaces = [sys.modules["turaev"], *mods.values()]
        for short, mod in mods.items():
            layer = LAYER_OF.get(short, short)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or attr in SKIP:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped = self._wrap(fn, f"{layer}.{attr}")
                    for ns in namespaces:
                        if getattr(ns, attr, None) is fn:
                            self._patch(ns, attr, wrapped)
                elif inspect.isclass(fn) and fn.__module__ == mod.__name__:
                    for meth, raw in list(vars(fn).items()):
                        if isinstance(raw, staticmethod) and not meth.startswith("_"):
                            inner = self._wrap(raw.__func__, f"{layer}.{meth}")
                            self._patch(fn, meth, staticmethod(inner))

    def uninstall(self) -> None:
        for ns, attr, old in reversed(self._patched):
            setattr(ns, attr, old)
        self._patched.clear()
        self._stack.clear()

    def _patch(self, ns, attr: str, new) -> None:
        self._patched.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, new)

    def _wrap(self, fn, name: str):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = _OBSERVE.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.item.append(self.current_item)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._record_exception(name, exc)
                raise
            finally:
                t1 = clock()
                self.end[idx] = t1
                if stack and stack[-1] is frame:
                    stack.pop()
                    if stack:
                        stack[-1][1] += t1 - t0
                self.calls[name] += 1
                self.self_s[name] += t1 - t0 - frame[1]
            if observe is not None:
                observe(self.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _record_exception(self, name: str, exc: BaseException) -> None:
        # An exception crossing several wrapped frames counts once, where
        # it was raised.
        if exc is self._last_exc:
            return
        self._last_exc = exc
        if isinstance(exc, Refused):
            self.refused[(name, exc.reason)] += 1
        elif isinstance(exc, Exception):
            self.errors[(name, type(exc).__name__)] += 1

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.refused"] = 0
            out[f"{layer}.errors"] = 0
        for name, k in self.calls.items():
            out[f"{name.split('.')[0]}.calls"] += k
        for name, s in self.self_s.items():
            out[f"{name.split('.')[0]}.self_s"] += s
        for (name, _), k in self.refused.items():
            out[f"{name.split('.')[0]}.refused"] += k
        for (name, _), k in self.errors.items():
            out[f"{name.split('.')[0]}.errors"] += k
        return out

    def calls_under(self, name: str, parent: str) -> int:
        """Spans of ``name`` in this window called directly from ``parent``."""
        nid, pid = self._name_id.get(name), self._name_id.get(parent)
        names, parents = self.name, self.parent
        return sum(
            1
            for i in range(self.window, len(names))
            if names[i] == nid and parents[i] >= 0 and names[parents[i]] == pid
        )

    def refusals_by_reason(self) -> dict[str, int]:
        return {f"{name}: {reason}": k for (name, reason), k in sorted(self.refused.items())}

    def errors_by_type(self) -> dict[str, int]:
        return {f"{name}: {kind}": k for (name, kind), k in sorted(self.errors.items())}

    def write(self, path, aggregates: dict) -> None:
        """Spans as columns (times in ns from the first span) plus the
        aggregates, gzip-compressed JSON."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
                "parent": list(self.parent),
                "item": list(self.item),
            },
            "aggregates": aggregates,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def _count_child_rows(counts: Counter, result) -> None:
    counts["corpus.child_rows.out"] += len(result)


def _count_classes(counts: Counter, result) -> None:
    counts["corpus.classes"] += len(result)


def _count_examined(counts: Counter, result) -> None:
    counts["surfcheck.hayashi.examined"] += result.examined


def _count_unmatched(counts: Counter, result) -> None:
    counts["tangles.classify_genus_two.unmatched"] += result.case_label == "unmatched"


_OBSERVE = {
    "corpus.child_rows": _count_child_rows,
    "corpus.exhaustive": _count_classes,
    "surfcheck.hayashi_complexity": _count_examined,
    "tangles.classify_genus_two": _count_unmatched,
}
