"""Traced pass T1: wall-clock spans around the calls into each layer.

The spans are recorded from outside the program: every public entry point
listed in :data:`TARGETS` is rebound to a timing wrapper — the class
attribute for methods, and for module-level functions every ``repro.*``
module global that *is* the original (``core/site.py`` imports them by
name). All these calls are synchronous (no generator yields inside them),
so one plain stack gives each span its parent. Spans stay in memory and are
aggregated when the pass ends; end-to-end numbers never come from a traced
pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

@dataclass(frozen=True)
class Target:
    entry: str  # "<layer>.<entry point>", the per-layer metric prefix
    module: str
    qualname: str  # "function" or "Class.method"
    size_of: Optional[Callable] = None  # result -> units summed per entry


TARGETS = (
    Target("xml.serialize", "repro.xml.serializer", "serialize_document", size_of=len),
    Target("xml.parse", "repro.xml.parser", "parse_document"),
    Target("xml.parse", "repro.xml.parser", "parse_fragment"),
    Target("xml.clone", "repro.xml.model", "Document.clone"),
    Target("xpath.evaluate", "repro.xpath.evaluator", "evaluate"),
    Target("xpath.parse", "repro.xpath.parser", "parse_xpath"),
    Target("dataguide.match", "repro.xpath.guide", "match_structure"),
    Target("dataguide.maintain", "repro.dataguide.guide", "DataGuide.apply_change"),
    Target("dataguide.maintain", "repro.dataguide.guide", "DataGuide.undo_change"),
    Target("dataguide.maintain", "repro.dataguide.guide", "DataGuide.build"),
    Target("update.apply", "repro.update.applier", "apply_update"),
    Target("protocols.lock_spec", "repro.protocols.xdgl", "XDGLProtocol.lock_spec_for_query"),
    Target("protocols.lock_spec", "repro.protocols.xdgl", "XDGLProtocol.lock_spec_for_update"),
    Target("locking.acquire", "repro.locking.manager", "LockManager.process_operation"),
    Target("locking.release", "repro.locking.manager", "LockManager.release_transaction"),
    *(
        Target("deadlock.wfg", "repro.deadlock.wfg", f"WaitForGraph.{method}")
        for method in (
            "add_edge", "clear_waits", "remove_node",
            "find_any_cycle", "find_cycle_from", "union",
        )
    ),
    # The workloads run on InMemoryStore, the concrete StorageBackend.
    Target("storage.store", "repro.storage.memory", "InMemoryStore.store"),
    Target("sim.network_send", "repro.sim.network", "Network.send"),
)

#: Modules the program imports lazily: they must bind the originals before
#: the wrappers go in, so that the rebinding below can find them.
_LAZY_MODULES = ("repro.views", "repro.distribution.migration")


def layer_of(entry: str) -> str:
    return entry.split(".", 1)[0]


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind_globals(pairs: list) -> None:
    """For each ``(old, new)`` pair, point every ``repro.*`` module global
    that *is* ``old`` at ``new``."""
    replacement = {id(old): new for old, new in pairs}
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, key, replacement[id(value)])


class SpanRecorder:
    """Installs the wrappers (as a context manager) and holds the spans."""

    def __init__(self) -> None:
        #: (entry, start_ns, end_ns, index of the parent span or -1)
        self.spans: list[tuple] = []
        self.units: dict[str, int] = {}
        self.run_start = 0  # index of the first span of the run phase
        self._stack: list[int] = []
        self._active: dict[str, bool] = {}
        self._functions: list = []  # (original, wrapper)
        self._attributes: list = []  # (owner class, name, original attribute)

    def mark_run_start(self) -> None:
        self.run_start = len(self.spans)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        entry, size_of = target.entry, target.size_of
        spans, stack, active, units = self.spans, self._stack, self._active, self.units
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active.get(entry):
                # A nested call into the same entry point (parse_fragment ->
                # parse_document) belongs to the outermost call's span.
                return fn(*args, **kwargs)
            active[entry] = True
            index = len(spans)
            spans.append(None)  # children recorded meanwhile point here
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (entry, start, clock(), parent)
                stack.pop()
                active[entry] = False
            if size_of is not None:
                units[entry] = units.get(entry, 0) + size_of(result)
            return result

        wrapper.__dtxbench_span__ = entry
        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for name in (*_LAZY_MODULES, *(t.module for t in TARGETS)):
            importlib.import_module(name)
        for target in TARGETS:
            module = sys.modules[target.module]
            owner_name, _, attr = target.qualname.rpartition(".")
            if not owner_name:
                original = getattr(module, attr)
                self._functions.append((original, self._wrap(target, original)))
                continue
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._attributes.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(target, original.__func__))
            else:
                wrapped = self._wrap(target, original)
            setattr(owner, attr, wrapped)
        _rebind_globals(self._functions)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in self._attributes:
            setattr(owner, attr, original)
        _rebind_globals([(wrapper, fn) for fn, wrapper in self._functions])
        self._attributes.clear()
        self._functions.clear()

    def write_chrome_trace(self, path) -> None:
        events = [
            {"name": entry, "cat": layer_of(entry), "ph": "X", "pid": 0, "tid": 0,
             "ts": start / 1000.0, "dur": (end - start) / 1000.0}
            for entry, start, end, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def aggregate(spans: list, since: int = 0) -> dict:
    """``{entry: [calls, self_ns]}`` over ``spans[since:]``.

    A span's self time is its duration minus the time its child spans cover
    (children are synchronous and nested, so they never overlap each other).
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = {}
    for index in range(since, len(spans)):
        entry, start, end, _ = spans[index]
        total = totals.setdefault(entry, [0, 0])
        total[0] += 1
        total[1] += end - start - covered[index]
    return totals


def wrapped_leftovers() -> list[str]:
    """Names of ``repro.*`` globals or target attributes still wrapped."""
    left = [
        f"{module.__name__}.{key}"
        for module in _repro_modules()
        for key, value in vars(module).items()
        if hasattr(value, "__dtxbench_span__")
    ]
    for target in TARGETS:
        owner_name, _, attr = target.qualname.rpartition(".")
        module = sys.modules.get(target.module)
        if owner_name and module is not None:
            raw = getattr(module, owner_name).__dict__[attr]
            if hasattr(getattr(raw, "__func__", raw), "__dtxbench_span__"):
                left.append(f"{target.module}.{target.qualname}")
    return left
