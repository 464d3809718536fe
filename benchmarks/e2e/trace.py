"""Per-layer spans, recorded from the benchmark's side.

The layers' public entry points are wrapped **at class level** (module
level for plain functions) inside :func:`tracing`, which restores every
patched attribute on exit.  Instance patching is deliberately not used:
it would break the day a layer class grows ``__slots__``.

The entry points are data (:data:`ENTRY_POINTS`), resolved with
``getattr``.  A row whose module, class or method a later refactor
removed is skipped and listed in ``Tracer.missing`` — never an error,
because later PRs cannot edit this directory.

A span is ``(name, start, end, parent, thread)``.  Stacks are per
thread; a call nested directly inside a span of the same name folds
into it (``publish_subject`` -> ``publish``).  Self time is a span's
duration minus the durations of its direct children, so the self times
of all spans sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ENTRY_POINTS", "EntryPoint", "Tracer", "tracing"]


class EntryPoint(NamedTuple):
    module: str
    #: None for a module-level function
    cls: Optional[str]
    attr: str
    span: str
    #: split the span on the receiver's bus name: ``<span>.probe`` /
    #: ``<span>.gauge`` (an EventBus is named "probe-bus" or "gauge-bus")
    by_bus: bool = False


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("repro.monitoring.probes", "IngestProbe", "ingest", "probes.ingest"),
    EntryPoint("repro.monitoring.probes", "IngestProbe", "flush", "probes.ingest"),
    EntryPoint("repro.bus.bus", "EventBus", "publish", "bus.publish", True),
    EntryPoint("repro.bus.bus", "EventBus", "publish_subject", "bus.publish", True),
    EntryPoint("repro.bus.sharding", "ShardedEventBus", "publish", "bus.publish", True),
    EntryPoint(
        "repro.bus.sharding", "ShardedEventBus", "publish_subject", "bus.publish", True
    ),
    EntryPoint("repro.util.windows", "ColumnarWindow", "add_many", "windows.fold"),
    EntryPoint("repro.util.windows", "ColumnarWindow", "add", "windows.fold"),
    EntryPoint("repro.util.windows", "SlidingWindow", "add", "windows.fold"),
    EntryPoint("repro.util.windows", "EWMA", "add", "windows.fold"),
    EntryPoint("repro.util.windows", "ColumnarWindow", "mean", "windows.read"),
    EntryPoint("repro.util.windows", "ColumnarWindow", "maximum", "windows.read"),
    EntryPoint("repro.util.windows", "ColumnarWindow", "rate", "windows.read"),
    EntryPoint("repro.util.windows", "SlidingWindow", "mean", "windows.read"),
    EntryPoint("repro.util.windows", "SlidingWindow", "maximum", "windows.read"),
    EntryPoint("repro.util.windows", "SlidingWindow", "rate", "windows.read"),
    EntryPoint(
        "repro.monitoring.manager", "ThresholdGate", "should_wake", "gate.should_wake"
    ),
    EntryPoint(
        "repro.acme.properties", "PropertyBag", "set_property", "model.set_property"
    ),
    EntryPoint(
        "repro.repair.engine", "ArchitectureManager", "evaluate", "engine.evaluate"
    ),
    EntryPoint(
        "repro.constraints.invariants",
        "ConstraintChecker",
        "check_all",
        "constraints.check_all",
    ),
    EntryPoint("repro.repair.dsl.interp", "DslStrategy", "run", "strategy.run"),
    EntryPoint("repro.repair.strategy", "FirstSuccessStrategy", "run", "strategy.run"),
    EntryPoint("repro.repair.strategy", "AllApplicableStrategy", "run", "strategy.run"),
    EntryPoint("repro.repair.strategy", "PythonStrategy", "run", "strategy.run"),
    EntryPoint("repro.repair.tactic", "Tactic", "run", "tactic.run"),
    EntryPoint("e2e.plane", "RecordingEffector", "execute", "translator.execute"),
    EntryPoint(
        "repro.translation.translator", "Translator", "execute", "translator.execute"
    ),
    EntryPoint("repro.sim.kernel", "Simulator", "step", "sim.step"),
    EntryPoint("repro.realtime.driver", "RealtimeDriver", "ingest", "realtime.ingest"),
    EntryPoint("repro.runtime.core", "AdaptationRuntime", "__init__", "runtime.build"),
    # core binds the parser by from-import, so that binding is the one to wrap
    EntryPoint("repro.runtime.core", None, "parse_repair_dsl", "dsl.parse"),
)


def _bus_kind(name: str) -> str:
    for kind in ("probe", "gauge"):
        if kind in name:
            return kind
    return "other"


class _Buffer:
    """One thread's spans, as parallel typed arrays."""

    def __init__(self, thread: str):
        self.thread = thread
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []


class Tracer:
    """Installs the wrappers, holds the spans, aggregates them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.missing: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        #: (owner, attribute, original, owner defined it itself)
        self._patched: List[Tuple[object, str, object, bool]] = []
        self.origin_ns = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------
    def _span_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = _Buffer(threading.current_thread().name)
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def _wrap(self, original, entry: EntryPoint):
        local = self._local
        clock = time.perf_counter_ns
        fixed = None if entry.by_bus else self._span_id(entry.span)
        by_bus: Dict[str, int] = {}

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if fixed is None:
                bus = args[0].name
                span = by_bus.get(bus)
                if span is None:
                    span = self._span_id(f"{entry.span}.{_bus_kind(bus)}")
                    by_bus[bus] = span
            else:
                span = fixed
            buf = getattr(local, "buf", None)
            if buf is None:
                buf = self._buffer()
            stack = buf.stack
            if stack and buf.name[stack[-1]] == span:
                return original(*args, **kwargs)  # nested same name: fold
            index = len(buf.name)
            buf.name.append(span)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(index)
            buf.start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()

        return traced

    # -- install / restore -------------------------------------------------
    def install(self, entry_points: Sequence[EntryPoint]) -> None:
        for entry in entry_points:
            label = ".".join(p for p in (entry.module, entry.cls, entry.attr) if p)
            try:
                owner = importlib.import_module(entry.module)
                if entry.cls is not None:
                    owner = getattr(owner, entry.cls)
                original = getattr(owner, entry.attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if not isinstance(original, types.FunctionType):
                self.missing.append(f"{label} (not a plain function)")
                continue
            own = entry.attr in vars(owner)
            self._patched.append((owner, entry.attr, original, own))
            setattr(owner, entry.attr, self._wrap(original, entry))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # it was inherited: unshadow it

    # -- aggregation -------------------------------------------------------
    def _columns(self, until_ns: Optional[int] = None):
        """All threads' spans concatenated; parents re-based accordingly.

        ``until_ns`` leaves out spans that started at or after that
        ``perf_counter_ns`` instant (a thread's spans are in start order).
        """
        name, parent, start, end, thread = [], [], [], [], []
        base = 0
        for k, buf in enumerate(self._buffers):
            count = len(buf.end)  # a span still open at exit has end == 0
            if until_ns is not None:
                starts = np.asarray(buf.start[:count], dtype=np.int64)
                count = int(np.searchsorted(starts, until_ns))
            own_parent = np.asarray(buf.parent[:count], dtype=np.int64)
            parent.append(np.where(own_parent >= 0, own_parent + base, -1))
            name.append(np.asarray(buf.name[:count], dtype=np.int64))
            start.append(np.asarray(buf.start[:count], dtype=np.int64))
            end.append(np.asarray(buf.end[:count], dtype=np.int64))
            thread.append(np.full(count, k, dtype=np.int64))
            base += count
        if not name:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, empty, empty
        return tuple(np.concatenate(c) for c in (name, parent, start, end, thread))

    def layers(self, until_ns: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_ms``."""
        name, parent, start, end, _ = self._columns(until_ns)
        closed = end > 0
        duration = np.where(closed, end - start, 0)
        children = np.zeros(len(name), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        self_ns = duration - children
        slots = len(self.names)
        calls = np.bincount(name[closed], minlength=slots)
        self_sum = np.bincount(name, weights=self_ns, minlength=slots)
        return {
            span: {"calls": int(calls[k]), "self_ms": float(self_sum[k]) / 1e6}
            for k, span in enumerate(self.names)
        }

    def root_ms(self, until_ns: Optional[int] = None) -> float:
        """Summed duration of the spans that have no parent."""
        _, parent, start, end, _ = self._columns(until_ns)
        roots = (parent < 0) & (end > 0)
        return float((end[roots] - start[roots]).sum()) / 1e6

    def starts_ns(self, span: str, until_ns: Optional[int] = None) -> np.ndarray:
        """Start times of every ``span``, in recording order per thread."""
        name, _, start, _, _ = self._columns(until_ns)
        if span not in self._ids:
            return np.zeros(0, dtype=np.int64)
        return start[name == self._ids[span]]

    def write(self, path: Path) -> None:
        """Dump the spans column-wise (see README, "Reading spans")."""
        name, parent, start, end, thread = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "names": self.names,
            "threads": [buf.thread for buf in self._buffers],
            "missing": self.missing,
            "unit": "ns since the tracer was created",
            "spans": {
                "name": name.tolist(),
                "parent": parent.tolist(),
                "start": (start - self.origin_ns).tolist(),
                "end": np.where(end > 0, end - self.origin_ns, -1).tolist(),
                "thread": thread.tolist(),
            },
        }
        with path.open("w") as handle:
            json.dump(document, handle, allow_nan=False)


@contextmanager
def tracing(
    entry_points: Sequence[EntryPoint] = ENTRY_POINTS,
) -> Iterator[Tracer]:
    """Trace ``entry_points`` for the duration of the block."""
    tracer = Tracer()
    tracer.install(entry_points)
    try:
        yield tracer
    finally:
        tracer.uninstall()
