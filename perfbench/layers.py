"""Per-layer host-time attribution by wrapping each layer's entry points.

The program itself is not instrumented.  :func:`installed` replaces
each layer's public functions at the names where callers look them up
(a module global, or a class attribute for methods) with a wrapper
that opens a span, and restores the originals on exit.  Spans nest on
one stack (the simulator is single-threaded), so a layer's *self* time
is its span time minus the time of the spans opened inside it; the
traced host time not inside any span is ``unattributed``.  Spans are
folded into per-layer totals as they close instead of being kept:
the counts and self times are all the report needs.

Wrappers record only inside :meth:`Tracer.region`, the set-up and
timed parts of a workload, so the self times and ``unattributed`` add
up to exactly the traced host time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter
from typing import Callable

#: (layer, owner, attribute) for every wrapped entry point.  ``owner``
#: is ``module`` or ``module:Class``; module-level names are patched in
#: every module that imported them, because that is where the call
#: sites look them up.
ENTRY_POINTS = (
    ("dataflow.parse", "repro.dataflow.piglatin", "parse_script"),
    ("dataflow.parse", "repro.core.request_handler", "parse_script"),
    ("core.request_handler", "repro.core.request_handler:RequestHandler", "prepare"),
    ("compiler", "repro.core.request_handler", "compile_plan"),
    ("compiler", "repro.core.probe", "compile_plan"),
    ("dataflow.pipeline", "repro.mapreduce.runtime", "run_pipeline"),
    ("mapreduce.map_task", "repro.mapreduce.engine", "execute_map_task"),
    ("mapreduce.reduce_task", "repro.mapreduce.engine", "execute_reduce_task"),
    ("common.hashing", "repro.common.hashing:StreamingDigest", "update_all"),
    ("common.hashing", "repro.common.hashing:StreamingDigest", "finalize"),
    ("storage.dfs.write", "repro.storage.dfs:TrustedDFS", "write_file"),
    ("storage.dfs.write", "repro.storage.dfs:TrustedDFS", "append"),
    ("storage.dfs.read", "repro.storage.dfs:TrustedDFS", "read"),
    ("storage.dfs.read", "repro.storage.dfs:TrustedDFS", "read_block"),
    ("mapreduce.scheduler", "repro.mapreduce.scheduler:ClusterBFTScheduler", "assign"),
    ("mapreduce.scheduler", "repro.mapreduce.scheduler:FairShareScheduler", "assign"),
    ("core.verifier", "repro.core.verifier:Verifier", "on_report"),
    ("core.verifier", "repro.core.verifier:Verifier", "replica_completed"),
    ("core.journal", "repro.core.journal:Journal", "create"),
    ("core.journal", "repro.core.journal:Journal", "append"),
    ("service.ledger", "repro.service.ledger:MultiplexedLedger", "append"),
    ("service.admission", "repro.service.admission:AdmissionController", "decide"),
    ("simulation.loop", "repro.simulation.events:EventLoop", "run_while"),
    ("simulation.loop", "repro.simulation.events:EventLoop", "run_until"),
    ("simulation.loop", "repro.simulation.events:EventLoop", "run_until_idle"),
    ("core.controller", "repro.core.controller:ClusterBFTController", "run_assured"),
    ("core.controller", "repro.service.loop:ClusterBFTService", "run"),
)

#: Every wrapped layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


class Tracer:
    """Span stack plus per-layer totals and return-value observers."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Host seconds spent inside :meth:`region` blocks.
        self.host_s = 0.0
        self._covered = 0.0  # summed duration of outermost spans
        self._stack: list[list[float]] = []  # [start, child seconds]
        self._active = False
        #: layer -> callback(args, result), run after each of its spans
        #: closes; only for layers with a single entry point.
        self.observers: dict[str, Callable] = {}

    @property
    def unattributed_s(self) -> float:
        return self.host_s - self._covered

    @contextlib.contextmanager
    def region(self):
        """Trace the calls made inside the block."""
        self._active = True
        start = perf_counter()
        try:
            yield
        finally:
            self.host_s += perf_counter() - start
            self._active = False

    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self._covered += elapsed
            observer = self.observers.get(layer)
            if observer is not None:
                observer(args, result)
            return result

        return traced


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _bound(owner, attr: str):
    # A class's own __dict__ keeps classmethod objects unbound.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install ``tracer``'s wrappers on every entry point; restore the
    originals (the exact objects found) on exit, even on error."""
    saved = []
    try:
        for layer, spec, attr in ENTRY_POINTS:
            owner = _owner(spec)
            original = _bound(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(layer, original.__func__))
            else:
                wrapped = tracer.wrap(layer, original)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def bound_entry_points() -> list[object]:
    """The objects currently bound at every entry point (for checking
    that :func:`installed` restored them)."""
    return [_bound(_owner(spec), attr) for _, spec, attr in ENTRY_POINTS]
