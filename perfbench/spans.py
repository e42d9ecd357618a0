"""In-memory spans around the public entry points of each layer.

A :class:`Tracer` records one span per call into a layer boundary: its
name, start, end, the span that caused it and the request it belongs to.
Spans stay in memory and are written out when the run ends.  The
benchmark installs the wrappers with :func:`install` only for a traced
run; an untraced run never imports this module's wrappers into the
program, so it measures the program as users run it.

Hot boundaries (one call per message or per generator step) would
otherwise create millions of spans, so they are *coalesced*: all entries
of one name under one parent span share one record whose ``count`` says
how many entries it stands for, ``start``/``end`` are the first entry
and the last exit, and ``busy`` is the summed time inside.  For an
ordinary span ``busy == end - start`` and ``count == 1``.

A span's self time is its ``busy`` time minus the ``busy`` time of its
direct children; layer self times are summed from that.  Span names are
``<layer>.<what>``; the layer is the first dotted segment.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

LAYERS = ("server", "api", "engine", "net", "core", "storage")


class Span:
    """One call (or one coalesced run of calls) across a layer boundary."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "request",
        "busy", "child", "count", "_entered", "_hot",
    )

    def __init__(self, span_id: int, name: str, now: float, parent: "Span | None", request: Any) -> None:
        self.id = span_id
        self.name = name
        self.start = now
        self.end = now
        self.parent = parent.id if parent is not None else None
        self.request = request
        self.busy = 0.0
        self.child = 0.0
        self.count = 1
        self._entered = now
        self._hot: dict[str, Span] | None = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "busy": self.busy,
            "self": self.self_time,
            "count": self.count,
        }


class Tracer:
    """Per-thread span stacks over one shared, append-only span list."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Exact counts recorded at span boundaries (e.g. journal bytes).
        self.counters: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    # -- per-thread state ------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Any) -> None:
        """Tag the spans this thread opens from now on with ``request``."""
        self._local.request = request

    def top(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- span boundaries ------------------------------------------------- #
    def begin(self, name: str, coalesce: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        now = perf_counter()
        span = None
        if coalesce and parent is not None:
            hot = parent._hot
            if hot is None:
                hot = parent._hot = {}
            span = hot.get(name)
            if span is None:
                span = hot[name] = self._new(name, now, parent)
            else:
                span.count += 1
                span._entered = now
        else:
            span = self._new(name, now, parent)
        stack.append(span)
        return span

    def _new(self, name: str, now: float, parent: Span | None) -> Span:
        request = parent.request if parent is not None else getattr(self._local, "request", None)
        span = Span(next(self._ids), name, now, parent, request)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        now = perf_counter()
        spent = now - span._entered
        span.busy += spent
        span.end = now
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += spent

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def summarize(spans: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: summed busy time, self time and entry count."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"busy": 0.0, "self": 0.0, "count": 0})
        entry["busy"] += span["busy"]
        entry["self"] += span["self"]
        entry["count"] += span["count"]
    return totals


def layer_self_times(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Seconds of self time per layer."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self"]
    return layers


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
_INHERITED = object()


class Installation:
    """The wrappers one :func:`install` call put in place; ``remove`` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted.
        self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, coalesce: bool = False) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.begin(name, coalesce)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self.patch(owner, attr, traced)

    def wrap_steps(self, owner: Any, attr: str, name: str) -> None:
        """Time every resumption of the step generators ``owner.attr`` returns.

        A generator created while a ``core`` span is already open (a
        structure delegating to its own step methods) is left alone, so
        each step is timed and counted once.
        """
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            top = tracer.top()
            if top is not None and top.name.startswith("core."):
                return original(*args, **kwargs)
            span = tracer.begin(name, coalesce=True)
            try:
                gen = original(*args, **kwargs)
            finally:
                tracer.end(span)
            return timed_steps(tracer, name, gen)

        self.patch(owner, attr, traced)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def timed_steps(tracer: Tracer, name: str, gen: Any) -> Any:
    """A generator that forwards to ``gen``, timing each resumption.

    ``Fork`` effects are rebuilt with timed branches, because the executor
    or the immediate loop resumes branches directly.
    """
    from repro.engine.steps import Fork

    send_value: Any = None
    pending: BaseException | None = None
    started = False
    while True:
        span = tracer.begin(name, coalesce=True)
        try:
            if pending is not None:
                error, pending = pending, None
                effect = gen.throw(error)
            elif not started:
                started = True
                effect = next(gen)
            else:
                effect = gen.send(send_value)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.end(span)
        if isinstance(effect, Fork):
            effect = Fork(tuple(timed_steps(tracer, name, branch) for branch in effect.branches))
        try:
            send_value = yield effect
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # forwarded into the wrapped generator
            pending = error


class _TimedLock:
    """A lock proxy whose acquisition is recorded as ``server.lock_wait``."""

    def __init__(self, lock: Any, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        span = self._tracer.begin("server.lock_wait")
        try:
            return self._lock.acquire(*args, **kwargs)
        finally:
            self._tracer.end(span)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "_TimedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._lock.release()


#: The structure families the workloads run, by registry name.
FAMILIES = ("skipweb1d", "bucket-skipweb1d", "skipquadtree", "skiptrie")


def install(tracer: Tracer, server: bool = False) -> Installation:
    """Wrap the public entry points of every layer; returns the undo handle."""
    import repro.api.cluster as cluster_module
    import repro.engine.executor as executor_module
    from repro.api import Cluster, resolve_structure
    from repro.engine.executor import BatchExecutor
    from repro.engine.repair import RepairEngine
    from repro.net.faults import FaultPlan
    from repro.net.network import Network
    from repro.net.topology import ClusteredTopology, FlatTopology, GeoTopology
    from repro.storage import DurabilityController, StorageBackend
    from repro.storage.backends import JsonlStorage, SqliteStorage
    from repro.storage.record import encode_record

    inst = Installation(tracer)
    # api: the facade's operation and lifecycle surface
    for method in ("get", "nearest", "range", "insert", "delete", "batch",
                   "join_host", "leave_host", "crash_host", "repair"):
        inst.wrap(Cluster, method, f"api.{method}")

    # engine: the batch executor, the immediate loop and the repair pump
    inst.wrap(BatchExecutor, "run", "engine.run")
    inst.wrap(cluster_module, "run_immediate", "engine.immediate")
    inst.wrap(RepairEngine, "migrate", "engine.repair")
    inst.wrap(RepairEngine, "repair", "engine.repair")

    # net: delivery, fault interposition, topology pricing, congestion aggregates
    inst.wrap(Network, "run_round", "net.run_round", coalesce=True)
    inst.wrap(Network, "post", "net.post", coalesce=True)
    inst.wrap(Network, "send", "net.send", coalesce=True)
    inst.wrap(FaultPlan, "decide", "net.faults", coalesce=True)
    for topology in (FlatTopology, ClusteredTopology, GeoTopology):
        inst.wrap(topology, "link_cost", "net.link_cost", coalesce=True)
    inst.wrap(executor_module, "round_congestion_report", "net.congestion", coalesce=True)
    inst.wrap(cluster_module, "round_congestion_report", "net.congestion", coalesce=True)

    # core: the step generators of each family the workloads use
    for family in FAMILIES:
        cls = resolve_structure(family).cls
        for kind, attr in (("search", "search_steps"), ("range", "range_steps"),
                           ("insert", "insert_steps"), ("delete", "delete_steps"),
                           ("repair", "migrate_host"), ("repair", "repair")):
            inst.wrap_steps(cls, attr, f"core.{family}.{kind}")

    # storage: journaling, snapshots and replay
    inst.wrap(DurabilityController, "record_action", "storage.commit")
    inst.wrap(DurabilityController, "on_batch_commit", "storage.commit")
    replay = DurabilityController.__dict__["replay"]

    def traced_replay(self: Any, cluster: Any, records: Any) -> Any:
        tracer.count("storage.replayed", len(records))
        span = tracer.begin("storage.replay")
        try:
            return replay(self, cluster, records)
        finally:
            tracer.end(span)

    inst.patch(DurabilityController, "replay", traced_replay)
    inst.wrap(cluster_module, "capture_snapshot", "storage.snapshot.capture")
    for backend in (JsonlStorage, SqliteStorage):
        inst.wrap(backend, "write_snapshot", "storage.snapshot.write")
    append = StorageBackend.__dict__["append"]

    def traced_append(self: Any, kind: str, payload: dict[str, Any]) -> Any:
        span = tracer.begin("storage.append")
        try:
            record = append(self, kind, payload)
        finally:
            tracer.end(span)
        tracer.count("storage.bytes", len(json.dumps(encode_record(record))))
        return record

    inst.patch(StorageBackend, "append", traced_append)

    if server:
        _install_server(inst)
    return inst


def _install_server(inst: Installation) -> None:
    import repro.server.manager as manager_module
    from repro.server.manager import ServedCluster
    from repro.server.wsgi import ReproApp

    tracer = inst.tracer
    call = ReproApp.__dict__["__call__"]

    def traced_call(self: Any, environ: dict[str, Any], start_response: Callable) -> Any:
        tracer.set_request(environ.get("HTTP_X_REQUEST_ID"))
        span = tracer.begin("server.app")
        try:
            return call(self, environ, start_response)
        finally:
            tracer.end(span)

    inst.patch(ReproApp, "__call__", traced_call)
    inst.wrap(manager_module, "decode_payload", "server.codec")
    init = ServedCluster.__dict__["__init__"]

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        self.lock = _TimedLock(self.lock, tracer)

    inst.patch(ServedCluster, "__init__", traced_init)
