"""Spans recorded around the calls into each layer, from outside the layer.

The server process installs :func:`install` before it builds anything.
Each patched public function is wrapped so that a call records one
span: its name, wall start and end (``time.monotonic``, one clock for
every process on the host), thread CPU start and end
(``time.thread_time``), the enclosing span on the same thread, the
root span of that thread's stack (the batch), an optional key (a
request or session id) and one integer the layer reports (rows,
batch size, cache hit, ...). Spans stay in memory and are written out
when the server stops; :func:`layer_metrics` turns them into the
per-layer numbers.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import stats

#: Field order of one recorded span.
FIELDS = ("sid", "parent", "root", "name", "key", "w0", "w1", "c0", "c1", "n")


class SpanRecorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.marks: List[tuple] = []  # (name, monotonic time, value)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every span (a forked child starts from an empty store)."""
        self.spans = []
        self.marks = []
        self._local = threading.local()

    def mark(self, name: str, value: float, at: Optional[float] = None) -> None:
        """A point sample outside any span (queue waits, pipe times)."""
        self.marks.append((name, time.monotonic() if at is None else at,
                           float(value)))

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``key(args)`` names the request the call serves; ``count(args,
        result)`` is the integer stored with the span. Both are
        evaluated after the call, outside the timed interval.
        """
        recorder = self
        monotonic, thread_time = time.monotonic, time.thread_time

        def traced(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(recorder._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else sid
            stack.append(sid)
            result = done = None
            c0 = thread_time()
            w0 = monotonic()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                w1 = monotonic()
                c1 = thread_time()
                stack.pop()
                recorder.spans.append((
                    sid, parent, root, name,
                    None if key is None else key(args),
                    w0, w1, c0, c1,
                    int(count(args, result)) if done and count else 0,
                ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        payload = {"fields": FIELDS, "spans": self.spans,
                   "marks": self.marks}
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def load(path: str) -> Tuple[List[tuple], List[tuple]]:
    """``(spans, marks)`` written by :meth:`SpanRecorder.dump`."""
    with open(path) as handle:
        payload = json.load(handle)
    return ([tuple(s) for s in payload["spans"]],
            [tuple(m) for m in payload["marks"]])


# ----------------------------------------------------------------------
# Patching the layers' public calls.
# ----------------------------------------------------------------------
def _patch(recorder, owner, attr, name, key=None, count=None) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr),
                                       key=key, count=count))


def _request_key(args):
    return args[2].request.request_id  # plan_localize(localizer, map, item)


def install(recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer (call before building)."""
    from repro.engine import kernels as engine_kernels
    from repro.faults.clock import monotonic as queue_clock
    from repro.fleet import router
    from repro.fpmap.map import FingerprintMap
    from repro.gateway import protocol
    from repro.serve import scheduler
    from repro.serve.admission import ADMITTED, AdmissionQueue
    from repro.serve.metrics import ServerMetrics
    from repro.stream.session import TrackingSession

    # gateway: the server reaches these through the protocol module.
    _patch(recorder, protocol, "decode_frame", "gateway.decode_frame")
    _patch(recorder, protocol, "localize_request_from_frame",
           "gateway.request_from_frame")
    _patch(recorder, protocol, "track_request_from_frame",
           "gateway.request_from_frame")
    _patch(recorder, protocol, "reply_to_frame", "gateway.reply_to_frame")
    _patch(recorder, protocol, "encode_frame", "gateway.encode_frame")

    # fleet: the router's submit, plus submit -> resolved pipe samples.
    submit = router.ServeFleet.submit

    def fleet_submit(fleet, request):
        started = time.monotonic()
        future = submit(fleet, request)

        def resolved(done, started=started):
            reply = done.result()
            recorder.mark("fleet.resolve_s",
                          time.monotonic() - started - reply.latency_s,
                          at=started)

        future.add_done_callback(resolved)
        return future

    def owner(args, future):
        fleet, request = args
        session = getattr(request, "session_id", None)
        return (fleet.session_owner(session) if session
                else fleet.ring.owner(request.client_id))

    router.ServeFleet.submit = recorder.wrap("fleet.submit", fleet_submit,
                                             count=owner)

    # admission
    _patch(recorder, AdmissionQueue, "offer", "admission.offer",
           count=lambda args, outcome: outcome != ADMITTED)
    take = AdmissionQueue.take

    def admission_take(queue, *args, **kwargs):
        # No span: take blocks while the queue is empty. Each drained
        # request's queue wait is a mark instead.
        batch, expired = take(queue, *args, **kwargs)
        now = queue_clock()  # the clock that stamps submitted_at
        for item in batch:
            recorder.mark("admission.wait_s", now - item.submitted_at)
        return batch, expired

    AdmissionQueue.take = admission_take

    # scheduler: module-level steps are looked up as globals at call time.
    _patch(recorder, scheduler.MicroBatchScheduler, "_process",
           "scheduler.batch", count=lambda args, result: len(args[1]))
    _patch(recorder, scheduler, "fuse_map_matches", "scheduler.prematch",
           count=lambda args, result: len(result))
    _patch(recorder, scheduler, "plan_localize", "scheduler.plan",
           key=_request_key, count=lambda args, result: 1)
    _patch(recorder, scheduler, "fuse_pool_kernels", "scheduler.kernels",
           count=lambda args, rows: rows or 0)
    _patch(recorder, scheduler, "solve_single_user_fused",
           "scheduler.solve1", count=lambda args, result: len(result))
    _patch(recorder, scheduler, "solve_multi_user", "scheduler.solvek",
           count=lambda args, result: 1)
    _patch(recorder, scheduler, "coordinate_descent",
           "fingerprint.descent")

    # fpmap
    _patch(recorder, FingerprintMap, "match_many", "fpmap.match",
           count=lambda args, result: len(result))
    _patch(recorder, FingerprintMap, "peel_matches", "fpmap.match",
           count=lambda args, result: 1)
    kernels_for = FingerprintMap.kernels_for
    last_hit = [False]  # kernels_for runs on the scheduler thread only

    def fpmap_kernels_for(fmap, *args, **kwargs):
        hits = fmap.cache.hits
        block = kernels_for(fmap, *args, **kwargs)
        last_hit[0] = fmap.cache.hits > hits
        return block

    FingerprintMap.kernels_for = recorder.wrap(
        "fpmap.kernels_for", fpmap_kernels_for,
        count=lambda args, result: last_hit[0],
    )

    # engine: the flux model imports this entry point at call time.
    _patch(recorder, engine_kernels, "evaluate_geometry_kernels",
           "engine.kernels",
           count=lambda args, out: out.shape[0])

    # smc / stream
    _patch(recorder, TrackingSession, "process", "smc.step",
           key=lambda args: args[0].session_id,
           count=lambda args, step: step is not None)

    # metrics
    _patch(recorder, ServerMetrics, "record_reply", "metrics.record")
    _patch(recorder, ServerMetrics, "record_batch", "metrics.record")


def install_worker_dump(recorder: SpanRecorder, path_for: Callable) -> None:
    """Fleet workers fork from the server: reset, run, dump on exit."""
    from repro.fleet import router

    worker_main = router.worker_main

    def traced_worker_main(worker_id, spec, conn):
        recorder.reset()
        try:
            worker_main(worker_id, spec, conn)
        finally:
            recorder.dump(path_for(worker_id))

    router.worker_main = traced_worker_main


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, Tuple[float, float]]:
    """``sid -> (self wall s, self cpu s)`` for spans of one process.

    Wall self time is the span's duration minus the union of its
    children's intervals. Children run on the parent's thread, nested
    inside it, so their CPU intervals are disjoint too: CPU self time
    subtracts the same union taken on the thread-CPU clock.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append(span)
    out = {}
    for sid, _, _, _, _, w0, w1, c0, c1, _ in spans:
        kids = children.get(sid, ())
        wall = (w1 - w0) - covered(((k[5], k[6]) for k in kids), w0, w1)
        cpu = (c1 - c0) - covered(((k[7], k[8]) for k in kids), c0, c1)
        out[sid] = (wall, cpu)
    return out


class LayerTotals:
    """Per span name: calls, summed self wall/CPU, summed counts."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.n: Dict[str, int] = {}
        self.batch_wall = 0.0  # summed duration of scheduler.batch spans
        self.owners: Dict[int, int] = {}  # fleet worker -> requests routed

    def add(self, spans: Sequence[tuple], lo: float, hi: float) -> None:
        """Fold one process's spans that start inside ``[lo, hi)``."""
        own = self_times(spans)
        for span in spans:
            sid, name, w0, w1, n = span[0], span[3], span[5], span[6], span[9]
            if not lo <= w0 < hi:
                continue
            wall, cpu = own[sid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.wall[name] = self.wall.get(name, 0.0) + wall
            self.cpu[name] = self.cpu.get(name, 0.0) + cpu
            self.n[name] = self.n.get(name, 0) + n
            if name == "scheduler.batch":
                self.batch_wall += w1 - w0
            elif name == "fleet.submit":
                self.owners[n] = self.owners.get(n, 0) + 1

    def per(self, name: str, denominator: float, scale: float) -> Tuple[
            Optional[float], Optional[float]]:
        """(CPU, wall) self time of ``name`` per unit, times ``scale``."""
        if not denominator or name not in self.calls:
            return None, None
        return (scale * self.cpu[name] / denominator,
                scale * self.wall[name] / denominator)


def _window(marks: Sequence[tuple], name: str, lo: float, hi: float):
    return [v for m, t, v in marks if m == name and lo <= t < hi]


def layer_metrics(
    processes: Sequence[Tuple[List[tuple], List[tuple]]],
    lo: float,
    hi: float,
    workers: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics over the window ``[lo, hi)``.

    ``processes`` holds ``(spans, marks)`` of the server and of every
    fleet worker; ``workers`` is how many processes run a scheduler
    (the denominator of ``scheduler.busy_share``). Metrics of a layer
    the workload never called are left out.
    """
    totals = LayerTotals()
    marks: List[tuple] = []
    for spans, process_marks in processes:
        totals.add(spans, lo, hi)
        marks.extend(process_marks)
    out: Dict[str, Tuple[float, str]] = {}

    def put(name, pair, unit):
        cpu, wall = pair
        if cpu is None:
            return
        out[name.format(kind="cpu")] = (cpu, unit)
        out[name.format(kind="wall")] = (wall, unit)

    calls, n = totals.calls, totals.n
    requests = calls.get("gateway.request_from_frame", 0)
    replies = calls.get("gateway.reply_to_frame", 0)
    localize = calls.get("scheduler.plan", 0)

    decode_cpu, decode_wall = totals.per("gateway.decode_frame", requests, 1e6)
    frame_cpu, frame_wall = totals.per("gateway.request_from_frame",
                                       requests, 1e6)
    if decode_cpu is not None and frame_cpu is not None:
        put("gateway.decode_{kind}_us",
            (decode_cpu + frame_cpu, decode_wall + frame_wall), "us")
    put("gateway.reply_frame_{kind}_us",
        totals.per("gateway.reply_to_frame", replies, 1e6), "us")
    put("gateway.encode_{kind}_us",
        totals.per("gateway.encode_frame",
                   calls.get("gateway.encode_frame", 0), 1e6), "us")

    put("fleet.submit_{kind}_us",
        totals.per("fleet.submit", calls.get("fleet.submit", 0), 1e6), "us")
    if totals.owners:
        out["fleet.worker_reply_share_max"] = (
            max(totals.owners.values()) / sum(totals.owners.values()),
            "ratio")
    pipe = _window(marks, "fleet.resolve_s", lo, hi)
    if pipe:
        out["fleet.pipe_ms_p50"] = (1e3 * stats.quantile(pipe, 0.50), "ms")
        out["fleet.pipe_ms_p99"] = (1e3 * stats.quantile(pipe, 0.99), "ms")

    put("admission.offer_{kind}_us",
        totals.per("admission.offer", calls.get("admission.offer", 0), 1e6),
        "us")
    waits = _window(marks, "admission.wait_s", lo, hi)
    if waits:
        out["admission.queue_wait_ms_p50"] = (
            1e3 * stats.quantile(waits, 0.50), "ms")
        out["admission.queue_wait_ms_p99"] = (
            1e3 * stats.quantile(waits, 0.99), "ms")
    if calls.get("scheduler.batch"):
        out["admission.batch_size_mean"] = (
            n["scheduler.batch"] / calls["scheduler.batch"], "count")
    if "admission.offer" in calls:
        out["admission.refused"] = (float(n["admission.offer"]), "count")

    prematched = n.get("scheduler.prematch", 0)
    put("scheduler.prematch_{kind}_us_per_req",
        totals.per("scheduler.prematch", prematched, 1e6), "us")
    put("scheduler.plan_{kind}_us_per_req",
        totals.per("scheduler.plan", localize, 1e6), "us")
    rows = n.get("scheduler.kernels", 0)
    put("scheduler.kernels_{kind}_us_per_row",
        totals.per("scheduler.kernels", rows, 1e6), "us")
    if calls.get("scheduler.kernels"):
        out["scheduler.fused_rows_per_batch"] = (
            rows / calls["scheduler.kernels"], "count")
    put("scheduler.solve1_{kind}_us_per_req",
        totals.per("scheduler.solve1", n.get("scheduler.solve1", 0), 1e6),
        "us")
    put("scheduler.solvek_{kind}_ms_per_req",
        totals.per("scheduler.solvek", n.get("scheduler.solvek", 0), 1e3),
        "ms")
    if calls.get("scheduler.batch"):
        out["scheduler.busy_share"] = (
            totals.batch_wall / ((hi - lo) * max(1, workers)), "ratio")

    matched = n.get("fpmap.match", 0)
    put("fpmap.match_{kind}_us_per_obs",
        totals.per("fpmap.match", matched, 1e6), "us")
    lookups = calls.get("fpmap.kernels_for", 0)
    put("fpmap.kernels_for_{kind}_us",
        totals.per("fpmap.kernels_for", lookups, 1e6), "us")
    if lookups:
        out["fpmap.cache_hit_ratio"] = (
            n["fpmap.kernels_for"] / lookups, "ratio")

    kernel_rows = n.get("engine.kernels", 0)
    put("engine.kernel_{kind}_us_per_row",
        totals.per("engine.kernels", kernel_rows, 1e6), "us")
    if kernel_rows and replies:
        out["engine.kernel_rows_per_reply"] = (kernel_rows / replies, "count")

    put("fingerprint.descent_{kind}_ms",
        totals.per("fingerprint.descent",
                   calls.get("fingerprint.descent", 0), 1e3), "ms")
    steps = calls.get("smc.step", 0)
    put("smc.step_{kind}_ms", totals.per("smc.step", steps, 1e3), "ms")
    if steps:
        out["smc.stepped_share"] = (n["smc.step"] / steps, "ratio")

    put("metrics.record_{kind}_us_per_reply",
        totals.per("metrics.record", replies, 1e6), "us")
    return out
