"""Unit tests of the benchmark's own arithmetic and scheduling."""

import asyncio
import time

import pytest

import loadgen
import stats
import tracing


# ----------------------------------------------------------------------
# Span self-time arithmetic.
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(6.0, 7.0), (1.0, 2.0)], 0.0, 10.0) == 2.0
    # Clipped to the parent's interval on both sides.
    assert tracing.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    # A child nested in another child is not subtracted twice.
    assert tracing.covered([(1.0, 6.0), (2.0, 3.0)], 0.0, 10.0) == 5.0


def _span(sid, parent, name, w0, w1, c0=None, c1=None, n=0):
    c0 = w0 if c0 is None else c0
    c1 = w1 if c1 is None else c1
    return (sid, parent, sid if not parent else 1, name, None,
            w0, w1, c0, c1, n)


def test_self_time_subtracts_children_only():
    spans = [
        _span(1, 0, "batch", 0.0, 10.0, 0.0, 8.0),
        _span(2, 1, "plan", 1.0, 4.0, 1.0, 3.0),
        _span(3, 2, "kernels_for", 2.0, 3.0, 1.5, 2.0),
        _span(4, 1, "solve", 5.0, 7.0, 4.0, 6.0),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx((10.0 - 3.0 - 2.0, 8.0 - 2.0 - 2.0))
    assert own[2] == pytest.approx((3.0 - 1.0, 2.0 - 0.5))
    assert own[3] == pytest.approx((1.0, 0.5))
    assert own[4] == pytest.approx((2.0, 2.0))
    # Self times partition the root: they add up to its duration.
    assert sum(w for w, _ in own.values()) == pytest.approx(10.0)


def test_layer_totals_keep_only_spans_starting_in_window():
    spans = [
        _span(1, 0, "scheduler.batch", 0.0, 2.0, n=3),
        _span(2, 0, "scheduler.batch", 5.0, 6.0, n=1),
        _span(3, 2, "scheduler.plan", 5.2, 5.8),
    ]
    totals = tracing.LayerTotals()
    totals.add(spans, 4.0, 10.0)
    assert totals.calls == {"scheduler.batch": 1, "scheduler.plan": 1}
    assert totals.wall["scheduler.batch"] == pytest.approx(0.4)
    assert totals.batch_wall == pytest.approx(1.0)
    assert totals.n["scheduler.batch"] == 1


def test_recorder_nests_spans_per_thread():
    recorder = tracing.SpanRecorder()

    def inner(x):
        time.sleep(0.002)
        return x + 1

    traced_inner = recorder.wrap("inner", inner, count=lambda a, r: r)

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = recorder.wrap("outer", outer, key=lambda a: f"req-{a[0]}")
    assert traced_outer(1) == 4
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[3], []).append(span)
    (root,) = by_name["outer"]
    assert root[1] == 0 and root[2] == root[0] and root[4] == "req-1"
    assert [s[1] for s in by_name["inner"]] == [root[0], root[0]]
    assert [s[2] for s in by_name["inner"]] == [root[0], root[0]]
    assert [s[9] for s in by_name["inner"]] == [2, 2]
    own = tracing.self_times(recorder.spans)
    assert own[root[0]][0] < root[6] - root[5] - 0.003


def test_recorder_records_a_failed_call_without_its_count():
    recorder = tracing.SpanRecorder()

    def boom():
        raise RuntimeError("x")

    traced = recorder.wrap("boom", boom, count=lambda a, r: len(r))
    with pytest.raises(RuntimeError):
        traced()
    assert recorder.spans[0][3] == "boom" and recorder.spans[0][9] == 0


# ----------------------------------------------------------------------
# Percentiles carry their sample count.
# ----------------------------------------------------------------------
def test_percentile_reports_count_and_support():
    values = list(range(1, 1001))
    value, n, supported = stats.percentile(values, 0.99)
    assert n == 1000 and supported
    assert value == pytest.approx(990.01)
    assert stats.percentile(values[:999], 0.99)[2] is False
    assert stats.percentile([], 0.5) == (None, 0, False)
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_quantile_matches_numpy_linear_method():
    np = pytest.importorskip("numpy")
    values = [0.3, 5.0, 1.2, 9.9, 4.4, 4.4, 0.0]
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert stats.quantile(values, q) == pytest.approx(
            float(np.quantile(values, q)))


# ----------------------------------------------------------------------
# Open-loop due times and lag; closed-loop turnaround lag.
# ----------------------------------------------------------------------
class _FakeWire:
    def __init__(self):
        self.lags = []
        self.fired = []

    def fire(self, rec, connection):
        rec.sent = time.monotonic()
        rec.arrived = rec.sent + 0.001
        self.fired.append((rec, connection))

    async def drain(self):
        return None


def test_open_loop_times_from_due_and_records_lag():
    wire = _FakeWire()
    events = [
        loadgen.Event(offset, i, lambda i=i: (
            loadgen.Rec(f"r{i}", "localize", None, {}), i))
        for i, offset in enumerate((0.04, 0.0, 0.02, 0.06))
    ]

    async def go():
        start = time.monotonic() + 0.01
        await loadgen.open_loop(wire, events, start, start + 0.015,
                                start + 0.05)
        return start

    start = asyncio.run(go())
    recs = [rec for rec, _ in wire.fired]
    assert [r.id for r in recs] == ["r1", "r2", "r0", "r3"]  # due order
    assert [r.due - start for r in recs] == pytest.approx(
        [0.0, 0.02, 0.04, 0.06])
    assert [r.timed for r in recs] == [False, True, True, False]
    assert len(wire.lags) == 4
    for (due, lag), rec in zip(wire.lags, recs):
        assert due == rec.due and lag >= 0.0
        assert rec.sent >= rec.due
        # Latency runs from the due time, so it includes the lag.
        assert rec.latency == pytest.approx(rec.arrived - rec.due)
    assert loadgen.lag_samples(wire.lags, recs[1].due, recs[3].due) == [
        wire.lags[1][1], wire.lags[2][1]]


def test_closed_loop_lag_is_reply_to_next_send():
    sends = []

    class Wire:
        lags = []

        async def request(self, rec, connection):
            rec.sent = time.monotonic()
            sends.append(rec)
            await asyncio.sleep(0.005)
            rec.arrived = time.monotonic()
            rec.replies = 1
            return {}

    wire = Wire()

    async def go():
        now = time.monotonic()
        await loadgen.closed_loop(
            wire, 2,
            lambda c, k: loadgen.Rec(f"{c}-{k}", "localize", None, {}),
            now, now + 0.03,
        )

    asyncio.run(go())
    per_client = {c: [r for r in sends if r.id.startswith(f"{c}-")]
                  for c in (0, 1)}
    assert all(len(recs) >= 2 for recs in per_client.values())
    assert len(wire.lags) == len(sends) - 2  # no lag before a first send
    assert all(0.0 <= lag < 0.005 for _, lag in wire.lags)
    for recs in per_client.values():
        for earlier, later in zip(recs, recs[1:]):
            assert later.sent >= earlier.arrived
        # Latency runs from the send in a closed loop.
        assert recs[0].latency == pytest.approx(
            recs[0].arrived - recs[0].sent)


def test_ledger_counts_every_reply_frame():
    ledger = loadgen.Ledger()
    rec = ledger.add(loadgen.Rec("a", "localize", None, {}))
    ledger.arrive({"id": "a", "ok": True}, 1.0)
    ledger.arrive({"id": "a", "ok": True}, 2.0)
    ledger.arrive({"id": "zzz"}, 3.0)
    assert rec.replies == 2 and rec.arrived == 1.0
    assert ledger.stray == 1
    with pytest.raises(ValueError):
        ledger.add(loadgen.Rec("a", "localize", None, {}))
