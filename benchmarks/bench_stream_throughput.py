"""Streaming tracking throughput: windows/sec and p95 step latency.

Measures a :class:`~repro.serve.LocalizationService` stepping 1, 4, and
16 concurrent tracking sessions (``open_session`` plus one
:class:`~repro.serve.TrackStepRequest` per window) over identical
replayed streams. Every session's windows are submitted round-robin
without waiting, so the scheduler's batches interleave sessions. Runs
under pytest-benchmark like the rest of the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_stream_throughput.py

emitting one JSON record per session count into
``BENCH_stream_throughput.json`` via the shared runner
(``benchmarks/benchrunner.py``). ``meta.bitwise_equals_local`` is the
correctness gate: every session's final ``estimates()`` — in every
sweep run, and in a 3-session run with ``Engine(workers=2)`` behind the
service — equals a local :class:`~repro.stream.TrackingSession` loop on
the same ``rng``, float64-bitwise. The script exits non-zero when it is
false.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest

from repro.engine import Engine
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService, TrackStepRequest
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import SyntheticLiveSource, TrackingSession

SESSION_COUNTS = (1, 4, 16)
ROUNDS = 10
_CFG = TrackerConfig(prediction_count=150, keep_count=10)


def _scenario():
    net = build_network(
        field=RectangularField(15, 15), node_count=225, radius=2.0, rng=1234
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=1)
    observations = list(
        SyntheticLiveSource(net, sniffers, user_count=2, rounds=ROUNDS, rng=2)
    )
    return net, sniffers, observations


def _run_fleet(net, sniffers, observations, session_count, engine=None):
    """Step ``session_count`` sessions through one service; return them."""
    ids = [f"s{index}" for index in range(session_count)]
    service = LocalizationService(
        net.field, net.positions[sniffers], engine=engine,
        queue_capacity=session_count * len(observations),
    )
    with service:
        for index, sid in enumerate(ids):
            service.open_session(sid, user_count=2, config=_CFG,
                                 rng=100 + index)
        started = time.perf_counter()
        futures = [
            service.submit(TrackStepRequest(
                request_id=f"{sid}-{r}", client_id=sid, session_id=sid,
                observation=observation,
            ))
            for r, observation in enumerate(observations)
            for sid in ids
        ]
        replies = [future.result(timeout=120) for future in futures]
        elapsed = time.perf_counter() - started
    processed = sum(
        1 for reply in replies if reply.ok and reply.step is not None
    )
    sessions = [service.close_session(sid) for sid in ids]
    return sessions, processed, elapsed


def _equals_local(net, sniffers, observations, sessions) -> bool:
    """Each session's estimates == a local loop on the same ``rng``."""
    for index, session in enumerate(sessions):
        local = TrackingSession("local", SequentialMonteCarloTracker(
            net.field, net.positions[sniffers], user_count=2, config=_CFG,
            rng=100 + index,
        ))
        for observation in observations:
            local.process(observation)
        if not np.array_equal(session.estimates(), local.estimates()):
            return False
    return True


def check_engine_parity(net, sniffers, observations) -> bool:
    """3 interleaved sessions behind an engine-backed service equal local."""
    with Engine(workers=2) as eng:
        sessions, _, _ = _run_fleet(net, sniffers, observations, 3, eng)
    return _equals_local(net, sniffers, observations, sessions)


def _record(sessions, processed, elapsed, session_count):
    p95 = max(
        session.metrics.latency_quantiles()["p95"] for session in sessions
    )
    return {
        "benchmark": "stream_throughput",
        "sessions": session_count,
        "windows": processed,
        "elapsed_s": elapsed,
        "windows_per_sec": processed / elapsed,
        "latency_p95_s": p95,
    }


@pytest.fixture(scope="module")
def stream_scenario():
    return _scenario()


@pytest.mark.parametrize("session_count", SESSION_COUNTS)
def test_stream_throughput(benchmark, stream_scenario, session_count):
    net, sniffers, observations = stream_scenario

    def run():
        return _run_fleet(net, sniffers, observations, session_count)

    sessions, processed, elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    record = _record(sessions, processed, elapsed, session_count)
    benchmark.extra_info.update(record)
    print("\n" + json.dumps(record))
    assert processed == session_count * len(observations)
    assert _equals_local(net, sniffers, observations, sessions)


def test_stream_engine_parity(stream_scenario):
    assert check_engine_parity(*stream_scenario)


def main() -> int:
    from benchrunner import write_bench_json

    net, sniffers, observations = _scenario()
    records = []
    bitwise = True
    for session_count in SESSION_COUNTS:
        sessions, processed, elapsed = _run_fleet(
            net, sniffers, observations, session_count
        )
        bitwise = bitwise and _equals_local(
            net, sniffers, observations, sessions
        )
        record = _record(sessions, processed, elapsed, session_count)
        records.append(record)
        print(json.dumps(record))
    bitwise = bitwise and check_engine_parity(net, sniffers, observations)
    path = write_bench_json(
        "stream_throughput", records,
        meta={"rounds": ROUNDS, "bitwise_equals_local": bitwise},
    )
    print(f"wrote {path}; bitwise_equals_local={bitwise}")
    return 0 if bitwise else 1


if __name__ == "__main__":
    sys.exit(main())
