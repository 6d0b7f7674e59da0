"""Resilience wiring across engine, serve, and stream.

The latent-bug sweep's regression tests live here: exception swallows
are now observable, the admission deadline race is closed under an
injected clock, checkpoints are atomic and typed on corruption, and a
parallel backend that keeps faulting degrades to serial evaluation.
"""

import threading

import numpy as np
import pytest

from repro.engine import Engine
from repro.errors import (
    ConfigurationError,
    FaultInjected,
    RetriesExhausted,
)
from repro.faults import (
    FakeClock,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    clock,
    injected,
)
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import (
    ERROR_DEADLINE_EXPIRED,
    LocalizationService,
    LocalizeRequest,
)
from repro.serve.admission import PendingRequest
from repro.serve.metrics import ServerMetrics
from repro.serve.resilience import BackendGovernor
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import TrackingSession
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.traffic import MeasurementModel, simulate_flux

_CFG = TrackerConfig(prediction_count=100, keep_count=5)
_FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    return net, sniffers


def _requests(net, sniffers, count, seed=0, deadline_s=None):
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    out = []
    for r in range(count):
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(
            net, list(truth), [float(gen.uniform(1.0, 3.0))], rng=gen
        )
        out.append(LocalizeRequest(
            request_id=f"r{r}", client_id="c0",
            observation=measure.observe(flux), candidate_count=32,
            seed=int(gen.integers(2**31)), use_map=False,
            deadline_s=deadline_s,
        ))
    return out


def _tracker(net, sniffers, rng=3):
    return SequentialMonteCarloTracker(
        net.field, net.positions[sniffers], user_count=1, config=_CFG, rng=rng
    )


# ----------------------------------------------------------------------
# Engine: retry policy + typed worker-death errors.
# ----------------------------------------------------------------------
class TestEngineRetry:
    def test_map_retries_transients(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if calls.count(x) == 1 and x == 2:
                raise FaultInjected("transient")
            return x * x

        eng = Engine(retry_policy=_FAST_RETRIES)
        assert eng.map(flaky, [1, 2, 3]) == [1, 4, 9]

    def test_run_chunks_retries_transients(self):
        failed = []
        out = np.zeros(8)

        def task(start, stop):
            if start == 4 and not failed:
                failed.append(1)
                raise FaultInjected("transient")
            out[start:stop] = 1.0

        eng = Engine(retry_policy=_FAST_RETRIES)
        eng.run_chunks(8, task, chunk_size=4)
        assert out.sum() == 8.0

    def test_no_policy_propagates_first_failure(self):
        def broken(x):
            raise FaultInjected("down")

        with pytest.raises(FaultInjected):
            Engine().map(broken, [1, 2])

    def test_exhaustion_is_typed(self):
        def broken(x):
            raise FaultInjected("permanently down")

        eng = Engine(retry_policy=RetryPolicy(max_attempts=2,
                                              base_delay_s=0.0,
                                              max_delay_s=0.0))
        with pytest.raises(RetriesExhausted):
            eng.map(broken, [1, 2])

    def test_config_and_policy_both_kwargs_ok(self):
        from repro.engine import EngineConfig

        eng = Engine(EngineConfig(workers=2), retry_policy=_FAST_RETRIES)
        assert eng.retry_policy is _FAST_RETRIES
        eng.close()


# ----------------------------------------------------------------------
# BackendGovernor: fallback ladder under an injected clock.
# ----------------------------------------------------------------------
class TestBackendGovernor:
    def test_none_engine_always_serial(self):
        governor = BackendGovernor(None)
        assert governor.current_engine() is None
        assert governor.record_fault() is False

    def test_threshold_then_cooldown_then_reescalate(self):
        events = []
        eng = Engine()
        fake = FakeClock()
        governor = BackendGovernor(
            eng, fault_threshold=2, cooldown_s=10.0,
            on_fallback=lambda: events.append("down"),
            on_reescalate=lambda: events.append("up"),
        )
        with clock.installed(fake):
            assert governor.current_engine() is eng
            assert governor.record_fault() is False
            assert governor.record_fault() is True  # threshold
            assert events == ["down"]
            assert governor.current_engine() is None  # leased out
            fake.advance(9.0)
            assert governor.current_engine() is None  # still cooling
            fake.advance(2.0)
            assert governor.current_engine() is eng  # re-escalated
            assert events == ["down", "up"]
            assert governor.streak == 0

    def test_success_resets_streak(self):
        governor = BackendGovernor(Engine(), fault_threshold=3)
        governor.record_fault()
        governor.record_fault()
        governor.record_success()
        assert governor.streak == 0
        assert governor.record_fault() is False

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackendGovernor(None, fault_threshold=0)
        with pytest.raises(ConfigurationError):
            BackendGovernor(None, cooldown_s=0.0)


# ----------------------------------------------------------------------
# Serve: observable prematch fallback, deadline race, degradation.
# ----------------------------------------------------------------------
class TestPrematchObserved:
    def test_raising_prematch_is_counted_and_recovered(self, scenario):
        net, sniffers = scenario
        from repro.fpmap import build_fingerprint_map

        fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                     resolution=2.0)
        service = LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            max_batch=4,
        )
        broken = {"count": 0}
        original = fmap.match_many

        def exploding(values, ks, **kwargs):
            broken["count"] += 1
            raise RuntimeError("prematch blew up")

        fmap.match_many = exploding
        try:
            requests = _requests(net, sniffers, 2, seed=1)
            # use_map must be on for the fused prematch to trigger.
            requests = [
                LocalizeRequest(
                    request_id=r.request_id, client_id=r.client_id,
                    observation=r.observation, candidate_count=32,
                    seed=r.seed, use_map=True,
                )
                for r in requests
            ]
            with service:
                replies = [service.submit(r).result(timeout=30) for r in requests]
        finally:
            fmap.match_many = original
        assert all(reply.ok for reply in replies)  # per-request fallback
        assert broken["count"] >= 1
        snapshot = service.metrics.snapshot()
        assert snapshot["internal_faults"].get("serve.prematch", 0) >= 1
        assert snapshot["internal_faults_total"] >= 1


class TestDeadlineDispatchRace:
    def test_expiry_between_drain_and_dispatch(self, scenario):
        """A deadline lapsing after the queue purge still gets the typed
        reply — re-checked at dispatch time on the injected clock."""
        net, sniffers = scenario
        service = LocalizationService(net.field, net.positions[sniffers])
        scheduler = service.scheduler
        fake = FakeClock(start=1000.0)
        with clock.installed(fake):
            request = _requests(net, sniffers, 1, seed=2, deadline_s=5.0)[0]
            item = PendingRequest.wrap(request)
            assert not item.expired()
            # The race window: drained at t=1000, dispatched after the
            # deadline passed (a slow fused batch ahead of it).
            fake.advance(6.0)
            scheduler._process([item])
            reply = item.future.result(timeout=5)
        assert not reply.ok
        assert reply.code == ERROR_DEADLINE_EXPIRED
        assert "before evaluation" in reply.message
        assert service.metrics.deadline_expiries == 1

    def test_live_request_still_solved(self, scenario):
        net, sniffers = scenario
        service = LocalizationService(net.field, net.positions[sniffers])
        fake = FakeClock(start=1000.0)
        with clock.installed(fake):
            request = _requests(net, sniffers, 1, seed=3, deadline_s=50.0)[0]
            item = PendingRequest.wrap(request)
            fake.advance(6.0)
            service.scheduler._process([item])
            reply = item.future.result(timeout=5)
        assert reply.ok


class TestServeDegradation:
    def test_fuse_fault_retried_bitwise_identical(self, scenario):
        net, sniffers = scenario
        requests = _requests(net, sniffers, 3, seed=4)

        def run(plan):
            service = LocalizationService(
                net.field, net.positions[sniffers], max_batch=4,
                retry_policy=_FAST_RETRIES,
            )
            with injected(plan), service:
                return [service.submit(r).result(timeout=30)
                        for r in requests]

        baseline = run(None)
        plan = FaultPlan([FaultSpec("serve.batch.fuse", times=2)], seed=1)
        faulted = run(plan)
        assert plan.fired("serve.batch.fuse") == 2
        assert all(r.ok for r in faulted)
        for a, b in zip(baseline, faulted):
            for fa, fb in zip(a.result.fits, b.result.fits):
                np.testing.assert_array_equal(fa.positions, fb.positions)
                np.testing.assert_array_equal(fa.thetas, fb.thetas)
                assert fa.objective == fb.objective

    def test_persistent_faults_degrade_then_reescalate(self, scenario):
        net, sniffers = scenario
        eng = Engine(workers=2, chunk_size=16)
        metrics = ServerMetrics()
        service = LocalizationService(
            net.field, net.positions[sniffers], engine=eng,
            max_batch=2, metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                                     max_delay_s=0.0),
            fault_threshold=2, cooldown_s=30.0,
        )
        scheduler = service.scheduler
        fake = FakeClock(start=0.0)
        plan = FaultPlan([FaultSpec("serve.batch.fuse", times=None)], seed=2)
        try:
            with clock.installed(fake):
                with injected(plan):
                    # Each batch exhausts its retry budget (the fault is
                    # unlimited), counts one governor fault, and answers
                    # via the serial fallback... which also faults, so
                    # replies come back as typed internal errors — but
                    # exactly one reply each, none lost.
                    for seed in (10, 11):
                        item = PendingRequest.wrap(
                            _requests(net, sniffers, 1, seed=seed)[0]
                        )
                        scheduler._process([item])
                        assert item.future.result(timeout=5) is not None
                    assert scheduler.governor.degraded
                    assert metrics.backend_fallbacks == 1
                # Disarmed + cooled down: the backend comes back.
                fake.advance(31.0)
                item = PendingRequest.wrap(
                    _requests(net, sniffers, 1, seed=12)[0]
                )
                scheduler._process([item])
                assert item.future.result(timeout=5).ok
                assert not scheduler.governor.degraded
                assert metrics.backend_reescalations == 1
        finally:
            eng.close()
        snapshot = metrics.snapshot()
        assert snapshot["retries_total"] >= 2
        assert snapshot["backend_fallbacks"] == 1

    def test_metrics_snapshot_has_resilience_keys(self):
        snapshot = ServerMetrics().snapshot()
        for key in ("retries", "retries_total", "backend_fallbacks",
                    "backend_reescalations", "internal_faults",
                    "internal_faults_total"):
            assert key in snapshot


# ----------------------------------------------------------------------
# Stream: observable step failures.
# ----------------------------------------------------------------------
class TestSessionStepObserved:
    def test_raising_tracker_is_counted(self, scenario):
        net, sniffers = scenario
        gen = np.random.default_rng(6)
        measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
        truth = net.field.sample_uniform(1, gen)
        flux = simulate_flux(net, list(truth), [1.5], rng=gen)
        obs = measure.observe(flux)

        session = TrackingSession("obs", _tracker(net, sniffers))

        def exploding(observation):
            raise RuntimeError("solver diverged")

        session.tracker.step = exploding
        step = session.process(obs)
        assert step is None  # never-raise contract intact
        assert session.step_errors == {"RuntimeError": 1}
        assert session.last_error == "RuntimeError: solver diverged"
        summary = session.summary()
        assert summary["step_errors"] == {"RuntimeError": 1}
        assert summary["last_error"] == "RuntimeError: solver diverged"
        assert session.metrics.windows_skipped["step_failed"] == 1

    def test_clean_session_reports_empty_errors(self, scenario):
        net, sniffers = scenario
        session = TrackingSession("clean", _tracker(net, sniffers))
        assert session.summary()["step_errors"] == {}
        assert session.summary()["last_error"] is None


# ----------------------------------------------------------------------
# Checkpoints: atomicity, typed corruption, retryable writes.
# ----------------------------------------------------------------------
class TestCheckpointAtomicity:
    def _session(self, scenario, seed=7):
        net, sniffers = scenario
        return TrackingSession("ckpt", _tracker(net, sniffers, rng=seed))

    def test_partial_write_leaves_no_file(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "a.ckpt.npz"
        plan = FaultPlan([FaultSpec("checkpoint.partial_write", times=1)])
        with injected(plan):
            with pytest.raises(FaultInjected):
                save_checkpoint(session, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # temp cleaned up too

    def test_partial_write_preserves_previous_checkpoint(
        self, scenario, tmp_path
    ):
        session = self._session(scenario)
        path = tmp_path / "b.ckpt.npz"
        save_checkpoint(session, path)
        before = path.read_bytes()
        plan = FaultPlan([FaultSpec("checkpoint.partial_write", times=1)])
        with injected(plan):
            with pytest.raises(FaultInjected):
                save_checkpoint(session, path)
        assert path.read_bytes() == before  # old one untouched, loadable
        assert load_checkpoint(path).session_id == "ckpt"

    def test_retry_absorbs_torn_write_bitwise(self, scenario, tmp_path):
        session = self._session(scenario)
        clean = tmp_path / "clean.ckpt.npz"
        save_checkpoint(session, clean)
        faulted = tmp_path / "faulted.ckpt.npz"
        plan = FaultPlan([
            FaultSpec("checkpoint.partial_write", times=1),
            FaultSpec("checkpoint.fsync", times=1),
        ])
        with injected(plan):
            save_checkpoint(session, faulted, retry_policy=_FAST_RETRIES)
        assert plan.fired("checkpoint.partial_write") == 1
        assert plan.fired("checkpoint.fsync") == 1
        assert faulted.read_bytes() == clean.read_bytes()

    def test_fsync_fault_is_oserror_hence_transient(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "c.ckpt.npz"
        plan = FaultPlan([FaultSpec("checkpoint.fsync", times=1)])
        with injected(plan):
            with pytest.raises(OSError):
                save_checkpoint(session, path)
        assert not path.exists()

    def test_truncated_checkpoint_is_typed(self, scenario, tmp_path):
        session = self._session(scenario)
        path = tmp_path / "t.ckpt.npz"
        save_checkpoint(session, path)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(ConfigurationError, match="corrupt or truncated"):
            load_checkpoint(path)

    def test_garbage_checkpoint_is_typed_with_path(self, scenario, tmp_path):
        path = tmp_path / "g.ckpt.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(ConfigurationError, match=str(path)):
            load_checkpoint(path)

    def test_missing_checkpoint_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.ckpt.npz")

    def test_concurrent_writers_unique_temps(self, scenario, tmp_path):
        """Two saves of the same path from different threads never
        corrupt each other (pid-unique temp + atomic publish)."""
        session = self._session(scenario)
        path = tmp_path / "race.ckpt.npz"
        errors = []

        def write():
            try:
                for _ in range(5):
                    save_checkpoint(session, path)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert load_checkpoint(path).session_id == "ckpt"
