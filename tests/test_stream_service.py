"""Service loop end-to-end: replay equivalence, resume, malformed input."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network import sample_sniffers_percentage
from repro.smc import SequentialMonteCarloTracker, TrackerConfig
from repro.stream import (
    ReplaySource,
    StreamMetrics,
    SyntheticLiveSource,
    TrackingSession,
    resume_or_create,
    run_stream,
)
from repro.traffic.measurement import FluxObservation

_CFG = TrackerConfig(prediction_count=130, keep_count=8)


@pytest.fixture()
def scenario(small_network):
    sniffers = sample_sniffers_percentage(small_network, 20, rng=1)
    source = SyntheticLiveSource(
        small_network, sniffers, user_count=2, rounds=7, rng=2
    )
    observations = list(source)

    def make_tracker(seed=31):
        return SequentialMonteCarloTracker(
            small_network.field,
            small_network.positions[sniffers],
            user_count=2,
            config=_CFG,
            rng=seed,
        )

    return observations, make_tracker


class TestRunStream:
    def test_matches_batch_tracker(self, scenario):
        """The service pumping a replayed stream must land exactly where
        the batch ``Tracker.run`` lands on the same observations."""
        observations, make_tracker = scenario
        batch = make_tracker()
        batch.run(observations)

        session = TrackingSession("svc", make_tracker())
        run_stream(ReplaySource(observations), session)
        np.testing.assert_array_equal(
            session.estimates(), batch.estimates()
        )

    def test_survives_injected_malformed_observations(self, scenario):
        observations, make_tracker = scenario
        polluted = list(observations)
        polluted.insert(3, FluxObservation(  # wrong arity
            time=2.5, sniffers=np.arange(2), values=np.ones(2)
        ))
        polluted.insert(5, "not an observation at all")
        clean_session = TrackingSession("clean", make_tracker())
        run_stream(ReplaySource(observations), clean_session)
        dirty_session = TrackingSession("dirty", make_tracker())
        run_stream(ReplaySource(polluted), dirty_session)
        # the junk was counted, and did not disturb the estimates
        assert dirty_session.metrics.skipped_total == 2
        np.testing.assert_array_equal(
            dirty_session.estimates(), clean_session.estimates()
        )

    def test_on_step_observer_sees_every_window(self, scenario):
        observations, make_tracker = scenario
        seen = []
        session = TrackingSession("svc", make_tracker())
        run_stream(
            ReplaySource(observations),
            session,
            on_step=lambda s, step: seen.append(step is not None),
        )
        assert len(seen) == len(observations)
        assert all(seen)

    def test_max_windows_bounds_consumption(self, scenario):
        observations, make_tracker = scenario
        session = TrackingSession("svc", make_tracker())
        run_stream(ReplaySource(observations), session, max_windows=2)
        assert session.windows_consumed == 2

    def test_checkpoint_written_at_exit(self, scenario, tmp_path):
        observations, make_tracker = scenario
        path = tmp_path / "exit.ckpt.npz"
        session = TrackingSession("svc", make_tracker())
        run_stream(ReplaySource(observations), session, checkpoint_path=path)
        assert path.exists()

    def test_checkpoint_cadence(self, scenario, tmp_path):
        observations, make_tracker = scenario
        path = tmp_path / "cad.ckpt.npz"
        writes = []
        import repro.stream.service as service_module

        original = service_module.save_checkpoint

        def spy(session, target, **kwargs):
            writes.append(session.windows_consumed)
            return original(session, target, **kwargs)

        session = TrackingSession("svc", make_tracker())
        try:
            service_module.save_checkpoint = spy
            run_stream(
                ReplaySource(observations),
                session,
                checkpoint_path=path,
                checkpoint_every=3,
            )
        finally:
            service_module.save_checkpoint = original
        assert 3 in writes and 6 in writes
        assert writes[-1] == len(observations)

    def test_validation(self, scenario):
        observations, make_tracker = scenario
        session = TrackingSession("svc", make_tracker())
        with pytest.raises(ConfigurationError):
            run_stream(ReplaySource(observations), session, checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            run_stream(ReplaySource(observations), session, max_windows=-1)


class TestResumeOrCreate:
    def test_creates_when_no_checkpoint(self, scenario, tmp_path):
        observations, make_tracker = scenario
        session = resume_or_create(
            tmp_path / "none.npz",
            lambda: TrackingSession("svc", make_tracker()),
        )
        assert session.windows_consumed == 0

    def test_resumes_when_checkpoint_exists(self, scenario, tmp_path):
        observations, make_tracker = scenario
        path = tmp_path / "r.ckpt.npz"

        def factory():
            return TrackingSession("svc", make_tracker())

        first = resume_or_create(path, factory)
        run_stream(
            ReplaySource(observations), first,
            checkpoint_path=path, max_windows=3,
        )
        second = resume_or_create(path, factory)
        assert second.windows_consumed == 3
        run_stream(ReplaySource(observations), second, checkpoint_path=path)
        assert second.windows_consumed == len(observations)

    def test_truth_attached_to_fresh_session(self, scenario, tmp_path):
        _, make_tracker = scenario
        truth = lambda t: None  # noqa: E731
        session = resume_or_create(
            tmp_path / "none.npz",
            lambda: TrackingSession("svc", make_tracker()),
            truth=truth,
        )
        assert session.truth is truth


class TestMetricsExport:
    def test_json_is_parseable_and_nan_safe(self, scenario):
        import json

        observations, make_tracker = scenario
        session = TrackingSession("svc", make_tracker())
        payload = json.loads(session.metrics.to_json())
        assert payload["mean_error"] is None  # NaN -> null
        run_stream(ReplaySource(observations), session)
        payload = json.loads(session.metrics.to_json())
        assert payload["windows_processed"] == len(observations)
        assert payload["latency_p95_s"] >= payload["latency_p50_s"]

    def test_latency_reservoir_is_bounded(self):
        metrics = StreamMetrics(latency_capacity=4)
        for latency in (1.0, 2.0, 3.0, 4.0, 100.0):
            metrics.record_window(latency)
        q = metrics.latency_quantiles()
        assert q["p95"] <= 100.0
        assert metrics.windows_processed == 5

    def test_metrics_validation(self):
        with pytest.raises(ConfigurationError):
            StreamMetrics(latency_capacity=0)
