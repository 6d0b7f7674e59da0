"""The AIMD governor against a real service, with scripted load.

The closed loop is tested deterministically: ``p95_source`` replays a
scripted load shift (calm -> overload -> recovery) against the real
knob objects (``scheduler.controller`` and its ``fusion_min_depth``,
``queue.capacity``), so every assertion about hysteresis, cooldown,
clamping, and multi-knob movement is exact — no sleeps, no real
latency needed.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayGovernor
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService


@pytest.fixture(scope="module")
def scenario():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    return net, sniffers, fmap


@pytest.fixture()
def service(scenario):
    net, sniffers, fmap = scenario
    with LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=8, max_wait_s=0.002, queue_capacity=256,
    ) as svc:
        yield svc


class _Script:
    """A p95_source that replays a list, holding its last value."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        value = self.values[min(self.calls, len(self.values) - 1)]
        self.calls += 1
        return value


def _governor(service, script, **kwargs):
    kwargs.setdefault("patience", 2)
    kwargs.setdefault("cooldown_ticks", 1)
    return GatewayGovernor(
        service, slo_p95_s=0.050, p95_source=script, **kwargs
    )


class TestControlLaw:
    def test_load_shift_moves_at_least_two_knobs_and_recovers(self, service):
        """The ISSUE-9 contract: a scripted overload makes the governor
        move >= 2 distinct knobs; when p95 returns inside the SLO the
        loop stops tightening."""
        script = _Script(
            [0.010, 0.010]          # calm
            + [0.120] * 8           # overload: 2.4x the 50ms SLO
            + [0.030] * 6           # recovered: inside SLO, above headroom
        )
        governor = _governor(service, script)
        baseline = {
            "target_p95_s": float(
                service.scheduler.controller.target_p95_s
            ),
            "fusion_min_depth": int(
                service.scheduler.controller.fusion_min_depth
            ),
        }
        for _ in range(16):
            governor.tick()
        moved = {e["knob"] for e in governor.events}
        assert len(moved) >= 2, f"only moved {moved}"
        assert "target_p95_s" in moved
        assert service.scheduler.controller.target_p95_s < (
            baseline["target_p95_s"]
        )
        assert service.scheduler.controller.fusion_min_depth > (
            baseline["fusion_min_depth"]
        )
        adjustments_after_overload = governor.adjustments_total
        # The recovered tail (in-SLO, above headroom) must be quiet.
        for _ in range(4):
            assert governor.tick() == []
        assert governor.adjustments_total == adjustments_after_overload
        # Every move was counted in the service metrics too.
        counted = service.metrics.governor_adjustments
        assert sum(counted.values()) == governor.adjustments_total
        assert set(counted) == moved

    def test_hysteresis_needs_a_patience_streak(self, service):
        script = _Script([0.120, 0.010, 0.120, 0.010, 0.120, 0.010])
        governor = _governor(service, script, patience=2)
        for _ in range(6):  # violations never persist 2 ticks in a row
            governor.tick()
        assert governor.adjustments_total == 0

    def test_cooldown_holds_after_a_move(self, service):
        script = _Script([0.120] * 10)
        governor = _governor(service, script, patience=1, cooldown_ticks=3)
        assert governor.tick() != []  # first violation moves immediately
        for _ in range(3):
            assert governor.tick() == []  # held by the cooldown
        assert governor.tick() != []  # cooldown expired, still violating

    def test_knobs_clamp_at_their_ranges(self, service):
        script = _Script([0.500] * 60)  # unbounded overload
        governor = _governor(
            service, script, patience=1, cooldown_ticks=0,
            depth_range=(1, 4),
        )
        for _ in range(60):
            governor.tick()
        controller = service.scheduler.controller
        assert controller.target_p95_s >= governor.target_range_s[0]
        assert controller.target_p95_s == pytest.approx(
            governor.target_range_s[0]
        )
        assert service.scheduler.controller.fusion_min_depth <= 4
        # Clamped knobs stop producing events: one more tick, no moves.
        assert governor.tick() == []

    def test_relax_restores_baselines_on_headroom(self, service):
        overload = _Script([0.120] * 6)
        governor = _governor(service, overload, patience=1, cooldown_ticks=0)
        baseline_depth = int(service.scheduler.controller.fusion_min_depth)
        for _ in range(6):
            governor.tick()
        tightened_target = float(service.scheduler.controller.target_p95_s)
        assert service.scheduler.controller.fusion_min_depth > baseline_depth
        governor._p95_source = _Script([0.001] * 40)  # deep headroom
        for _ in range(40):
            governor.tick()
        assert service.scheduler.controller.fusion_min_depth == baseline_depth
        assert service.scheduler.controller.target_p95_s > tightened_target
        relax_reasons = {
            e["reason"] for e in governor.events if "headroom" in e["reason"]
        }
        assert relax_reasons  # the recovery arm actually ran

    def test_deep_backlog_sheds_admission_capacity(self, service):
        script = _Script([0.120] * 6)
        governor = _governor(service, script, patience=1, cooldown_ticks=0)
        queue = service.queue
        baseline_capacity = int(queue.capacity)
        # Fake a deep backlog: the governor reads depth_hint() only.
        original = queue.depth_hint
        queue.depth_hint = lambda: baseline_capacity
        try:
            for _ in range(4):
                governor.tick()
        finally:
            queue.depth_hint = original
        assert queue.capacity < baseline_capacity
        assert queue.capacity >= governor.capacity_range[0]
        moved = {e["knob"] for e in governor.events}
        assert "admission_capacity" in moved

    def test_nan_p95_is_a_no_op(self, service):
        script = _Script([float("nan")] * 5)
        governor = _governor(service, script, patience=1)
        for _ in range(5):
            assert governor.tick() == []
        assert governor.adjustments_total == 0

    def test_seeds_controller_target_at_the_slo(self, scenario):
        net, sniffers, fmap = scenario
        with LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
        ) as svc:
            assert svc.scheduler.controller.target_p95_s is None
            GatewayGovernor(svc, slo_p95_s=0.040,
                            p95_source=lambda: float("nan"))
            assert svc.scheduler.controller.target_p95_s == 0.040


class TestLifecycleAndReporting:
    def test_snapshot_shape(self, service):
        script = _Script([0.120] * 4)
        governor = _governor(service, script, patience=1, cooldown_ticks=0)
        governor.tick()
        snap = governor.snapshot()
        assert snap["slo_p95_s"] == 0.050
        assert snap["ticks"] == 1
        assert snap["adjustments_total"] >= 1
        assert set(snap["knobs"]) == {
            "target_p95_s", "fusion_min_depth", "admission_capacity"
        }
        assert snap["events"][0]["p95_s"] == 0.120
        assert snap["events"][0]["tick"] == 1

    def test_background_thread_ticks(self, service):
        script = _Script([0.010])
        governor = _governor(service, script, interval_s=0.01)
        governor.start()
        try:
            import time
            deadline = time.monotonic() + 5.0
            while governor.ticks < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            governor.stop()
        assert governor.ticks >= 3
        governor.stop()  # idempotent

    def test_bad_parameters_are_rejected(self, service):
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.0)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, decrease=1.5)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, patience=0)
        with pytest.raises(ConfigurationError):
            GatewayGovernor(service, slo_p95_s=0.05, headroom=0.0)

    def test_default_p95_source_reads_service_reservoir(self, service):
        governor = GatewayGovernor(service, slo_p95_s=0.050)
        assert np.isnan(governor._p95_source())  # no traffic yet
        service.metrics.record_reply(0.123)
        assert governor._p95_source() == pytest.approx(0.123)
