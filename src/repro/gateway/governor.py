"""Closed-loop auto-tuning of a served deployment's latency knobs.

:class:`GatewayGovernor` closes the loop that the per-stage latency
decomposition opens: it watches the observed batched reply p95 and the
admission queue depth and moves three runtime knobs of a
:class:`~repro.serve.LocalizationService` with an AIMD law —
multiplicative tightening when the SLO is violated, additive relaxation
when there is comfortable headroom:

``target_p95_s``
    The :class:`~repro.serve.scheduler.AdaptiveBatchController` linger
    SLO. Tightened (× ``decrease``) when observed p95 overshoots —
    the scheduler lingers less, trading batch depth for latency —
    and relaxed (+ ``target_step_s``) toward the configured ceiling
    when there is headroom, recovering fusion efficiency.
``fusion_min_depth``
    The controller's linger-bypass depth. Raised when overloaded at
    shallow queue depth (dispatching at once beats lingering for a
    batch there), lowered back toward its baseline on headroom.
``admission_capacity``
    The admission queue's ``capacity``. Shrunk when the queue is the
    problem (deep backlog while the SLO is violated) so excess load is
    refused *typed* at the door instead of aging past its deadline
    inside, and re-grown additively on headroom.

Two guards keep the loop stable: **hysteresis** (a violation or
headroom streak must persist ``patience`` consecutive ticks before any
move) and a **cooldown** (after a move the governor holds for
``cooldown_ticks`` ticks so the system can express the new settings).
Every knob is clamped to a configured range, and every adjustment is
counted in :meth:`~repro.serve.metrics.ServerMetrics.
record_governor_adjustment`, appended to a bounded event log, and
logged — an operator can always reconstruct *why* the knobs are where
they are.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError

_LOG = logging.getLogger(__name__)


class GatewayGovernor:
    """AIMD feedback controller over one service's latency knobs.

    Parameters
    ----------
    service:
        A started :class:`~repro.serve.LocalizationService` (the knobs
        live on ``service.scheduler.controller`` and ``service.queue``).
    slo_p95_s:
        The reply-latency p95 objective the loop defends.
    interval_s:
        Tick period of the background thread (:meth:`start`). Tests
        drive :meth:`tick` directly instead.
    patience / cooldown_ticks:
        Hysteresis: consecutive out-of-band ticks required before a
        move, and post-move hold ticks.
    decrease / target_step_s / capacity_step:
        The AIMD constants: multiplicative-decrease factor and the two
        additive-increase steps.
    headroom:
        Relaxation threshold as a fraction of the SLO: p95 below
        ``headroom * slo_p95_s`` counts as comfortable.
    p95_source:
        Override for the observed p95 (a callable returning seconds);
        defaults to the service's reply-latency reservoir. Lets tests
        script a load shift deterministically.
    """

    def __init__(
        self,
        service,
        slo_p95_s: float,
        interval_s: float = 0.5,
        patience: int = 2,
        cooldown_ticks: int = 2,
        decrease: float = 0.7,
        target_step_s: float = 0.005,
        capacity_step: int = 64,
        headroom: float = 0.5,
        target_range_s: Optional[tuple] = None,
        depth_range: tuple = (1, 8),
        capacity_range: Optional[tuple] = None,
        p95_source: Optional[Callable[[], float]] = None,
        event_capacity: int = 128,
    ):
        if slo_p95_s <= 0:
            raise ConfigurationError(
                f"slo_p95_s must be > 0, got {slo_p95_s}"
            )
        if interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {interval_s}"
            )
        if patience < 1 or cooldown_ticks < 0:
            raise ConfigurationError(
                f"patience must be >= 1 and cooldown_ticks >= 0, "
                f"got {patience}/{cooldown_ticks}"
            )
        if not 0.0 < decrease < 1.0:
            raise ConfigurationError(
                f"decrease must be in (0, 1), got {decrease}"
            )
        if not 0.0 < headroom < 1.0:
            raise ConfigurationError(
                f"headroom must be in (0, 1), got {headroom}"
            )
        self.service = service
        self.slo_p95_s = float(slo_p95_s)
        self.interval_s = float(interval_s)
        self.patience = int(patience)
        self.cooldown_ticks = int(cooldown_ticks)
        self.decrease = float(decrease)
        self.target_step_s = float(target_step_s)
        self.capacity_step = int(capacity_step)
        self.headroom = float(headroom)
        queue = service.queue
        controller = service.scheduler.controller
        baseline_capacity = int(queue.capacity)
        self.target_range_s = (
            tuple(target_range_s)
            if target_range_s is not None
            else (self.slo_p95_s / 8.0, self.slo_p95_s)
        )
        self.depth_range = (int(depth_range[0]), int(depth_range[1]))
        self.capacity_range = (
            tuple(int(c) for c in capacity_range)
            if capacity_range is not None
            else (max(1, baseline_capacity // 8), baseline_capacity)
        )
        self._baseline_depth = int(controller.fusion_min_depth)
        self._p95_source = p95_source or (
            lambda: service.metrics.latency_quantiles()["p95"]
        )
        if controller.target_p95_s is None:
            # The loop needs a live knob to move; seed it at the SLO.
            controller.target_p95_s = self.slo_p95_s
        self.ticks = 0
        self.adjustments_total = 0
        self._over = 0
        self._under = 0
        self._cooldown = 0
        self.events: deque = deque(maxlen=int(event_capacity))
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # The control law.
    # ------------------------------------------------------------------
    def tick(self) -> List[Dict]:
        """One control decision; returns the adjustments made (if any)."""
        self.ticks += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        p95 = float(self._p95_source())
        if not np.isfinite(p95):
            return []  # no traffic yet; nothing to react to
        if p95 > self.slo_p95_s:
            self._over += 1
            self._under = 0
            if self._over >= self.patience:
                return self._apply(self._tighten(p95), p95)
        elif p95 < self.headroom * self.slo_p95_s:
            self._under += 1
            self._over = 0
            if self._under >= self.patience:
                return self._apply(self._relax(p95), p95)
        else:
            self._over = 0
            self._under = 0
        return []

    def _tighten(self, p95: float) -> List[Dict]:
        """SLO violated: multiplicative decrease of latency spenders."""
        moves = []
        queue = self.service.queue
        controller = self.service.scheduler.controller
        current = float(controller.target_p95_s)
        proposed = self._clamp(current * self.decrease, self.target_range_s)
        if proposed != current:
            controller.target_p95_s = proposed
            moves.append(self._move("target_p95_s", current, proposed,
                                    "p95 over SLO: linger less"))
        depth = queue.depth_hint()
        if depth >= max(2, queue.capacity // 2):
            # The backlog is the problem: shed at the door.
            current_cap = int(queue.capacity)
            proposed_cap = self._clamp(
                int(current_cap * self.decrease), self.capacity_range
            )
            if proposed_cap != current_cap:
                queue.capacity = proposed_cap
                moves.append(self._move(
                    "admission_capacity", current_cap, proposed_cap,
                    "p95 over SLO with deep backlog: shed at admission",
                ))
        else:
            # Shallow queue yet slow: lingering for a batch is not
            # paying for itself; bypass the linger at more depths.
            current_depth = int(controller.fusion_min_depth)
            proposed_depth = self._clamp(current_depth + 1, self.depth_range)
            if proposed_depth != current_depth:
                self._set_fusion_depth(proposed_depth)
                moves.append(self._move(
                    "fusion_min_depth", current_depth, proposed_depth,
                    "p95 over SLO at shallow depth: widen linger bypass",
                ))
        return moves

    def _relax(self, p95: float) -> List[Dict]:
        """Comfortable headroom: additive recovery toward baselines."""
        moves = []
        queue = self.service.queue
        controller = self.service.scheduler.controller
        current = float(controller.target_p95_s)
        proposed = self._clamp(
            current + self.target_step_s, self.target_range_s
        )
        if proposed != current:
            controller.target_p95_s = proposed
            moves.append(self._move("target_p95_s", current, proposed,
                                    "headroom: linger longer for fusion"))
        current_cap = int(queue.capacity)
        proposed_cap = self._clamp(
            current_cap + self.capacity_step, self.capacity_range
        )
        if proposed_cap != current_cap:
            queue.capacity = proposed_cap
            moves.append(self._move(
                "admission_capacity", current_cap, proposed_cap,
                "headroom: re-admit load",
            ))
        current_depth = int(controller.fusion_min_depth)
        if current_depth > self._baseline_depth:
            proposed_depth = self._clamp(
                current_depth - 1, self.depth_range
            )
            if proposed_depth != current_depth:
                self._set_fusion_depth(proposed_depth)
                moves.append(self._move(
                    "fusion_min_depth", current_depth, proposed_depth,
                    "headroom: restore linger-bypass depth",
                ))
        return moves

    def _apply(self, moves: List[Dict], p95: float) -> List[Dict]:
        self._over = 0
        self._under = 0
        if not moves:
            return []
        self._cooldown = self.cooldown_ticks
        metrics = getattr(self.service, "metrics", None)
        for move in moves:
            move["p95_s"] = p95
            move["tick"] = self.ticks
            self.adjustments_total += 1
            self.events.append(move)
            if metrics is not None:
                metrics.record_governor_adjustment(move["knob"])
            _LOG.info(
                "governor: %s %s -> %s (%s; p95=%.4fs slo=%.4fs)",
                move["knob"], move["old"], move["new"], move["reason"],
                p95, self.slo_p95_s,
            )
        return moves

    def _set_fusion_depth(self, depth: int) -> None:
        self.service.scheduler.controller.fusion_min_depth = depth

    @staticmethod
    def _move(knob: str, old, new, reason: str) -> Dict:
        return {"knob": knob, "old": old, "new": new, "reason": reason}

    @staticmethod
    def _clamp(value, bounds):
        lo, hi = bounds
        return min(max(value, lo), hi)

    # ------------------------------------------------------------------
    # Background thread and reporting.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-governor", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # never kill the loop on a transient read
                _LOG.exception("governor tick failed")

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready controller state, knob values, and recent events."""
        scheduler = self.service.scheduler
        queue = self.service.queue
        return {
            "slo_p95_s": self.slo_p95_s,
            "ticks": self.ticks,
            "adjustments_total": self.adjustments_total,
            "cooldown": self._cooldown,
            "over_streak": self._over,
            "under_streak": self._under,
            "knobs": {
                "target_p95_s": scheduler.controller.target_p95_s,
                "fusion_min_depth": scheduler.controller.fusion_min_depth,
                "admission_capacity": queue.capacity,
            },
            "events": list(self.events),
        }
