"""Parallel kernel engine: chunked zero-copy kernel evaluation and fan-out.

The engine makes the two costs that dominate every localization and
tracking round — geometry-kernel evaluation (paper Formula 3.4) and the
batched theta solve (Formula 4.1) — hardware-saturating:

* :mod:`repro.engine.kernels` streams candidate pools through a
  broadcast (no ``(m*n, 2)`` materialization), chunked, optionally
  float32 evaluator with a closed-form rectangular ray-exit fast path;
* :mod:`repro.engine.executor` fans chunks, solver row blocks,
  per-user rankings and fingerprint-map cell batches out over a shared
  worker pool — with the invariant that float64 parallel output is
  bitwise-equal to serial (disjoint writes, no reduction-order changes).

See docs/PERFORMANCE.md for knob guidance.
"""

from repro.engine.config import EngineConfig
from repro.engine.executor import Engine, resolve_engine
from repro.engine.kernels import (
    evaluate_geometry_kernels,
    reference_geometry_kernels,
)

__all__ = [
    "EngineConfig",
    "Engine",
    "resolve_engine",
    "evaluate_geometry_kernels",
    "reference_geometry_kernels",
]
