"""Chunked, zero-copy geometry-kernel evaluation.

The Formula-3.4 geometry kernel ``g = (l^2 - d^2) / (2 d)`` over an
``(m sinks, n nodes)`` pair grid is the single hottest operation of the
reproduction: candidate search evaluates it for thousands of sinks per
sweep, the SMC tracker repeats that per user per window, and the
fingerprint-map builder runs it over every grid cell. The original
implementation (kept below as :func:`reference_geometry_kernels`, the
equivalence oracle and benchmark baseline) materialized the flattened
pair grid — ``np.repeat``/``np.tile`` of two ``(m*n, 2)`` coordinate
arrays plus the same-sized direction/unit temporaries — before ray
casting.

This module replaces that with:

* **broadcasting** — per-component ``(chunk, n)`` arithmetic, never an
  ``(m*n, 2)`` coordinate materialization;
* a **closed-form rectangular ray exit** — for axis-aligned rectangles
  the exit wall is determined by the direction signs, so the slab loop
  over four walls collapses to one division per axis (bitwise-equal to
  the reference slab method for in-field sinks, see the note at
  :func:`_fill_rect_chunk`);
* **chunking** — sinks stream through the evaluator ``chunk_size`` rows
  at a time, bounding the working set to ``O(chunk_size * n)``
  temporaries regardless of pool size, and giving the executor its
  unit of fan-out (chunks write disjoint output rows, so any worker
  count is bitwise-identical to serial);
* an optional **float32 mode** that halves memory traffic for
  huge pools (the theta solve downstream stays float64).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.config import EngineConfig
from repro.engine.executor import Engine, resolve_engine
from repro.errors import ConfigurationError, FaultInjected
from repro.faults.plan import should_fire
from repro.geometry.field import Field, RectangularField

_EPS = 1e-12


# ----------------------------------------------------------------------
# Reference implementation (pre-engine), kept as oracle + baseline.
# ----------------------------------------------------------------------
def reference_geometry_kernels(
    field: Field,
    node_positions: np.ndarray,
    sinks: np.ndarray,
    d_floor: float,
) -> np.ndarray:
    """The original ``DiscreteFluxModel.geometry_kernels`` implementation.

    Flattens the (sink, node) pair grid into one ``(m*n, 2)`` ray-cast
    batch via ``np.repeat``/``np.tile``. Retained verbatim as the
    specification oracle for the equivalence tests and as the serial
    baseline every ``BENCH_engine.json`` speedup is measured against.
    """
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    sinks = field.clip(sinks)
    node_positions = np.asarray(node_positions, dtype=float)
    m, n = sinks.shape[0], node_positions.shape[0]
    origins = np.repeat(sinks, n, axis=0)  # (m*n, 2)
    nodes = np.tile(node_positions, (m, 1))  # (m*n, 2)
    directions = nodes - origins
    norms = np.hypot(directions[:, 0], directions[:, 1])
    safe = np.maximum(norms, _EPS)
    unit = directions / safe[:, None]
    unit[norms < _EPS] = (1.0, 0.0)  # degenerate: node at the sink
    l = field.ray_exit_distance(origins, unit)
    d = np.maximum(norms, d_floor)
    kernels = np.maximum((l * l - d * d) / (2.0 * d), 0.0)
    return kernels.reshape(m, n)


# ----------------------------------------------------------------------
# Chunk fillers.
# ----------------------------------------------------------------------
def _axis_exit(u: np.ndarray, o: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Smallest positive slab crossing along one axis, ``inf`` if none.

    Closed form of the reference slab loop restricted to one axis: a
    positive direction component can only cross the high wall at
    ``t > 0`` (the low-wall crossing is behind the origin for in-field
    sinks) and vice versa, so the four-candidate scan collapses to one
    sign-selected division. Three passes over the ``(c, n)`` block:

    * select the per-row column ``hi - o`` where ``u > 0``, else
      ``lo - o`` (also for ``u == 0``, whose quotient is then ``±inf``
      or NaN and is repaired below, as the reference discards it);
    * one in-place divide by ``u``, the reference's ``(wall - o) / u``;
    * ``t[~(t > eps)] = inf``, which folds the reference validity rule
      ``isfinite(t) and t > eps`` into one comparison: NaN, ``-inf`` and
      ``t <= eps`` all fail ``t > eps``, and a surviving ``+inf`` is the
      repair value itself.

    The result is bitwise-equal to the reference for every in-field
    origin.
    """
    scalar = u.dtype.type
    t = np.where(u > 0.0, scalar(hi) - o, scalar(lo) - o)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(t, u, out=t)
    t[~(t > _EPS)] = np.inf
    return t


def _fill_rect_chunk(
    field: RectangularField,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Closed-form kernels for sink rows ``[start, stop)`` of a rectangle."""
    if nodes.shape[0] == 0:
        return  # a (c, 0) block: nothing to fill, and no min/max to take
    one = out.dtype.type(1.0)
    zero = out.dtype.type(0.0)
    sx = sinks[start:stop, 0:1]  # (c, 1)
    sy = sinks[start:stop, 1:2]
    dx = nodes[None, :, 0] - sx  # (c, n) — broadcast, no pair materialization
    dy = nodes[None, :, 1] - sy
    norms = np.hypot(dx, dy)
    safe = np.maximum(norms, _EPS)
    np.divide(dx, safe, out=dx)  # dx/dy now hold the unit direction
    np.divide(dy, safe, out=dy)
    if norms.min() < _EPS:
        degenerate = norms < _EPS
        dx[degenerate] = one
        dy[degenerate] = zero
    tx = _axis_exit(dx, sx, field.xmin, field.xmax)
    ty = _axis_exit(dy, sy, field.ymin, field.ymax)
    l = np.minimum(tx, ty, out=tx)
    d = np.maximum(norms, d_floor, out=norms)
    np.multiply(l, l, out=l)  # l^2
    np.multiply(d, d, out=dy)  # d^2 (dy scratch is free now)
    np.subtract(l, dy, out=l)  # l^2 - d^2
    np.multiply(d, 2.0, out=d)
    np.divide(l, d, out=l)
    block = out[start:stop]
    np.maximum(l, zero, out=block)
    if not block.max() < np.inf:
        # NaN or inf somewhere (one max instead of an isfinite pass).
        # Unreachable-boundary pairs (sink within eps of a wall looking
        # along it); the reference raises here — we define them to
        # contribute no flux instead.
        block[~np.isfinite(block)] = zero


def _fill_generic_chunk(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Fallback for non-rectangular fields: chunked reference ray cast.

    Uses the field's own ``ray_exit_distance`` (same operations as the
    reference, hence bitwise-equal), but only ever materializes the
    ``(chunk * n, 2)`` slice of the pair grid.
    """
    chunk = sinks[start:stop]
    c, n = chunk.shape[0], nodes.shape[0]
    directions = (nodes[None, :, :] - chunk[:, None, :]).reshape(c * n, 2)
    norms = np.hypot(directions[:, 0], directions[:, 1])
    safe = np.maximum(norms, _EPS)
    unit = directions / safe[:, None]
    unit[norms < _EPS] = (1.0, 0.0)
    origins = np.repeat(chunk, n, axis=0)
    l = field.ray_exit_distance(
        origins.astype(float, copy=False), unit.astype(float, copy=False)
    ).astype(out.dtype, copy=False)
    d = np.maximum(norms, d_floor)
    out[start:stop] = np.maximum((l * l - d * d) / (2.0 * d), 0.0).reshape(c, n)


def _fill_span(
    field: Field,
    nodes: np.ndarray,
    d_floor: float,
    sinks: np.ndarray,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    if should_fire("engine.kernel.transient") is not None:
        raise FaultInjected(
            f"engine.kernel.transient: kernel chunk [{start}, {stop}) failed"
        )
    if isinstance(field, RectangularField):
        _fill_rect_chunk(field, nodes, d_floor, sinks, out, start, stop)
    else:
        _fill_generic_chunk(field, nodes, d_floor, sinks, out, start, stop)


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------
def evaluate_geometry_kernels(
    field: Field,
    node_positions: np.ndarray,
    sinks: np.ndarray,
    d_floor: float,
    engine: Optional[Engine] = None,
    out: Optional[np.ndarray] = None,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Stacked geometry kernels ``(m, n)`` for many candidate sinks.

    Parameters
    ----------
    field / node_positions / d_floor:
        The deployment geometry (see
        :class:`~repro.fluxmodel.discrete.DiscreteFluxModel`).
    sinks:
        ``(m, 2)`` candidate sink positions (``(2,)`` is promoted);
        out-of-field sinks are clipped onto the field first.
    engine:
        Parallel engine; ``None`` evaluates inline with the default
        chunking and float64. The engine's dtype selects float32 mode.
    out:
        Optional preallocated ``(m, n)`` output (its dtype wins over the
        engine dtype); chunks are written straight into it — the
        fingerprint-map builder passes its signature matrix here.
    chunk_size:
        Per-call override of the engine's chunk size.
    """
    eng = resolve_engine(engine)
    cfg: EngineConfig = eng.config
    sinks = np.asarray(sinks, dtype=float)
    if sinks.ndim == 1:
        sinks = sinks[None, :]
    if sinks.ndim != 2 or sinks.shape[1] != 2:
        raise ConfigurationError(f"sinks must be (m, 2), got {sinks.shape}")
    sinks = field.clip(sinks)
    node_positions = np.asarray(node_positions, dtype=float)
    m, n = sinks.shape[0], node_positions.shape[0]

    if out is not None:
        if out.shape != (m, n):
            raise ConfigurationError(
                f"out must have shape ({m}, {n}), got {out.shape}"
            )
        dtype = out.dtype
    else:
        dtype = cfg.np_dtype
        out = np.empty((m, n), dtype=dtype)
    sinks = np.ascontiguousarray(sinks, dtype=dtype)
    nodes = np.ascontiguousarray(node_positions, dtype=dtype)
    floor = dtype.type(d_floor)

    size = cfg.chunk_size if chunk_size is None else int(chunk_size)
    if size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {size}")

    eng.run_chunks(
        m,
        lambda start, stop: _fill_span(
            field, nodes, floor, sinks, out, start, stop
        ),
        chunk_size=size,
    )
    return out
