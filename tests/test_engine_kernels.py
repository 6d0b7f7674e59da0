"""Equivalence tests for the chunked geometry-kernel evaluator.

The contract under test: every configuration of
:func:`repro.engine.kernels.evaluate_geometry_kernels` — chunked,
parallel, preallocated output — produces float64 values
bitwise identical to :func:`reference_geometry_kernels`, the pre-engine
pair-grid implementation kept as oracle; float32 mode stays within a
small relative envelope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine, reference_geometry_kernels
from repro.engine.kernels import evaluate_geometry_kernels
from repro.errors import ConfigurationError, GeometryError
from repro.geometry import CircularField, PolygonField, RectangularField

D_FLOOR = 0.05


def _scenario(field, m=137, n=23, seed=7):
    gen = np.random.default_rng(seed)
    nodes = field.sample_uniform(n, gen)
    sinks = field.sample_uniform(m, gen)
    return nodes, sinks


FIELDS = [
    RectangularField(12, 7),
    RectangularField(30, 30, origin=(-5.0, 2.0)),
    CircularField(6.0, center=(1.0, -2.0)),
    PolygonField([(0, 0), (8, 0), (10, 5), (4, 9), (0, 6)]),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_broadcast_matches_reference_bitwise(field):
    nodes, sinks = _scenario(field)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert got.dtype == np.float64
    assert np.array_equal(want, got)


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 137, 1000])
def test_chunked_is_bitwise_invariant(chunk_size):
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(
        field, nodes, sinks, D_FLOOR, chunk_size=chunk_size
    )
    assert np.array_equal(want, got)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: type(f).__name__)
def test_parallel_threads_bitwise_equal_serial(field):
    nodes, sinks = _scenario(field, m=301)
    want = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    with Engine(workers=4, chunk_size=32) as eng:
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR, engine=eng)
    assert np.array_equal(want, got)


LATTICE_FIELDS = [RectangularField(5, 5), RectangularField(6, 4, origin=(-2.0, 1.0))]


def _lattice(field):
    """Every integer point of the field, walls and corners included."""
    xs = np.arange(field.xmin, field.xmax + 1.0)
    ys = np.arange(field.ymin, field.ymax + 1.0)
    return np.array([(x, y) for x in xs for y in ys], dtype=float)


def _lattice_reference(field, points):
    """The reference, row by row, with its one undefined pair pinned to 0.

    A node at a sink on the high-x wall gets the pinned ``(1, 0)`` ray,
    which starts on the wall it points through; the reference rejects
    that ray and the engine defines the pair to carry no flux.
    """
    rows = []
    for sink in points:
        try:
            rows.append(reference_geometry_kernels(field, points, sink, D_FLOOR)[0])
        except GeometryError:
            assert sink[0] == field.xmax
            here = np.all(points == sink, axis=1)
            row = np.zeros(len(points))
            row[~here] = reference_geometry_kernels(
                field, points[~here], sink, D_FLOOR
            )[0]
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("chunk_size", [1, 7, 256, 4096, "engine"])
@pytest.mark.parametrize("field", LATTICE_FIELDS, ids=["square", "offset"])
def test_edge_lattice_bitwise_equal_reference(field, chunk_size):
    # Sinks and nodes on one integer lattice: exact u == 0 components,
    # rays along every wall, rays out of every corner, and every node at
    # a sink, all through the sign-selected exit and the inf repair.
    points = _lattice(field)
    delta = points[None, :, :] - points[:, None, :]
    assert np.any((delta[..., 0] == 0) & (delta[..., 1] != 0))
    assert np.any((delta[..., 1] == 0) & (delta[..., 0] != 0))
    want = _lattice_reference(field, points)
    if chunk_size == "engine":
        with Engine(workers=2, chunk_size=7) as eng:
            got = evaluate_geometry_kernels(
                field, points, points, D_FLOOR, engine=eng
            )
    else:
        got = evaluate_geometry_kernels(
            field, points, points, D_FLOOR, chunk_size=chunk_size
        )
    assert np.array_equal(want, got)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


def test_node_at_sink_degenerate_direction():
    # A sink coincident with a node: the reference pins the ray
    # direction to (1, 0); the broadcast path must reproduce that.
    field = RectangularField(10, 10)
    nodes = np.array([[3.0, 4.0], [7.0, 2.0]])
    sinks = np.array([[3.0, 4.0], [5.0, 5.0]])
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert np.array_equal(want, got)
    assert np.all(np.isfinite(got))


def test_out_of_field_sinks_clipped_like_reference():
    field = RectangularField(10, 10)
    nodes, _ = _scenario(field)
    sinks = np.array(
        [[-3.0, 5.0], [12.0, 11.0], [5.0, -0.5], [10.0, 10.0], [0.0, 0.0]]
    )
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert np.array_equal(want, got)


def test_single_sink_promoted_to_row():
    field = RectangularField(10, 10)
    nodes, _ = _scenario(field)
    got = evaluate_geometry_kernels(field, nodes, np.array([2.0, 3.0]), D_FLOOR)
    assert got.shape == (1, nodes.shape[0])
    want = reference_geometry_kernels(field, nodes, np.array([2.0, 3.0]), D_FLOOR)
    assert np.array_equal(want, got)


def test_bad_sink_shape_raises():
    field = RectangularField(10, 10)
    nodes, _ = _scenario(field)
    with pytest.raises(ConfigurationError):
        evaluate_geometry_kernels(field, nodes, np.zeros((4, 3)), D_FLOOR)


def test_float32_mode_dtype_and_envelope():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field, m=500)
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    with Engine(dtype="float32") as eng:
        got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR, engine=eng)
    assert got.dtype == np.float32
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got.astype(float) - want) / scale) < 1e-3


def test_out_buffer_is_written_in_place_and_dtype_wins():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field)
    out = np.empty((sinks.shape[0], nodes.shape[0]), dtype=np.float64)
    with Engine(dtype="float32") as eng:
        got = evaluate_geometry_kernels(
            field, nodes, sinks, D_FLOOR, engine=eng, out=out
        )
    assert got is out
    # The preallocated buffer's float64 overrides the engine's float32.
    want = reference_geometry_kernels(field, nodes, sinks, D_FLOOR)
    assert np.array_equal(want, out)


def test_out_buffer_shape_mismatch_raises():
    field = RectangularField(15, 15)
    nodes, sinks = _scenario(field)
    with pytest.raises(ConfigurationError):
        evaluate_geometry_kernels(
            field, nodes, sinks, D_FLOOR, out=np.empty((3, 3))
        )


def test_kernel_values_nonnegative_and_match_formula():
    # Formula 3.4: g = (l^2 - d^2) / (2 d), floored at zero — spot-check
    # one pair against a hand ray cast.
    field = RectangularField(10, 10)
    nodes = np.array([[6.0, 5.0]])
    sinks = np.array([[2.0, 5.0]])  # ray exits at x=10 -> l = 8
    got = evaluate_geometry_kernels(field, nodes, sinks, D_FLOOR)
    l, d = 8.0, 4.0
    assert got[0, 0] == pytest.approx((l * l - d * d) / (2 * d))
    assert np.all(got >= 0.0)
