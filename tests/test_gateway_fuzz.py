"""Fuzzing the gateway's wire decoder and a live server (hypothesis).

Two properties behind the exactly-one-typed-reply invariant:

* :func:`~repro.gateway.protocol.decode_frame` turns *any* line — bytes
  that are not UTF-8, JSON that is not an object, nesting deeper than
  the interpreter's recursion limit, ``NaN``/``Infinity`` literals, a
  line over ``MAX_FRAME_BYTES`` — into either a frame dict with a
  non-empty string ``type`` or a :class:`ProtocolError`, never anything
  else;
* a live :class:`GatewayServer` answers every such line with exactly
  one reply or error frame and keeps the connection serving: a ``ping``
  sent after it is still answered.

Both run derandomized with a bounded example count, so they are
deterministic and cheap enough for every test run.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.fpmap import build_fingerprint_map
from repro.gateway import GatewayServer, protocol
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.serve import LocalizationService
from repro.traffic import MeasurementModel, simulate_flux

_FRAME_TYPES = (
    "connect", "ping", "localize", "track_step", "open_session", "metrics",
    "unsubscribe_metrics", "trace_dump",
)
_KNOBS = (
    "user_count", "candidate_count", "top_m", "restarts", "sweeps", "seed",
    "seed_top_k", "use_map", "deadline_s",
)
# The fields the server reads from some frame type.
_FIELDS = _KNOBS + (
    "client_id", "session_id", "limit", "interval_s", "count", "observation",
)


_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_ANY_NUMBER = st.integers() | st.floats(allow_nan=True, allow_infinity=True)


def _json_values(numbers):
    scalars = st.none() | st.booleans() | numbers | st.text(max_size=12)
    return st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=6), children, max_size=4)
        ),
        max_leaves=12,
    )


def _deeply_nested(depth):
    return (b'{"type":"ping","id":"deep","x":' + b"[" * depth
            + b"]" * depth + b"}")


def _frames(numbers, observation=st.nothing()):
    """JSON-encoded frames (``NaN``/``Infinity`` literals allowed).

    Three kinds: a known ``type`` and ``id`` with any of the fields the
    server reads; any ``type`` at all, string or not; and (given an
    ``observation``) request frames with scalar knobs, most of which
    reach the service.
    """
    values = _json_values(numbers)
    typed = st.fixed_dictionaries(
        {"type": st.sampled_from(_FRAME_TYPES),
         "id": st.text(min_size=1, max_size=8) | values},
        optional={name: values | observation for name in _FIELDS},
    )
    untyped = st.builds(
        lambda kind, extra: {**extra, "type": kind},
        st.text(max_size=12) | values,
        st.dictionaries(st.text(max_size=6), values, max_size=4),
    )
    requests = st.fixed_dictionaries(
        {"type": st.sampled_from(["localize", "track_step"]),
         "id": st.text(min_size=1, max_size=8), "observation": observation},
        optional={name: numbers | st.booleans() for name in _KNOBS},
    )
    return (typed | untyped | requests).map(
        lambda f: json.dumps(f).encode("utf-8")
    )


def _bytes_lines():
    return st.binary(max_size=64) | st.builds(
        _deeply_nested, st.integers(min_value=1, max_value=6000)
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(line=(
    _frames(_ANY_NUMBER) | _bytes_lines()
    | st.binary(max_size=16).map(
        lambda b: b + b" " * (protocol.MAX_FRAME_BYTES + 1 - len(b))
    )
))
def test_decode_frame_returns_a_typed_frame_or_raises_protocol_error(line):
    try:
        frame = protocol.decode_frame(line)
    except ProtocolError:
        return
    assert isinstance(frame, dict)
    assert isinstance(frame["type"], str) and frame["type"]


# ----------------------------------------------------------------------
# A live server.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_gateway():
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0, rng=5
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=2)
    fmap = build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=2.0)
    gen = np.random.default_rng(0)
    flux = simulate_flux(net, list(net.field.sample_uniform(1, gen)), [2.0],
                         rng=gen)
    observation = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(
        flux
    )
    service = LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=8, max_wait_s=0.002,
    )
    with service, GatewayServer(service) as gateway:
        yield gateway, protocol.observation_to_wire(observation)


async def _exchange(port, line):
    """Send ``line`` then a ``ping``; return the two frames read back."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_FRAME_BYTES
    )
    try:
        writer.write(line + b"\n")
        await writer.drain()
        answer = json.loads(await asyncio.wait_for(reader.readline(), 30))
        writer.write(protocol.encode_frame({"type": "ping", "id": "probe"}))
        await writer.drain()
        pong = json.loads(await asyncio.wait_for(reader.readline(), 30))
        return answer, pong
    finally:
        writer.close()
        await writer.wait_closed()


# A subscription answers more than once by design, so it is left out.
# Numbers stay small: knobs such as ``user_count``, ``restarts`` and
# ``sweeps`` size the work and memory one frame costs the server, and
# no request size is capped yet.
_SMALL_NUMBERS = (
    st.integers(min_value=-3, max_value=8)
    | st.floats(min_value=-3.0, max_value=8.0) | _NON_FINITE
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_live_gateway_answers_every_line_once_and_keeps_serving(
    live_gateway, data
):
    gateway, wire_observation = live_gateway
    line = data.draw(
        _frames(_SMALL_NUMBERS, st.just(wire_observation))
        | _bytes_lines().map(lambda b: b.replace(b"\n", b" "))
    )
    answer, pong = asyncio.run(_exchange(gateway.port, line))
    assert isinstance(answer, dict)
    assert answer["type"] in (
        "error", "reply", "connected", "pong", "session_opened", "metrics",
        "metrics_unsubscribed", "traces",
    )
    assert pong == {"type": "pong", "id": "probe"}
