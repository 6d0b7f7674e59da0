"""The deployment under test, the four workloads and their inputs.

The deployment (field, nodes, sniffers, fingerprint map) is fixed: it
is the configuration of the system under test, identical for every
seed, so run-to-run differences come from the traffic. Every request
the load generator sends is made here from the workload seed before
timing starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

FIELD_SIDE = 15.0
NODE_COUNT = 225
RADIUS = 2.4
NETWORK_SEED = 1234
SNIFFER_PERCENT = 20.0
SNIFFER_SEED = 1
MAP_RESOLUTION = 1.0
#: Knobs of every serve stack (one service, or each fleet worker).
SERVICE_KNOBS = dict(max_batch=64, max_wait_s=0.002, queue_capacity=1024)
FLEET_WORKERS = 2

#: Single-user request knobs (light-localize, burst-localize, fleet-burst).
SINGLE_KNOBS = dict(user_count=1, candidate_count=64, seed_top_k=16, top_m=5)
#: Two-user request knobs (mixed-track's localize stream).
PAIR_KNOBS = dict(user_count=2, candidate_count=128, sweeps=2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "open" or "closed"
    backend: str = "service"  # or "fleet"
    localize_rate: float = 0.0  # open loop, requests per second
    clients: int = 64  # logical clients (client_id values)
    pool: int = 512  # distinct observation windows
    knobs: Optional[Dict] = None
    track_sessions: int = 0
    track_hz: float = 0.0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "light-localize",
        "open loop at 150 req/s keeps batches near 1, so the per-request "
        "path (framing, prematch, plan, kernels, solve) blocks",
        loop="open", localize_rate=150.0, clients=64, pool=512,
        knobs=SINGLE_KNOBS,
    ),
    Workload(
        "burst-localize",
        "128 closed-loop clients fill batches to about 63, so fusion, "
        "staging, admission and reply framing set capacity",
        loop="closed", clients=128, pool=64, knobs=SINGLE_KNOBS,
    ),
    Workload(
        "mixed-track",
        "16 two-user tracking sessions at 2 Hz share the scheduler thread "
        "with 40 req/s two-user localize: head-of-line blocking",
        loop="open", localize_rate=40.0, clients=16, pool=256,
        knobs=PAIR_KNOBS, track_sessions=16, track_hz=2.0,
    ),
    Workload(
        "fleet-burst",
        "the burst loop through a 2-worker fleet puts the router, pipes "
        "and hash placement on the blocking path",
        loop="closed", backend="fleet", clients=128, pool=64,
        knobs=SINGLE_KNOBS,
    ),
)}


def deployment():
    """``(network, sniffer indices)`` of the fixed deployment."""
    from repro.geometry import RectangularField
    from repro.network import build_network, sample_sniffers_percentage

    net = build_network(
        field=RectangularField(FIELD_SIDE, FIELD_SIDE),
        node_count=NODE_COUNT, radius=RADIUS, rng=NETWORK_SEED,
    )
    return net, sample_sniffers_percentage(net, SNIFFER_PERCENT,
                                           rng=SNIFFER_SEED)


def fingerprint_map(net, sniffers):
    from repro.fpmap import build_fingerprint_map

    return build_fingerprint_map(net.field, net.positions[sniffers],
                                 resolution=MAP_RESOLUTION)


@dataclass
class Window:
    """One observation on the wire, with the positions that made it."""

    wire: Dict
    truth: np.ndarray  # (K, 2)


@dataclass
class Inputs:
    windows: List[Window]  # the localize pool
    seeds: np.ndarray  # per-request solver seeds, cycled
    offsets: np.ndarray  # per-client start offset into the pool
    sessions: List[List[Window]]  # per tracking session, in time order
    warm_sessions: List[List[Window]]  # stepped during warm-up only


def make_inputs(workload: Workload, seed: int, seconds: float,
                warmup_s: float) -> Inputs:
    """Every request's payload, generated from ``seed`` alone."""
    from repro.gateway.protocol import observation_to_wire
    from repro.stream import SyntheticLiveSource
    from repro.traffic import MeasurementModel, simulate_flux

    net, sniffers = deployment()
    gen = np.random.default_rng(seed)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    users = workload.knobs["user_count"]
    windows = []
    for _ in range(workload.pool):
        truth = net.field.sample_uniform(users, gen)
        flux = simulate_flux(net, list(truth),
                             list(gen.uniform(1.0, 3.0, users)), rng=gen)
        windows.append(Window(observation_to_wire(measure.observe(flux)),
                              np.asarray(truth, dtype=float)))
    seeds = gen.integers(0, 2**31, size=4096)
    offsets = gen.integers(0, workload.pool, size=workload.clients)

    def track(count, rounds):
        out = []
        for _ in range(count):
            source = SyntheticLiveSource(
                net, sniffers, user_count=2, rounds=rounds,
                rng=int(gen.integers(2**31)),
            )
            out.append([
                Window(observation_to_wire(obs), source.truth_at(obs.time))
                for obs in source
            ])
        return out

    sessions: List[List[Window]] = []
    warm: List[List[Window]] = []
    if workload.track_sessions:
        rounds = int(np.ceil(workload.track_hz * seconds)) + 1
        sessions = track(workload.track_sessions, rounds)
        warm = track(4, int(np.ceil(workload.track_hz * warmup_s)) + 1)
    return Inputs(windows, seeds, offsets, sessions, warm)
