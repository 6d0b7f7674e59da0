"""Fingerprint-map seeding vs pure random NLS search.

The tentpole claim of the fpmap subsystem: seeding the sampling-based
NLS search from the precomputed fingerprint map reaches equal-or-better
median localization error at a quarter of the candidate-evaluation
budget. Each scenario places two users at random, simulates one flux
window, and localizes it twice — unseeded at the full budget and
map-seeded at 25% of it — over a shared offline-built map. Runs under
pytest-benchmark like the rest of the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_fpmap_seeding.py

emitting one JSON record with the median errors, wall-clock, and the
map's kernel-cache hit rate into ``BENCH_fpmap_seeding.json`` via the
shared runner (``benchmarks/benchrunner.py``).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.fingerprint import NLSLocalizer
from repro.fpmap import build_fingerprint_map
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.traffic import MeasurementModel, simulate_flux

SCENARIOS = 12
USERS = 2
FULL_BUDGET = 2000  # candidates per user per restart, unseeded
SEEDED_FRACTION = 0.25
RESTARTS = 2
RESOLUTION = 0.5


def _deployment():
    net = build_network(
        field=RectangularField(15, 15), node_count=225, radius=2.0, rng=1234
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=1)
    fmap = build_fingerprint_map(
        net.field,
        net.positions[sniffers],
        resolution=RESOLUTION,
        sniffer_ids=sniffers,
    )
    return net, sniffers, fmap


def _scenarios(net, sniffers):
    gen = np.random.default_rng(20100621)
    out = []
    for index in range(SCENARIOS):
        truth = net.field.sample_uniform(USERS, gen)
        stretches = gen.uniform(1.5, 2.5, USERS)
        flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
        obs = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(
            flux
        )
        out.append((truth, obs))
    return out


def _run(net, sniffers, fmap, scenarios):
    localizer = NLSLocalizer(net.field, net.positions[sniffers])
    seeded_budget = int(FULL_BUDGET * SEEDED_FRACTION)
    unseeded_errors, seeded_errors = [], []
    t0 = time.perf_counter()
    for index, (truth, obs) in enumerate(scenarios):
        result = localizer.localize(
            obs, user_count=USERS, candidate_count=FULL_BUDGET,
            restarts=RESTARTS, rng=1000 + index,
        )
        unseeded_errors.extend(result.errors_to(truth).tolist())
    t_unseeded = time.perf_counter() - t0
    t0 = time.perf_counter()
    for index, (truth, obs) in enumerate(scenarios):
        result = localizer.localize(
            obs, user_count=USERS, candidate_count=seeded_budget,
            restarts=RESTARTS, rng=1000 + index, fingerprint_map=fmap,
        )
        seeded_errors.extend(result.errors_to(truth).tolist())
    t_seeded = time.perf_counter() - t0
    return {
        "benchmark": "fpmap_seeding",
        "scenarios": SCENARIOS,
        "users": USERS,
        "budget_unseeded": FULL_BUDGET,
        "budget_seeded": seeded_budget,
        "budget_fraction": SEEDED_FRACTION,
        "median_error_unseeded": float(np.median(unseeded_errors)),
        "median_error_seeded": float(np.median(seeded_errors)),
        "elapsed_unseeded_s": t_unseeded,
        "elapsed_seeded_s": t_seeded,
        "speedup": t_unseeded / max(t_seeded, 1e-9),
        "kernel_cache_hit_rate": fmap.cache.hit_rate,
        "map_cells": fmap.cell_count,
    }


@pytest.fixture(scope="module")
def fpmap_scenario():
    net, sniffers, fmap = _deployment()
    return net, sniffers, fmap, _scenarios(net, sniffers)


def test_fpmap_seeding_quarter_budget(benchmark, fpmap_scenario):
    net, sniffers, fmap, scenarios = fpmap_scenario

    record = benchmark.pedantic(
        lambda: _run(net, sniffers, fmap, scenarios), rounds=1, iterations=1
    )
    benchmark.extra_info.update(record)
    print("\n" + json.dumps(record))
    # The tentpole acceptance bar: equal-or-better median error at <=25%
    # of the candidate-evaluation budget.
    assert record["budget_seeded"] <= 0.25 * record["budget_unseeded"]
    assert (
        record["median_error_seeded"] <= record["median_error_unseeded"]
    )


def main() -> None:
    from benchrunner import write_bench_json

    net, sniffers, fmap = _deployment()
    record = _run(net, sniffers, fmap, _scenarios(net, sniffers))
    print(json.dumps(record))
    path = write_bench_json(
        "fpmap_seeding", [record], meta={"resolution": RESOLUTION}
    )
    print(f"wrote {path}")
    assert record["median_error_seeded"] <= record["median_error_unseeded"], (
        "map-seeded search must not lose accuracy at a quarter budget"
    )


if __name__ == "__main__":
    main()
