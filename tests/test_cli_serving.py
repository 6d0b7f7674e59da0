"""Pinning tests for the serving commands: ``serve``, ``fleet``, ``gateway``.

These fix what each command prints, writes and accepts, so the shared
serving pipeline in :mod:`repro.cli.commands` can be refactored without
changing behaviour: reply counts and report lines, the fleet snapshot
written by ``--metrics-out``, the gateway's self-driven and ``--connect``
modes, each command's option defaults, and reproducible ``serve``
tracking under ``--seed``.
"""

import json
import zipfile

import pytest

from repro.cli import build_parser, main
from repro.geometry import RectangularField
from repro.network import build_network, sample_sniffers_percentage
from repro.util.rng import as_generator

_TINY = ["--nodes", "100", "--field", "10", "--radius", "2.0",
         "--percentage", "20"]

_NETWORK = {
    "nodes": 900, "field": 30.0, "radius": 2.4,
    "deployment": "perturbed_grid",
}
_ENGINE = {"workers": 0, "chunk_size": 256, "dtype": "float64"}
_SERVING = {
    "percentage": 20.0, "clients": 8, "requests": 10, "users": 1,
    "candidates": 128, "restarts": 1, "max_batch": 32, "max_wait_ms": 2.0,
    "target_p95_ms": None, "fusion_min_depth": 2, "queue_capacity": 512,
    "policy": "reject", "map_resolution": None, "track_sessions": 0,
    "checkpoint_dir": None, "metrics_port": None, "metrics_out": None,
    "fault_plan": None,
}

#: ``{dest: default}`` of each serving command. ``fleet`` has no
#: ``--dtype``: its workers always build float64 engines.
_DEFAULTS = {
    "serve": {
        **_NETWORK, **_ENGINE, **_SERVING,
        "deadline_ms": None, "map": None, "no_adaptive": False,
    },
    "fleet": {
        **_NETWORK, "workers": 0, "chunk_size": 256, **_SERVING,
        "queue_capacity": 1024, "fleet_workers": 2, "map_mode": "full",
        "cluster_cells": 4, "map": None, "no_adaptive": False,
    },
    "gateway": {
        **_NETWORK, **_ENGINE, **_SERVING,
        "connect": None, "deadline_ms": None, "duration": None, "port": 0,
    },
}


def _subparser(name):
    sub = next(a for a in build_parser()._subparsers._group_actions)
    return sub.choices[name]


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_option_defaults_match_the_recorded_parser(command):
    parser = _subparser(command)
    defaults = {
        a.dest: a.default for a in parser._actions if a.dest != "help"
    }
    assert defaults == _DEFAULTS[command]


def test_fleet_rejects_dtype(capsys):
    rc = main(["fleet", *_TINY, "--dtype", "float32"])
    assert rc == 2
    assert "--dtype" in capsys.readouterr().err


def test_fleet_load_run(tmp_path, capsys):
    out_path = tmp_path / "fleet.json"
    rc = main(
        [
            "--seed", "3", "fleet", *_TINY, "--fleet-workers", "2",
            "--clients", "3", "--requests", "3", "--candidates", "32",
            "--track-sessions", "1", "--checkpoint-dir", str(tmp_path),
            "--metrics-out", str(out_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert ("fleet of 2 workers serving 3 localize clients x 3 requests "
            "+ 1 tracking sessions on 20/100 sniffed nodes") in out
    assert "12 replies" in out  # 3x3 localize + 3 track steps
    assert "12 ok, 0 errors; 0 worker deaths" in out
    assert "mean localization error" in out
    assert f"wrote fleet metrics to {out_path}" in out
    snap = json.loads(out_path.read_text())
    assert snap["router"]["replies_ok"] == 12
    assert snap["router"]["replies_error_total"] == 0
    assert snap["aggregate"]["workers_reporting"] == 2


def test_gateway_self_driven(tmp_path, capsys):
    out_path = tmp_path / "gateway.json"
    rc = main(
        [
            "--seed", "3", "gateway", *_TINY, "--clients", "2",
            "--requests", "3", "--candidates", "32", "--track-sessions", "1",
            "--map-resolution", "2.0", "--metrics-out", str(out_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fronting 20/100 sniffed nodes" in out
    assert "9 ok, 0 errors, 0 dead connections" in out
    assert f"{'stage':<12} {'p50 ms':>9} {'p95 ms':>9} {'count':>8}" in out
    for stage in ("gateway_in", "admission", "solve", "reply",
                  "gateway_out"):
        assert f"\n{stage:<12} " in out
    assert "0 replies dropped, 0 protocol errors" in out
    assert f"wrote metrics to {out_path}" in out
    assert json.loads(out_path.read_text())["replies_ok"] == 9


def test_gateway_connect_drives_a_remote_gateway(capsys):
    from repro.gateway import GatewayServer
    from repro.serve import LocalizationService

    # The deployment the CLI rebuilds from the same network args + seed.
    net = build_network(
        field=RectangularField(10, 10), node_count=100, radius=2.0,
        deployment="perturbed_grid", rng=as_generator(3),
    )
    sniffers = sample_sniffers_percentage(net, 20, rng=as_generator(3))
    service = LocalizationService(net.field, net.positions[sniffers])
    with service, GatewayServer(service) as gateway:
        rc = main(
            [
                "--seed", "3", "gateway", *_TINY, "--clients", "2",
                "--requests", "2", "--candidates", "32",
                "--track-sessions", "1",
                "--connect", f"127.0.0.1:{gateway.port}",
            ]
        )
    assert rc == 0
    out = capsys.readouterr().out
    assert "6 replies" in out  # 2x2 localize + 2 track steps
    assert "6 ok, 0 errors, 0 dead connections" in out
    assert "gateway on" not in out  # client mode serves nothing


def _serve_tracking(tmp_path):
    rc = main(
        [
            "--seed", "3", "serve", *_TINY, "--clients", "1",
            "--requests", "6", "--candidates", "32", "--track-sessions", "3",
            "--checkpoint-dir", str(tmp_path), "--metrics-out",
            str(tmp_path / "metrics.json"),
        ]
    )
    assert rc == 0
    # Compare each archive member's bytes: the zip container itself
    # stamps entries with their write time.
    payloads = {}
    for t in range(3):
        with zipfile.ZipFile(tmp_path / f"track-{t}.ckpt.npz") as zf:
            payloads[t] = {name: zf.read(name) for name in zf.namelist()}
    return payloads


def test_serve_tracking_sessions_get_their_own_seeds(tmp_path, monkeypatch):
    from repro.serve import LocalizationService

    seen = []
    original = LocalizationService.open_session

    def spy(self, session_id, user_count, config=None, rng=None, truth=None):
        seen.append(rng)
        return original(self, session_id, user_count, config=config,
                        rng=rng, truth=truth)

    monkeypatch.setattr(LocalizationService, "open_session", spy)
    first = _serve_tracking(tmp_path / "a")
    assert len(seen) == 3
    assert all(isinstance(rng, int) for rng in seen)
    assert len(set(seen)) == 3
    # Each session draws from its own stream, so the order in which the
    # client threads' steps reach the scheduler cannot change the state.
    assert _serve_tracking(tmp_path / "b") == first
