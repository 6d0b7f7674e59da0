"""The system under test, in a process of its own.

Builds the fixed deployment and its fingerprint map, starts a
``LocalizationService`` (or a ``ServeFleet``) behind a
``GatewayServer`` on an ephemeral port, prints one JSON line
``{"port": ..., "pid": ...}`` on stdout, and serves until a ``stop``
line (or end of file) arrives on stdin. With ``--trace 1`` the layers'
public calls are wrapped before anything is built (fleet workers fork
with the wrappers in place) and every process writes its spans to
``<out>/<tag>.*.json`` on the way out.

Launched by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import scenario
import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenario.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    workload = scenario.WORKLOADS[args.workload]

    recorder = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
        tracing.install_worker_dump(
            recorder,
            lambda wid: os.path.join(args.out, f"{args.tag}.worker{wid}.json"),
        )

    from repro.gateway import GatewayServer

    net, sniffers = scenario.deployment()
    fmap = scenario.fingerprint_map(net, sniffers)
    if workload.backend == "fleet":
        from repro.fleet import ServeFleet

        backend = ServeFleet(
            net.field, net.positions[sniffers],
            workers=scenario.FLEET_WORKERS, fingerprint_map=fmap,
            map_mode="full", **scenario.SERVICE_KNOBS,
        )
    else:
        from repro.serve import LocalizationService

        backend = LocalizationService(
            net.field, net.positions[sniffers], fingerprint_map=fmap,
            **scenario.SERVICE_KNOBS,
        )
    backend.start()
    gateway = GatewayServer(backend, name="bench")
    try:
        port = gateway.start()
        print(json.dumps({"port": port, "pid": os.getpid()}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        gateway.stop()
        backend.stop()
    if recorder is not None:
        recorder.dump(os.path.join(args.out, f"{args.tag}.server.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
