"""wirebench: the repository's end-to-end benchmark, measured on the wire.

Run from the root of a checkout::

    python3 wirebench/run.py --workload light-localize --seed 1 \\
        --seconds 10 --trace 0

The server under test runs in a child process (``server.py``); this
process is the single-threaded load generator. ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` measures the workload once
untraced and once with every layer's public calls wrapped, and reports
the per-layer metrics and the tracing overhead. Every metric is printed
as ``metric <name> <value> <unit>``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
named in ``BENCHMARK.json``. See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Untimed traffic between the first reply and the timed phase.
WARMUP_S = 1.5
#: Width of the throughput bins.
BIN_S = 1.0
#: Server launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Latency limits of ``slo_miss_share``.
LOCALIZE_LIMIT_S = 0.050
TRACK_LIMIT_S = 0.100
#: Closed loop: the first requests of each client form the error and
#: parity population (a set that does not depend on throughput).
EVAL_PER_CLIENT = 16
PARITY_SAMPLE = 32
#: A run is reported invalid when the load generator's p99 send lag
#: exceeds this, or (closed loop) a quarter of the median latency.
LAG_BOUND_MS = 10.0
LAG_BOUND_SHARE = 0.25

#: (name, unit) of the metrics the final JSON line carries.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
    ("loc_error_median", "field_units"),
)
PER_LAYER = (
    ("loadgen.lag_p99_ms", "ms"),
    ("gateway.decode_cpu_us", "us"),
    ("gateway.decode_wall_us", "us"),
    ("gateway.reply_frame_cpu_us", "us"),
    ("gateway.reply_frame_wall_us", "us"),
    ("gateway.encode_cpu_us", "us"),
    ("gateway.encode_wall_us", "us"),
    ("gateway.overhead_ms_p50", "ms"),
    ("gateway.overhead_ms_p99", "ms"),
    ("admission.offer_cpu_us", "us"),
    ("admission.offer_wall_us", "us"),
    ("admission.queue_wait_ms_p50", "ms"),
    ("admission.queue_wait_ms_p99", "ms"),
    ("admission.batch_size_mean", "count"),
    ("scheduler.plan_cpu_us_per_req", "us"),
    ("scheduler.plan_wall_us_per_req", "us"),
    ("scheduler.kernels_cpu_us_per_row", "us"),
    ("scheduler.kernels_wall_us_per_row", "us"),
    ("scheduler.fused_rows_per_batch", "count"),
    ("scheduler.busy_share", "ratio"),
    ("fpmap.match_cpu_us_per_obs", "us"),
    ("fpmap.match_wall_us_per_obs", "us"),
    ("fpmap.kernels_for_cpu_us", "us"),
    ("fpmap.kernels_for_wall_us", "us"),
    ("fpmap.cache_hit_ratio", "ratio"),
    ("engine.kernel_cpu_us_per_row", "us"),
    ("engine.kernel_wall_us_per_row", "us"),
    ("engine.kernel_rows_per_reply", "count"),
    ("metrics.record_cpu_us_per_reply", "us"),
    ("metrics.record_wall_us_per_reply", "us"),
    ("trace.overhead_latency_p50_ms", "ratio"),
    ("trace.overhead_cpu_ms_per_req", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description="wirebench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# One server launch.
# ----------------------------------------------------------------------
class Launch:
    """What one server launch measured."""

    def __init__(self):
        self.setup_s = None
        self.ledger = None
        self.lags = []
        self.t0 = self.t1 = None  # the timed phase, as scheduled
        self.reads = []  # (monotonic time, server CPU s) through the phase
        self.rss_mb = None
        self.workers = 1
        self.span_files = []


def _frame(kind, rid, client, window, extra):
    frame = {"type": kind, "id": rid, "client_id": client,
             "observation": window.wire}
    frame.update(extra)
    return frame


async def _launch(workload, inputs, seconds, trace, out_dir, tag,
                  setup_only):
    import loadgen
    import proc

    launch = Launch()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = out_dir  # the fleet's checkpoint directory lands here
    started = time.monotonic()
    server = await asyncio.create_subprocess_exec(
        sys.executable, os.path.join(HERE, "server.py"),
        "--workload", workload.name, "--trace", str(trace),
        "--out", out_dir, "--tag", tag,
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    clients = []
    try:
        line = await asyncio.wait_for(server.stdout.readline(), 60)
        if not line:
            raise RuntimeError("server exited before it was listening")
        listening = json.loads(line)
        ledger = launch.ledger = loadgen.Ledger()
        clients = [loadgen.TimedClient("127.0.0.1", listening["port"],
                                       f"bench-{i}", ledger)
                   for i in range(2)]
        for client in clients:
            await client.connect()
        wire = loadgen.Wire(clients, ledger)
        knobs = workload.knobs
        first = loadgen.Rec("setup", "localize", inputs.windows[0], _frame(
            "localize", "setup", "setup", inputs.windows[0],
            dict(knobs, seed=int(inputs.seeds[0]))))
        reply = await wire.request(first, 0)
        if not reply.get("ok"):
            raise RuntimeError(f"first request failed: {reply}")
        launch.setup_s = time.monotonic() - started
        if setup_only:
            return launch

        for prefix, sessions in (("track-", inputs.sessions),
                                 ("warm-", inputs.warm_sessions)):
            for s in range(len(sessions)):
                await clients[s % 2].open_session(
                    f"{prefix}{s}", 2, seed=int(inputs.seeds[-1 - s]))

        pids = proc.tree(listening["pid"])
        launch.workers = max(1, len(pids) - 1)
        start = time.monotonic() + 0.05
        launch.t0 = t0 = start + WARMUP_S
        launch.t1 = t1 = t0 + seconds

        async def sample():
            # Server CPU is read every BIN_S through the timed phase; the
            # readings' times are the edges of the throughput bins.
            bins = max(1, round(seconds / BIN_S))
            for edge in [t0 + i * BIN_S for i in range(bins)] + [t1]:
                await asyncio.sleep(max(0.0, edge - time.monotonic()))
                launch.reads.append((time.monotonic(),
                                     proc.cpu_seconds(pids)))
            launch.rss_mb = proc.peak_rss_mb(pids)

        sampler = asyncio.ensure_future(sample())
        pool, seeds = inputs.windows, inputs.seeds
        if workload.loop == "closed":
            def make(client, k):
                window = pool[(inputs.offsets[client] + k) % len(pool)]
                rid = f"{client}-{k}"
                return loadgen.Rec(rid, "localize", window, _frame(
                    "localize", rid, f"c{client}", window,
                    dict(knobs, seed=int(seeds[(client * 131 + k)
                                                % len(seeds)]))), seq=k)

            await loadgen.closed_loop(wire, workload.clients, make, t0, t1)
        else:
            await loadgen.open_loop(wire, _events(workload, inputs, seconds),
                                    start, t0, t1)
        await sampler
        launch.lags = wire.lags
        return launch
    finally:
        for client in clients:
            await client.close()
        if server.returncode is None:
            try:
                server.stdin.write(b"stop\n")
                await server.stdin.drain()
                server.stdin.close()
            except (BrokenPipeError, ConnectionError):
                pass  # already gone; wait() below reaps it
            try:
                await asyncio.wait_for(server.wait(), 20)
            except asyncio.TimeoutError:
                server.kill()
                await server.wait()


def _events(workload, inputs, seconds):
    """The open-loop schedule: localize stream plus tracking steps."""
    import loadgen

    events = []
    horizon = WARMUP_S + seconds
    knobs = workload.knobs
    count = int(horizon * workload.localize_rate)
    for i in range(count):
        def make(i=i):
            window = inputs.windows[i % len(inputs.windows)]
            rid = f"L{i}"
            client = i % workload.clients
            return loadgen.Rec(rid, "localize", window, _frame(
                "localize", rid, f"c{client}", window,
                dict(knobs, seed=int(inputs.seeds[i % len(inputs.seeds)])),
            )), client
        events.append(loadgen.Event(i / workload.localize_rate, len(events),
                                    make))

    def steps(sessions, prefix, begin, end):
        period = 1.0 / workload.track_hz
        for s, windows in enumerate(sessions):
            for r, window in enumerate(windows):
                offset = begin + (r + s / len(sessions)) * period
                if offset >= end:
                    break

                def make(s=s, r=r, window=window):
                    rid = f"{prefix}{s}-{r}"
                    return loadgen.Rec(rid, "track", window, _frame(
                        "track_step", rid, f"{prefix}{s}", window,
                        {"session_id": f"{prefix}{s}"})), s
                events.append(loadgen.Event(offset, len(events), make))

    if workload.track_sessions:
        steps(inputs.warm_sessions, "warm-", 0.0, WARMUP_S)
        steps(inputs.sessions, "track-", WARMUP_S, horizon)
    return events


# ----------------------------------------------------------------------
# From a launch to metrics.
# ----------------------------------------------------------------------
def _failed(rec) -> bool:
    if rec.replies != 1 or not rec.reply.get("ok"):
        return True
    return rec.kind == "track" and not rec.reply.get("stepped")


def analyse(workload, launch, seed, parity_refs):
    """``(metrics, extras, checks, attempted, failed)`` of one launch.

    ``metrics`` maps a name to ``(value, unit)``; ``checks`` maps each
    correctness check to whether it passed.
    """
    import checks
    import loadgen
    import numpy as np
    import stats

    recs = list(launch.ledger.recs.values())
    timed = [r for r in recs if r.timed]
    failed = [r for r in timed if _failed(r)]
    good = [r for r in timed if not _failed(r)]
    out, extra = {}, {}
    loc = [r.latency for r in good if r.kind == "localize"]
    trk = [r.latency for r in good if r.kind == "track"]
    p50 = stats.percentile(loc, 0.50)
    p99 = stats.percentile(loc, 0.99)
    if p50[0] is not None:
        out["latency_p50_ms"] = (1e3 * p50[0], "ms")
        out["latency_p90_ms"] = (1e3 * stats.quantile(loc, 0.90), "ms")
        out["latency_p95_ms"] = (1e3 * stats.quantile(loc, 0.95), "ms")
        out["latency_p99_ms"] = (1e3 * p99[0], "ms")
    extra["latency_samples"] = (float(p99[1]), "count")
    extra["latency_p99_supported"] = (float(p99[2]), "bool")
    if trk:
        t99 = stats.percentile(trk, 0.99)
        out["track_latency_p50_ms"] = (1e3 * stats.median(trk), "ms")
        out["track_latency_p99_ms"] = (1e3 * t99[0], "ms")
        extra["track_latency_samples"] = (float(t99[1]), "count")
        extra["track_latency_p99_supported"] = (float(t99[2]), "bool")
    arrivals = sorted(r.arrived for r in recs
                      if r.arrived is not None and r.reply.get("ok"))
    (first, cpu0), (last, cpu1) = launch.reads[0], launch.reads[-1]
    ok_in_window = bisect.bisect_left(arrivals, last) - bisect.bisect_left(
        arrivals, first)
    # Capacity is the median over BIN_S bins, so a short stall of the
    # host moves one bin, not the whole figure.
    rates = [
        (bisect.bisect_left(arrivals, hi) - bisect.bisect_left(arrivals, lo))
        / (hi - lo)
        for (lo, _), (hi, _) in zip(launch.reads, launch.reads[1:])
    ]
    out["throughput_rps"] = (stats.median(rates), "req/s")
    extra["throughput_mean_rps"] = (ok_in_window / (last - first), "req/s")
    if ok_in_window:
        out["cpu_ms_per_req"] = (1e3 * (cpu1 - cpu0) / ok_in_window, "ms")
    out["peak_rss_mb"] = (launch.rss_mb, "MiB")
    if workload.loop == "open":
        def missed(r):
            limit = LOCALIZE_LIMIT_S if r.kind == "localize" else TRACK_LIMIT_S
            return _failed(r) or r.latency > limit
        extra["slo_miss_share"] = (
            sum(1 for r in timed if missed(r)) / max(1, len(timed)), "ratio")
    extra["failed_share"] = (len(failed) / max(1, len(timed)), "ratio")
    lags = loadgen.lag_samples(launch.lags, launch.t0, launch.t1)
    if lags:
        lag99 = 1e3 * stats.quantile(lags, 0.99)
        bound = LAG_BOUND_MS
        if workload.loop == "closed" and "latency_p50_ms" in out:
            bound = max(bound, LAG_BOUND_SHARE * out["latency_p50_ms"][0])
        extra["loadgen.lag_p99_ms"] = (lag99, "ms")
        extra["loadgen.valid"] = (float(lag99 <= bound), "bool")
    overhead = [
        (r.arrived - r.sent) - r.reply["latency_s"] for r in good
        if r.reply.get("latency_s") is not None
    ]
    if overhead:
        extra["gateway.overhead_ms_p50"] = (
            1e3 * stats.quantile(overhead, 0.50), "ms")
        extra["gateway.overhead_ms_p99"] = (
            1e3 * stats.quantile(overhead, 0.99), "ms")

    # Accuracy, on a population that does not depend on throughput.
    if workload.loop == "closed":
        population = [r for r in recs if 0 <= r.seq < EVAL_PER_CLIENT]
    else:
        population = [r for r in timed if r.kind == "localize"]
    population = [r for r in population if not _failed(r)]
    loc_errors = [e for r in population
                  for e in checks.position_errors(r.reply["estimates"],
                                                  r.window.truth)]
    if loc_errors:
        out["loc_error_median"] = (stats.median(loc_errors), "field_units")
    track_errors = [e for r in good if r.kind == "track"
                    for e in checks.position_errors(r.reply["estimates"],
                                                    r.window.truth)]
    if track_errors:
        out["track_error_median"] = (stats.median(track_errors),
                                     "field_units")

    replies = checks.exactly_one_reply(recs)
    extra["replies_missing"] = (float(replies["missing"]), "count")
    extra["replies_duplicated"] = (float(replies["duplicated"]), "count")
    ordered = sorted(population, key=lambda r: r.id)
    pick = np.random.default_rng(seed).permutation(len(ordered))
    sample = [ordered[i] for i in sorted(pick[:PARITY_SAMPLE])]
    mismatched = checks.parity(sample, *parity_refs)
    extra["parity_checked"] = (float(len(sample)), "count")
    verdict = {
        "exactly_one_reply": (replies["missing"] == 0
                              and replies["duplicated"] == 0
                              and launch.ledger.stray == 0),
        "parity_bitwise": bool(sample) and not mismatched,
        "accuracy_measured": bool(loc_errors) and all(
            np.isfinite(loc_errors)),
        "tracking_measured": (not workload.track_sessions
                              or bool(track_errors)),
    }
    return out, extra, verdict, len(timed), len(failed)


# ----------------------------------------------------------------------
def run(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"wirebench: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import scenario
    import tracing

    if args.workload not in scenario.WORKLOADS:
        print(f"wirebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(scenario.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("wirebench: --seconds must be > 0", file=sys.stderr)
        return 2
    workload = scenario.WORKLOADS[args.workload]
    inputs = scenario.make_inputs(workload, args.seed, args.seconds, WARMUP_S)
    net, sniffers = scenario.deployment()
    parity_refs = (net, sniffers, scenario.fingerprint_map(net, sniffers))

    out_dir = os.path.join(HERE, ".runs", f"{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        def launch(tag, trace=0, setup_only=False):
            # The load generator is the instrument: keep collector pauses
            # out of its send times (the server keeps its own collector).
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                result = asyncio.run(_launch(workload, inputs, args.seconds,
                                             trace, out_dir, tag, setup_only))
            finally:
                gc.enable()
                gc.unfreeze()
            if trace:
                result.span_files = sorted(
                    os.path.join(out_dir, name)
                    for name in os.listdir(out_dir) if name.startswith(tag)
                )
            return result

        setups = []
        if not args.trace:
            for i in range(SETUP_LAUNCHES - 1):
                setups.append(launch(f"setup{i}", setup_only=True).setup_s)
        base = launch("base")
        setups.append(base.setup_s)
        metrics, extra, verdict, attempted, failed = analyse(
            workload, base, args.seed, parity_refs)
        metrics["setup_s"] = (float(np.median(setups)), "s")
        if args.trace:
            traced = launch("traced", trace=1)
            t_metrics, t_extra, t_verdict, t_attempted, t_failed = analyse(
                workload, traced, args.seed, parity_refs)
            verdict = {k: v and t_verdict[k] for k, v in verdict.items()}
            attempted += t_attempted
            failed += t_failed
            layers = tracing.layer_metrics(
                [tracing.load(path) for path in traced.span_files],
                traced.t0, traced.t1, traced.workers)
            layers.update({k: v for k, v in t_extra.items()
                           if k.startswith(("loadgen.", "gateway."))})
            for name, (value, unit) in t_metrics.items():
                if name in metrics and metrics[name][0]:
                    layers[f"trace.overhead_{name}"] = (
                        value / metrics[name][0] - 1.0, "ratio")
            extra.update(metrics)
            metrics = layers
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass  # another run is still using it

    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "commit": _commit(), "python": platform.python_version(),
        "numpy": np.__version__, "checks": verdict,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in sorted({**metrics, **extra}.items()):
        print(f"metric {name} {value!r} {unit}")
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": all(verdict.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
