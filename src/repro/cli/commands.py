"""Implementations of the ``repro`` CLI commands.

Each handler takes the parsed argparse namespace and returns a process
exit code. Output is plain text on stdout so the commands compose with
shell pipelines; ``--output FILE`` writes machine-readable artifacts.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NoReturn

import numpy as np

from repro.geometry import RectangularField
from repro.network import (
    build_network,
    sample_sniffers_percentage,
)
from repro.traffic import MeasurementModel, simulate_flux
from repro.util.rng import as_generator


def _network_from(args):
    field = RectangularField(args.field, args.field)
    return build_network(
        field=field,
        node_count=args.nodes,
        radius=args.radius,
        deployment=args.deployment,
        rng=as_generator(args.seed),
    )


def _engine_from(args):
    """Build the parallel engine requested by ``--workers``/``--chunk-size``/
    ``--dtype`` (see docs/PERFORMANCE.md). Serial with default knobs."""
    from repro.engine import Engine

    return Engine(
        workers=args.workers, chunk_size=args.chunk_size, dtype=args.dtype
    )


def _place_users(net, count, gen):
    truth = net.field.sample_uniform(count, gen)
    stretches = gen.uniform(1.0, 3.0, count)
    return truth, stretches


class _ShutdownGuard:
    """SIGINT/SIGTERM → a drain event instead of a stack trace.

    The serving commands install one around their load phase: the first
    signal stops *submission* (the event is checked between requests),
    after which the normal drain-and-checkpoint shutdown path runs and
    the process exits 0 deterministically — in-flight work still gets
    its typed replies, checkpoints are still written, ``--metrics-out``
    is still flushed. A second signal restores the default handler's
    behavior (the escape hatch when a drain wedges).
    """

    def __init__(self):
        self.event = threading.Event()
        self._previous = {}

    @property
    def triggered(self) -> bool:
        return self.event.is_set()

    def __enter__(self) -> "_ShutdownGuard":
        def _handle(signum, frame):
            if self.event.is_set():
                # Second signal: give up gracefulness.
                signal.signal(signum, signal.SIG_DFL)
                signal.raise_signal(signum)
                return
            print(
                f"\nreceived {signal.Signals(signum).name}; draining "
                "(signal again to force quit)",
                file=sys.stderr,
            )
            self.event.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, _handle)
            except (ValueError, OSError):
                pass  # not the main thread (tests): run unguarded
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()


def _fail(message: str) -> NoReturn:
    """Report ``message`` on stderr and end the command with exit code 1."""
    print(message, file=sys.stderr)
    raise SystemExit(1)


def _load_fault_plan(args):
    """The ``--fault-plan`` JSON as a FaultPlan, or None without one.

    An unreadable or invalid plan file ends the command with exit code 1.
    """
    if not args.fault_plan:
        return None
    from repro.errors import ConfigurationError
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(args.fault_plan)
    except ConfigurationError as exc:
        _fail(f"cannot load fault plan {args.fault_plan}: {exc}")


def _load_map(path):
    """The fingerprint map at ``path``; an unusable file exits 1."""
    from repro.errors import ConfigurationError
    from repro.fpmap import FingerprintMap

    try:
        return FingerprintMap.load(path)
    except ConfigurationError as exc:
        _fail(f"cannot use map {path}: {exc}")


def _deployment(args, gen, net=None):
    """``(net, sniffers, fmap)``: the deployment a command runs on.

    ``net`` is built from the network args unless given. With ``--map``
    the map's stored sniffer set *is* the deployment it fingerprints
    (``--percentage`` would sample a different set and fail
    validation); without one, ``--percentage`` of the nodes are sampled
    from ``gen``. A map whose sniffer ids do not fit ``net`` exits 1.
    """
    if net is None:
        net = _network_from(args)
    path = getattr(args, "map", None)
    if not path:
        sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
        return net, sniffers, None
    fmap = _load_map(path)
    sniffers = np.asarray(fmap.sniffer_ids, dtype=np.int64)
    if sniffers.size and sniffers.max() >= net.node_count:
        _fail(
            f"cannot use map {path}: sniffer ids exceed the "
            f"{net.node_count}-node network (different deployment args?)"
        )
    return net, sniffers, fmap


def _write_metrics(args, metrics_json, what="metrics", echo=True) -> None:
    """Write ``--metrics-out``, or print the JSON when ``echo`` is set."""
    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_json + "\n")
        print(f"wrote {what} to {args.metrics_out}")
    elif echo:
        print(metrics_json)


def cmd_simulate(args) -> int:
    gen = as_generator(args.seed)
    net = _network_from(args)
    truth, stretches = _place_users(net, args.users, gen)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)

    print(
        f"network: {net.node_count} nodes, degree {net.average_degree():.1f}, "
        f"hop distance {net.average_hop_distance():.2f}"
    )
    for i, (pos, s) in enumerate(zip(truth, stretches)):
        print(f"user {i}: position ({pos[0]:.2f}, {pos[1]:.2f}) stretch {s:.2f}")
    print(
        f"flux: total {flux.sum():.0f}, max {flux.max():.0f} at node "
        f"{int(np.argmax(flux))}"
    )
    if args.output != "-":
        lines = ["node,x,y,flux"]
        for i in range(net.node_count):
            lines.append(
                f"{i},{net.positions[i, 0]:.4f},{net.positions[i, 1]:.4f},"
                f"{flux[i]:.4f}"
            )
        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    return 0


def cmd_build_map(args) -> int:
    from repro.fpmap import build_fingerprint_map

    gen = as_generator(args.seed)
    net = _network_from(args)
    sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    fmap = build_fingerprint_map(
        net.field,
        net.positions[sniffers],
        resolution=args.resolution,
        d_floor=args.d_floor,
        sniffer_ids=sniffers,
        engine=_engine_from(args),
    )
    path = fmap.save(args.output)
    cols, rows = fmap.grid_shape()
    print(
        f"map: {fmap.cell_count} cells (~{cols}x{rows} at resolution "
        f"{fmap.resolution:g}), {fmap.sniffer_count} sniffers, deployment "
        f"{fmap.deployment[:12]}"
    )
    print(f"wrote {path}")
    return 0


def cmd_localize(args) -> int:
    from repro.errors import ConfigurationError
    from repro.fingerprint import NLSLocalizer

    gen = as_generator(args.seed)
    net = _network_from(args)
    truth, stretches = _place_users(net, args.users, gen)
    flux = simulate_flux(net, list(truth), list(stretches), rng=gen)

    _, sniffers, fmap = _deployment(args, gen, net)
    obs = MeasurementModel(net, sniffers, smooth=True, rng=gen).observe(flux)

    localizer = NLSLocalizer(
        net.field,
        net.positions[sniffers],
        d_floor=fmap.d_floor if fmap is not None else 1.0,
    )
    try:
        result = localizer.localize(
            obs,
            user_count=args.users,
            candidate_count=args.candidates,
            restarts=args.restarts,
            rng=gen,
            fingerprint_map=fmap,
            seed_top_k=args.seed_top_k if args.map else 32,
            engine=_engine_from(args),
        )
    except ConfigurationError as exc:
        _fail(f"cannot use map {args.map}: {exc}")
    estimates = result.position_estimates()
    errors = result.errors_to(truth)
    tag = f" (map-seeded from {args.map})" if fmap is not None else ""
    print(
        f"sniffed {sniffers.size}/{net.node_count} nodes; "
        f"objective {result.best.objective:.2f}{tag}"
    )
    for i in range(args.users):
        print(
            f"user {i}: true ({truth[i, 0]:6.2f}, {truth[i, 1]:6.2f})  "
            f"estimated ({estimates[i, 0]:6.2f}, {estimates[i, 1]:6.2f})  "
            f"error {errors[i]:.2f}"
        )
    print(
        f"mean error {errors.mean():.2f} "
        f"({errors.mean() / net.field.diameter:.1%} of field diameter)"
    )
    return 0


def cmd_track(args) -> int:
    from repro.mobility import crossing_trajectories, random_waypoint_trajectory
    from repro.smc import SequentialMonteCarloTracker, TrackerConfig
    from repro.smc.association import assignment_errors
    from repro.traffic import FluxSimulator, synchronous_schedule

    gen = as_generator(args.seed)
    net = _network_from(args)
    if args.crossing:
        a, b = crossing_trajectories(net.field, args.rounds)
        trajectories = [a, b]
        user_count = 2
    else:
        user_count = args.users
        trajectories = [
            random_waypoint_trajectory(
                net.field,
                rounds=args.rounds,
                speed=float(gen.uniform(args.max_speed * 0.4, args.max_speed * 0.9)),
                rng=gen,
            )
            for _ in range(user_count)
        ]
    stretches = list(gen.uniform(1.0, 3.0, user_count))
    schedule = synchronous_schedule(
        [t.positions for t in trajectories], stretches
    )
    sim = FluxSimulator(net, rng=gen)
    sniffers = sample_sniffers_percentage(net, args.percentage, rng=gen)
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    tracker = SequentialMonteCarloTracker(
        net.field,
        net.positions[sniffers],
        user_count=user_count,
        config=TrackerConfig(
            prediction_count=args.predictions,
            keep_count=args.keep,
            max_speed=args.max_speed,
        ),
        rng=gen,
        engine=_engine_from(args),
    )

    print(f"{'round':>5}  mean error")
    finals = None
    for k, (t, events) in enumerate(schedule.windows(1.0)):
        flux = sim.window_flux(events).total
        step = tracker.step(measure.observe(flux, time=t))
        truth = np.stack([tr.positions[k] for tr in trajectories])
        errors, _ = assignment_errors(step.estimates, truth)
        finals = errors
        print(f"{k:>5}  {errors.mean():10.2f}")
    print(f"final mean error {finals.mean():.2f}")
    return 0


def cmd_track_stream(args) -> int:
    from itertools import chain

    from repro.errors import ConfigurationError, StreamError
    from repro.smc import SequentialMonteCarloTracker, TrackerConfig
    from repro.stream import (
        JsonlTailSource,
        ReplaySource,
        SyntheticLiveSource,
        resume_or_create,
        run_stream,
    )
    from repro.util.persistence import load_network

    if args.input and args.jsonl:
        print("use either --input or --jsonl, not both", file=sys.stderr)
        return 2
    gen = as_generator(args.seed)
    net = load_network(args.network) if args.network else _network_from(args)
    truth = None

    fmap = _load_map(args.map) if args.map else None

    if args.input:
        source = ReplaySource.from_npz(args.input)
        if not len(source):
            print(f"{args.input} holds no observations", file=sys.stderr)
            return 1
        sniffer_idx = source.observations[0].sniffers
    elif args.jsonl:
        tail = JsonlTailSource(args.jsonl, idle_timeout=args.idle_timeout)
        iterator = iter(tail)
        try:
            first = next(iterator)
        except StopIteration:
            print(f"{args.jsonl} yielded no observations", file=sys.stderr)
            return 1
        source = chain([first], iterator)
        sniffer_idx = first.sniffers
    else:
        if fmap is not None and int(fmap.sniffer_ids.max()) < net.node_count:
            # Synthesize on the map's own sniffer set: the map *is* the
            # deployment contract, --percentage only applies without one.
            sniffer_idx = np.asarray(fmap.sniffer_ids, dtype=np.int64)
        else:
            sniffer_idx = sample_sniffers_percentage(
                net, args.percentage, rng=gen
            )
        live = SyntheticLiveSource(
            net,
            sniffer_idx,
            user_count=args.users,
            rounds=args.rounds,
            max_speed=args.max_speed,
            rng=gen,
        )
        source = live
        truth = live.truth_at

    def make_session():
        from repro.stream import TrackingSession

        tracker = SequentialMonteCarloTracker(
            net.field,
            net.positions[np.asarray(sniffer_idx, dtype=np.int64)],
            user_count=args.users,
            config=TrackerConfig(
                prediction_count=args.predictions,
                keep_count=args.keep,
                max_speed=args.max_speed,
                reseed_after_misses=args.reseed_after_misses,
            ),
            rng=gen,
            fingerprint_map=fmap,
            engine=_engine_from(args),
        )
        return TrackingSession("cli", tracker, truth=truth)

    try:
        if args.checkpoint:
            session = resume_or_create(
                args.checkpoint, make_session, truth=truth, fingerprint_map=fmap
            )
            if session.windows_consumed:
                print(
                    f"resumed from {args.checkpoint} at window "
                    f"{session.windows_consumed}"
                )
        else:
            session = make_session()
    except ConfigurationError as exc:
        what = f"cannot use map {args.map}" if args.map else "bad configuration"
        print(f"{what}: {exc}", file=sys.stderr)
        return 1

    def on_step(sess, step):
        if step is None:
            reason = list(sess.metrics.windows_skipped)[-1]
            print(f"{sess.windows_consumed - 1:>6}  skipped ({reason})")
        else:
            print(
                f"{sess.windows_consumed - 1:>6}  t={step.time:<8g} "
                f"active={int(step.active.sum())}/{len(step.active)} "
                f"objective={step.objective:.3f}"
            )

    plan = _load_fault_plan(args)
    try:
        from repro.faults import RetryPolicy, injected

        with injected(plan):
            run_stream(
                source,
                session,
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                max_windows=args.max_windows,
                on_step=on_step,
                retry_policy=(
                    RetryPolicy(max_attempts=3, base_delay_s=0.005,
                                max_delay_s=0.1)
                    if plan is not None else None
                ),
            )
    except StreamError as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 1
    if plan is not None:
        print(f"fault plan: {plan.summary()}")

    estimates = session.estimates()
    print("final estimates:")
    for i, (x, y) in enumerate(estimates):
        print(f"  user {i}: ({x:6.2f}, {y:6.2f})")
    _write_metrics(args, session.metrics.to_json())
    return 0


def cmd_traces(args) -> int:
    from repro.traces import (
        generate_campus_aps,
        generate_syslog_records,
        parse_syslog_records,
        select_rectangular_region,
    )

    gen = as_generator(args.seed)
    aps = generate_campus_aps(count=args.aps, rng=gen)
    landmarks, region = select_rectangular_region(
        aps, target_count=args.landmarks
    )
    lines = generate_syslog_records(aps, user_count=args.users, rng=gen)
    parsed = parse_syslog_records(lines)

    print(
        f"{args.aps} APs generated; {len(landmarks)} landmarks in a "
        f"{region[2] - region[0]:.0f} x {region[3] - region[1]:.0f} region"
    )
    print(f"{len(lines)} syslog records across {len(parsed)} cards")
    counts = sorted(len(seq) for seq in parsed.values())
    print(
        f"associations per card: min {counts[0]}, median "
        f"{counts[len(counts) // 2]}, max {counts[-1]}"
    )
    if args.output != "-":
        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.output}")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import PaperDefaults
    from repro.experiments import ablations
    from repro.experiments.reporting import build_experiment_plan

    defaults = PaperDefaults().scaled(args.scale)
    seed = args.seed if args.seed is not None else 20100621
    plan = dict(
        (name.replace("Fig ", "").lower(), runner)
        for name, runner in build_experiment_plan(defaults, seed)
    )
    reps = max(2, 12 // args.scale)
    plan.update(
        {
            "ablation-d-floor": lambda: ablations.run_ablation_d_floor(
                repetitions=reps, rng=seed
            ),
            "ablation-smoothing": lambda: ablations.run_ablation_smoothing(
                repetitions=reps, rng=seed
            ),
            "ablation-weighting": lambda: ablations.run_ablation_weighting(
                repetitions=reps, rng=seed
            ),
            "ablation-routing": lambda: ablations.run_ablation_routing(
                repetitions=reps, rng=seed
            ),
            "ablation-aggregation": lambda: ablations.run_ablation_aggregation(
                repetitions=reps, rng=seed
            ),
            "ablation-kernel": lambda: ablations.run_ablation_kernel(
                repetitions=reps, rng=seed
            ),
            "robustness-holes": lambda: ablations.run_robustness_holes(
                repetitions=reps, rng=seed
            ),
        }
    )
    runner = plan[args.figure]
    result = runner()
    print(result.render())
    return 0


def _ms_to_s(ms):
    return None if ms is None else ms / 1000.0


def _serving_knobs(args, fmap) -> dict:
    """Keyword arguments shared by a LocalizationService and a ServeFleet."""
    return dict(
        d_floor=fmap.d_floor if fmap is not None else 1.0,
        fingerprint_map=fmap,
        map_resolution=args.map_resolution if fmap is None else None,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        adaptive=not getattr(args, "no_adaptive", False),
        target_p95_s=_ms_to_s(args.target_p95_ms),
        fusion_min_depth=args.fusion_min_depth,
        queue_capacity=args.queue_capacity,
        admission_policy=args.policy,
    )


def _serving_load(args, net, sniffers, gen):
    """Pre-generate the synthetic load on the main thread.

    Returns ``(clients, tracks)``: one ``(requests, truths)`` pair of
    localize requests and true user positions per client, and one
    ``(session_id, seed, windows)`` triple per tracking session. Each
    session gets its own integer seed, so its tracker state does not
    depend on the order in which concurrent steps reach the backend.
    The submitting threads never touch ``gen``.
    """
    from repro.serve import LocalizeRequest
    from repro.stream import SyntheticLiveSource

    deadline_s = _ms_to_s(getattr(args, "deadline_ms", None))
    measure = MeasurementModel(net, sniffers, smooth=True, rng=gen)
    clients = []
    for c in range(args.clients):
        requests, truths = [], []
        for r in range(args.requests):
            truth, stretches = _place_users(net, args.users, gen)
            flux = simulate_flux(net, list(truth), list(stretches), rng=gen)
            requests.append(
                LocalizeRequest(
                    request_id=f"c{c}-r{r}",
                    client_id=f"client-{c}",
                    observation=measure.observe(flux),
                    user_count=args.users,
                    candidate_count=args.candidates,
                    restarts=args.restarts,
                    seed=int(gen.integers(2**31)),
                    deadline_s=deadline_s,
                )
            )
            truths.append(truth)
        clients.append((requests, truths))
    tracks = []
    for t in range(args.track_sessions):
        live = SyntheticLiveSource(
            net, sniffers, user_count=args.users, rounds=args.requests,
            rng=gen,
        )
        tracks.append((f"track-{t}", int(gen.integers(2**31)), list(live)))
    return clients, tracks


def _drive_threads(backend, clients, tracks, guard, deadline_s=None):
    """Submit the load through ``backend.submit`` from one thread per
    client and per tracking session, each waiting on its replies.

    Returns ``(elapsed_s, ok, error_codes, errors)``: the ok-reply
    count, a Counter of error codes and each ok localize reply's mean
    error against its truth.
    """
    from repro.serve import TrackStepRequest

    lock = threading.Lock()
    ok, codes, errors = 0, Counter(), []

    def record(reply, truth=None):
        nonlocal ok
        with lock:
            if not reply.ok:
                codes[reply.code] += 1
                return
            ok += 1
            if truth is not None:
                errors.append(reply.result.errors_to(truth).mean())

    def run_localize(requests, truths):
        for request, truth in zip(requests, truths):
            if guard.triggered:
                return
            record(backend.submit(request).result(), truth)

    def run_track(session_id, windows):
        for r, obs in enumerate(windows):
            if guard.triggered:
                return
            record(backend.submit(TrackStepRequest(
                request_id=f"{session_id}-r{r}",
                client_id=session_id,
                session_id=session_id,
                observation=obs,
                deadline_s=deadline_s,
            )).result())

    threads = [
        threading.Thread(target=run_localize, args=work, name=f"client-{c}")
        for c, work in enumerate(clients)
    ] + [
        threading.Thread(target=run_track, args=(sid, windows), name=sid)
        for sid, _, windows in tracks
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, ok, codes, errors


def _metrics_endpoint(args, metrics=None, fleet=None):
    """Start ``GET /metrics`` when ``--metrics-port`` asks for one."""
    if args.metrics_port is None:
        return None
    from repro.serve import MetricsServer

    endpoint = MetricsServer(metrics, port=args.metrics_port, fleet=fleet)
    print(f"metrics on http://127.0.0.1:{endpoint.start()}/metrics")
    return endpoint


def _print_outcome(guard, plan) -> None:
    if guard.triggered:
        print("drained after shutdown signal")
    if plan is not None:
        print(f"fault plan: {plan.summary()}")


def _print_replies(elapsed, ok, codes, errors=(), rate="", tail="") -> None:
    errored = sum(codes.values())
    total = ok + errored
    rps = total / elapsed if elapsed > 0 else float("nan")
    print(
        f"{total} replies in {elapsed:.2f}s ({rps:.0f} req/s{rate}): "
        f"{ok} ok, {errored} errors{tail}"
    )
    for code, count in sorted(codes.items()):
        print(f"  {code}: {count}")
    if errors:
        print(f"mean localization error {np.mean(errors):.2f}")


def _service(args, net, sniffers, fmap):
    from repro.errors import ConfigurationError
    from repro.serve import LocalizationService

    try:
        return LocalizationService(
            net.field,
            net.positions[sniffers],
            engine=_engine_from(args),
            **_serving_knobs(args, fmap),
        )
    except ConfigurationError as exc:
        _fail(f"cannot build service: {exc}")


def cmd_serve(args) -> int:
    from repro.faults import injected

    gen = as_generator(args.seed)
    net, sniffers, fmap = _deployment(args, gen)
    service = _service(args, net, sniffers, fmap)
    plan = _load_fault_plan(args)
    clients, tracks = _serving_load(args, net, sniffers, gen)
    for session_id, seed, _ in tracks:
        service.open_session(session_id, args.users, rng=seed)

    guard = _ShutdownGuard()
    endpoint = _metrics_endpoint(args, service.metrics)
    map_tag = " (map-seeded)" if service.fingerprint_map is not None else ""
    print(
        f"serving {len(clients)} localize clients x {args.requests} "
        f"requests + {len(tracks)} tracking sessions on "
        f"{sniffers.size}/{net.node_count} sniffed nodes{map_tag}; "
        f"max_batch={args.max_batch} max_wait={args.max_wait_ms:g}ms "
        f"batching={'fixed' if args.no_adaptive else 'adaptive'} "
        f"policy={args.policy}"
    )
    with injected(plan), guard:
        service.start()
        report = _drive_threads(
            service, clients, tracks, guard, _ms_to_s(args.deadline_ms)
        )
        summary = service.stop(checkpoint_dir=args.checkpoint_dir)
    if endpoint is not None:
        endpoint.stop()
    _print_outcome(guard, plan)
    _print_replies(*report)
    for session_id, path in sorted(summary["checkpoints"].items()):
        print(f"checkpointed {session_id} -> {path}")
    _write_metrics(args, service.metrics.to_json())
    return 0


def cmd_fleet(args) -> int:
    from repro.errors import ConfigurationError
    from repro.faults import injected
    from repro.fleet import ServeFleet
    from repro.serve.metrics import _nan_safe_deep

    gen = as_generator(args.seed)
    net, sniffers, fmap = _deployment(args, gen)
    try:
        fleet = ServeFleet(
            net.field,
            net.positions[sniffers],
            workers=args.fleet_workers,
            map_mode=args.map_mode,
            cluster_cells=args.cluster_cells,
            checkpoint_dir=args.checkpoint_dir,
            engine_workers=args.workers,
            engine_chunk_size=args.chunk_size,
            **_serving_knobs(args, fmap),
        )
    except ConfigurationError as exc:
        _fail(f"cannot build fleet: {exc}")
    plan = _load_fault_plan(args)
    clients, tracks = _serving_load(args, net, sniffers, gen)

    guard = _ShutdownGuard()
    map_tag = (
        f" ({args.map_mode} map)" if fleet.fingerprint_map is not None else ""
    )
    print(
        f"fleet of {args.fleet_workers} workers serving "
        f"{len(clients)} localize clients x {args.requests} requests "
        f"+ {len(tracks)} tracking sessions on "
        f"{sniffers.size}/{net.node_count} sniffed nodes{map_tag}; "
        f"max_batch={args.max_batch} policy={args.policy}"
    )
    # Arm only across start(): forked workers inherit the armed plan,
    # so worker-side sites (fleet.worker.exit) fire in the children.
    # Disarm before driving traffic — replacements forked at failover
    # must start clean, or each one re-fires the fault and dies again
    # until the redelivery limit gives up.
    with injected(plan):
        fleet.start()
    try:
        with guard:
            endpoint = _metrics_endpoint(args, fleet=fleet)
            for session_id, seed, _ in tracks:
                fleet.open_session(session_id, args.users, seed=seed)
            report = _drive_threads(fleet, clients, tracks, guard)
            snapshot = fleet.fleet_snapshot()
            if endpoint is not None:
                endpoint.stop()
    finally:
        fleet.stop()
    _print_outcome(guard, plan)
    router = snapshot["router"]
    _print_replies(
        *report,
        rate=" aggregate",
        tail=f"; {router['worker_deaths']} worker deaths, "
        f"{router['redeliveries']} redeliveries, "
        f"{router['migrations']} migrations",
    )
    metrics_json = json.dumps(
        _nan_safe_deep(snapshot), indent=2, sort_keys=True
    )
    _write_metrics(args, metrics_json, what="fleet metrics")
    return 0


#: Stage order of the printed latency-decomposition table.
_STAGE_ORDER = (
    "gateway_in", "admission", "fuse", "solve", "reply", "gateway_out",
)


def _print_stage_table(stages: dict) -> None:
    known = [s for s in _STAGE_ORDER if s in stages]
    known += [s for s in sorted(stages) if s not in _STAGE_ORDER]
    if not known:
        return
    print(f"{'stage':<12} {'p50 ms':>9} {'p95 ms':>9} {'count':>8}")
    for stage in known:
        row = stages[stage]
        p50 = row.get("p50_s")
        p95 = row.get("p95_s")
        print(
            f"{stage:<12} "
            f"{(p50 * 1000 if p50 is not None else float('nan')):>9.3f} "
            f"{(p95 * 1000 if p95 is not None else float('nan')):>9.3f} "
            f"{row.get('count', 0):>8}"
        )


def _drive_gateway(args, host, port, clients, tracks, guard) -> int:
    """Drive the pre-generated load through a gateway over real sockets."""
    import asyncio

    from repro.errors import GatewayError
    from repro.gateway import GatewayClient

    counts = {"ok": 0, "dead": 0}
    error_codes: Counter = Counter()

    def record(reply):
        if reply.get("ok"):
            counts["ok"] += 1
        else:
            error_codes[reply.get("code", "unknown")] += 1

    async def localize_client(c, requests):
        client = GatewayClient(host, port, f"client-{c}")
        try:
            await client.connect()
            for request in requests:
                if guard.triggered:
                    break
                record(await client.localize(
                    request.observation,
                    user_count=request.user_count,
                    candidate_count=request.candidate_count,
                    restarts=request.restarts,
                    seed=request.seed,
                    deadline_s=request.deadline_s,
                ))
        except (GatewayError, asyncio.TimeoutError, OSError):
            counts["dead"] += 1
        finally:
            await client.close()

    async def track_client(session_id, seed, windows):
        client = GatewayClient(host, port, session_id)
        try:
            await client.connect()
            opened = await client.open_session(
                session_id, args.users, seed=seed
            )
            if not opened.get("session_id"):
                error_codes[opened.get("code", "unknown")] += 1
                return
            for obs in windows:
                if guard.triggered:
                    break
                record(await client.track_step(session_id, obs))
        except (GatewayError, asyncio.TimeoutError, OSError):
            counts["dead"] += 1
        finally:
            await client.close()

    async def main():
        start = time.perf_counter()
        jobs = [
            localize_client(c, requests)
            for c, (requests, _) in enumerate(clients)
        ] + [
            track_client(session_id, seed, windows)
            for session_id, seed, windows in tracks
        ]
        await asyncio.gather(*jobs)
        elapsed = time.perf_counter() - start
        stages = {}
        try:
            async with GatewayClient(host, port, "probe") as probe:
                dump = await probe.trace_dump()
                stages = dump.get("stages", {})
        except (GatewayError, OSError):
            pass
        return elapsed, stages

    try:
        elapsed, stages = asyncio.run(main())
    except ConnectionRefusedError as exc:
        print(f"cannot reach gateway {host}:{port}: {exc}", file=sys.stderr)
        return 1
    _print_replies(
        elapsed, counts["ok"], error_codes, rate=" over the wire",
        tail=f", {counts['dead']} dead connections",
    )
    _print_stage_table(stages)
    return 0


def cmd_gateway(args) -> int:
    from repro.faults import injected
    from repro.gateway import GatewayServer

    gen = as_generator(args.seed)
    net, sniffers, _ = _deployment(args, gen)
    # Both modes drive the same load: the serve mode its own gateway,
    # --connect a remote one (built from the same network args, so the
    # observations match the remote deployment when the seeds match).
    clients, tracks = _serving_load(args, net, sniffers, gen)

    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            _fail(f"--connect needs HOST:PORT, got {args.connect!r}")
        with _ShutdownGuard() as guard:
            return _drive_gateway(
                args, host or "127.0.0.1", port, clients, tracks, guard
            )

    service = _service(args, net, sniffers, None)
    plan = _load_fault_plan(args)
    service.start()
    gateway = GatewayServer(service, host="127.0.0.1", port=args.port)
    guard = _ShutdownGuard()
    code = 0
    endpoint = None
    try:
        port = gateway.start()
        print(
            f"gateway on 127.0.0.1:{port} fronting "
            f"{sniffers.size}/{net.node_count} sniffed nodes"
        )
        endpoint = _metrics_endpoint(args, service.metrics)
        with injected(plan), guard:
            if args.clients > 0 or args.track_sessions > 0:
                code = _drive_gateway(
                    args, "127.0.0.1", port, clients, tracks, guard
                )
            else:
                stop_at = (
                    None if args.duration is None
                    else time.monotonic() + args.duration
                )
                while not guard.triggered:
                    if stop_at is not None and time.monotonic() >= stop_at:
                        break
                    guard.event.wait(0.2)
    finally:
        gateway.stop()
        service.stop(checkpoint_dir=args.checkpoint_dir)
        if endpoint is not None:
            endpoint.stop()
    _print_outcome(guard, plan)
    snap = gateway.snapshot()
    print(
        f"gateway: {snap['connections_opened']} connections, "
        f"{snap['frames_received']} frames in / {snap['frames_sent']} out, "
        f"{snap['replies_dropped']} replies dropped, "
        f"{snap['protocol_errors']} protocol errors"
    )
    _write_metrics(args, service.metrics.to_json(), echo=False)
    return code


def cmd_defend(args) -> int:
    from repro.countermeasures import defense_tradeoff

    gen = as_generator(args.seed)
    net = _network_from(args)
    points = defense_tradeoff(
        net, user_count=args.users, repetitions=args.repetitions, rng=gen
    )
    print(f"{'defense':<12} {'param':>6} {'attack err':>10} {'overhead':>9}")
    for p in points:
        print(
            f"{p.defense:<12} {p.parameter:>6.2f} {p.attack_error:>10.2f} "
            f"{p.overhead:>8.0%}"
        )
    return 0
