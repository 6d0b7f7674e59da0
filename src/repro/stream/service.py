"""The streaming service loop: source -> session -> checkpoints.

:func:`run_stream` is the single-session pump used by the CLI
(``repro track-stream``) and the examples; :func:`resume_or_create`
implements the crash-recovery contract (load the checkpoint when one
exists, otherwise build a fresh session). Multi-session deployments
track through :meth:`repro.serve.LocalizationService.open_session` and
:class:`~repro.serve.TrackStepRequest`\\ s instead.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ConfigurationError
from repro.faults.streams import wrap_observation_stream
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.session import TrackingSession, TruthProvider
from repro.stream.sources import ObservationSource

_PathLike = Union[str, Path]


def resume_or_create(
    checkpoint_path: _PathLike,
    factory: Callable[[], TrackingSession],
    truth: Optional[TruthProvider] = None,
    fingerprint_map=None,
) -> TrackingSession:
    """Load the session from ``checkpoint_path`` if present, else build one.

    The crash-recovery idiom::

        session = resume_or_create("run.ckpt.npz", make_session)
        run_stream(source, session, checkpoint_path="run.ckpt.npz",
                   checkpoint_every=10)

    A process killed mid-run restarts with the same two lines and
    continues deterministically.

    ``fingerprint_map`` — a shared read-only
    :class:`repro.fpmap.FingerprintMap` — is re-attached to resumed
    trackers (validated against the checkpointed deployment) and, when
    the factory built a map-less tracker, attached to fresh sessions
    too, so every session of a fleet serves from the one map instance.
    """
    path = Path(checkpoint_path)
    if path.exists():
        return load_checkpoint(path, truth=truth, fingerprint_map=fingerprint_map)
    session = factory()
    if truth is not None and session.truth is None:
        session.truth = truth
    if fingerprint_map is not None and session.tracker.fingerprint_map is None:
        session.tracker.attach_map(fingerprint_map)
    return session


def _drop_replayed_prefix(iterator, last_time: float, max_drop: int):
    """Drop the leading windows a killed run already folded in.

    The cursor is the checkpointed ``last_time``, not the consumed
    count alone: the killed run may have consumed windows the replay
    does not contain (duplicated deliveries, transient junk), so a
    pure count skip can silently jump past never-processed windows.
    The drop is bounded both ways — at most ``max_drop`` (the consumed
    count) windows go, and only ones the session's out-of-order guard
    would reject anyway (``time <= last_time``); everything else is
    re-offered and the session counts it.
    """
    dropped = 0
    for observation in iterator:
        if dropped < max_drop:
            time = getattr(observation, "time", None)
            try:
                stale = time is not None and float(time) <= last_time
            except (TypeError, ValueError):
                stale = False
            if stale:
                dropped += 1
                continue
        yield observation
        break
    yield from iterator


def run_stream(
    source: ObservationSource,
    session: TrackingSession,
    checkpoint_path: Optional[_PathLike] = None,
    checkpoint_every: int = 0,
    max_windows: Optional[int] = None,
    fast_forward: bool = True,
    on_step: Optional[Callable[[TrackingSession, object], None]] = None,
    retry_policy=None,
) -> TrackingSession:
    """Pump a source through a session until exhaustion (or ``max_windows``).

    Parameters
    ----------
    source:
        Observation stream. Replayable sources (``ReplaySource``,
        ``JsonlTailSource`` over a stable file) restart from their
        beginning each run; see ``fast_forward``.
    session:
        The session to drive — typically from :func:`resume_or_create`.
    checkpoint_path:
        When set, the session is checkpointed here every
        ``checkpoint_every`` consumed windows and once more at exit.
    checkpoint_every:
        Checkpoint cadence in consumed windows; ``0`` checkpoints only
        at exit.
    max_windows:
        Stop after consuming this many windows *this run* (kill-switch
        for tests and bounded batch jobs); ``None`` runs to exhaustion.
    fast_forward:
        When the session has already consumed windows (a resumed run),
        discard the leading windows whose time is at or before the
        checkpointed ``last_time`` before processing (by-count when no
        window was ever processed). Leave on for replayable sources;
        turn off for live feeds that never repeat old windows.
    on_step:
        Observer called as ``on_step(session, step_or_none)`` after each
        consumed window (``None`` for skipped windows).
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy` for the checkpoint
        writes (transient I/O failures re-attempt the atomic write).

    When a fault plan is armed (:func:`repro.faults.injected`), the
    source is routed through :func:`repro.faults.wrap_observation_stream`
    so stalled/duplicated/torn windows exercise the session's
    skip-and-count contract.
    """
    if checkpoint_every < 0:
        raise ConfigurationError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    if max_windows is not None and max_windows < 0:
        raise ConfigurationError(
            f"max_windows must be >= 0, got {max_windows}"
        )
    iterator = iter(wrap_observation_stream(iter(source)))
    if fast_forward and session.windows_consumed > 0:
        if session.last_time is not None:
            iterator = _drop_replayed_prefix(
                iterator, session.last_time, session.windows_consumed
            )
        else:
            # Nothing was ever processed (the killed run consumed only
            # junk) — no time cursor exists, skip by count instead.
            next(islice(iterator, session.windows_consumed,
                        session.windows_consumed), None)
    consumed_this_run = 0
    try:
        while max_windows is None or consumed_this_run < max_windows:
            try:
                observation = next(iterator)
            except StopIteration:
                break
            step = session.process(observation)
            consumed_this_run += 1
            if on_step is not None:
                on_step(session, step)
            if (
                checkpoint_path is not None
                and checkpoint_every > 0
                and session.windows_consumed % checkpoint_every == 0
            ):
                save_checkpoint(session, checkpoint_path,
                                retry_policy=retry_policy)
    finally:
        if checkpoint_path is not None:
            save_checkpoint(session, checkpoint_path,
                            retry_policy=retry_policy)
    return session
