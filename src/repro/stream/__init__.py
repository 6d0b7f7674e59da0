"""Streaming tracking service: online ingestion of flux observations.

Turns the batch SMC tracker into a long-running service. The paper's
Algorithm 4.1 is already online — one observation window in, one
posterior update out — and this package supplies the operational shell:
observation sources (replay / live simulation / JSONL tail), defensive
per-session validation, checkpoint/resume with exact RNG state, and
JSON-exportable metrics. Many concurrent sessions are served by
:meth:`repro.serve.LocalizationService.open_session` plus
:class:`~repro.serve.TrackStepRequest`\\ s, which step the same
:class:`TrackingSession` objects on the serve scheduler.

Typical single-session use::

    from repro.stream import (
        ReplaySource, TrackingSession, resume_or_create, run_stream,
    )

    source = ReplaySource.from_npz("observations.npz")
    session = resume_or_create("run.ckpt.npz", make_session)
    run_stream(source, session, checkpoint_path="run.ckpt.npz",
               checkpoint_every=10)
    print(session.metrics.to_json())
"""

from repro.stream.sources import (
    JsonlTailSource,
    ObservationSource,
    ReplaySource,
    SyntheticLiveSource,
    observation_to_jsonl,
)
from repro.stream.metrics import StreamMetrics
from repro.stream.session import TrackingSession
from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    save_checkpoint,
)
from repro.stream.service import resume_or_create, run_stream

__all__ = [
    "ObservationSource",
    "ReplaySource",
    "SyntheticLiveSource",
    "JsonlTailSource",
    "observation_to_jsonl",
    "StreamMetrics",
    "TrackingSession",
    "CHECKPOINT_FORMAT",
    "save_checkpoint",
    "load_checkpoint",
    "resume_or_create",
    "run_stream",
]
