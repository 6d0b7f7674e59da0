"""Correctness checks on what came back over the wire."""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

import numpy as np

#: Reply fields that must match the in-process reference bitwise.
PARITY_FIELDS = ("estimates", "best_objective", "best_thetas", "fit_count")


def exactly_one_reply(recs: Sequence) -> Dict[str, int]:
    """Requests answered zero times, and more than once."""
    return {
        "missing": sum(1 for r in recs if r.replies == 0),
        "duplicated": sum(1 for r in recs if r.replies > 1),
    }


def position_errors(estimates, truth) -> List[float]:
    """Per-user distances under the error-minimising matching."""
    estimates = np.asarray(estimates, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimates.shape[0] == 1:
        return [float(np.linalg.norm(estimates[0] - truth[0]))]
    from repro.smc.association import assignment_errors

    return [float(e) for e in assignment_errors(estimates, truth)[0]]


def parity(recs: Sequence, net, sniffers, fmap) -> List[str]:
    """Ids whose wire reply differs from ``LocalizationService(max_batch=1)``.

    Each request is rebuilt from the exact frame that went over the
    wire and answered in process, one at a time; the reference reply
    is framed by the gateway's own ``reply_to_frame`` and compared as
    JSON text, so a float matches only if its shortest round-trip
    digits, and hence its bits, are equal.
    """
    from repro.gateway import protocol
    from repro.serve import LocalizationService

    mismatched = []
    service = LocalizationService(
        net.field, net.positions[sniffers], fingerprint_map=fmap,
        max_batch=1,
    )
    with service:
        for rec in recs:
            request = protocol.localize_request_from_frame(
                rec.frame, rec.frame["client_id"]
            )
            reference = protocol.reply_to_frame(
                service.submit(request).result(timeout=60)
            )
            want = json.dumps([reference[k] for k in PARITY_FIELDS])
            got = json.dumps([rec.reply.get(k) for k in PARITY_FIELDS])
            if want != got:
                mismatched.append(rec.id)
    return mismatched
