"""Configuration of the parallel kernel engine.

One frozen dataclass carries every knob the hot paths consult: worker
count, kernel chunk size and kernel dtype. The config is deliberately
immutable — an :class:`~repro.engine.executor.Engine` is handed to
long-lived objects (trackers, sessions, builders) and mutating knobs
mid-flight would make "parallel output is bitwise equal to serial"
unverifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the parallel kernel engine.

    Attributes
    ----------
    workers:
        Worker count for fan-out (kernel chunks, solver row chunks,
        per-user rankings, fingerprint-map cell batches). ``0`` runs
        everything inline on the calling thread — the default, and
        always bitwise-identical to any ``workers >= 1`` run in float64
        because parallel units write disjoint output slices and no
        reduction order changes.
    chunk_size:
        Candidate (sink) rows per kernel-evaluation chunk. Bounds the
        evaluator's working set: one chunk touches
        ``O(chunk_size * sniffers)`` temporaries instead of the full
        ``candidates x sniffers`` pair grid. Also the unit of work the
        executor fans out. The default of 256 keeps a chunk's handful
        of ``(chunk, sniffers)`` float64 temporaries cache-resident at
        serve sizes (45-90 sniffers): on a 2-vCPU VM a 1000-row pool
        over 45 sniffers fills at about 1.66 us/row in 256-row chunks
        against 2.09 us/row as one 4096-row chunk (docs/PERFORMANCE.md).
        Chunking never changes a value, so any size is bitwise-equal.
    dtype:
        ``"float64"`` (default) or ``"float32"`` for geometry-kernel
        evaluation. float32 halves kernel memory traffic; the batched
        theta solve always runs in float64, so only the kernel values
        themselves lose precision (see docs/PERFORMANCE.md for the
        observed error envelope).
    """

    workers: int = 0
    chunk_size: int = 256
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.dtype not in _DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {_DTYPES}, got {self.dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)
