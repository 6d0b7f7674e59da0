"""Benchmark-suite helpers.

Every bench regenerates one of the paper's figures (at reduced
repetition counts so the suite stays minutes-scale) and prints the
measured rows next to what the paper reports. Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the paper-vs-measured tables inline; without it they are
still recorded in each benchmark's ``extra_info``.
"""

from __future__ import annotations

import os
import sys

import pytest

# The perf benches import ``benchrunner`` as a top-level module, which
# works unaided when they run as scripts; match that under pytest.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def report(benchmark, result) -> None:
    """Print an ExperimentResult and attach it to the benchmark record."""
    text = result.render()
    print("\n" + text)
    benchmark.extra_info["figure"] = result.figure
    benchmark.extra_info["rows"] = result.rows
    benchmark.extra_info["paper_reference"] = result.paper_reference


@pytest.fixture(scope="session")
def bench_seed():
    return 20100621  # ICDCS 2010 start date
