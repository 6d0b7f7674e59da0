"""Short end-to-end runs: every workload emits every metric it promises.

Each run takes some seconds (it launches the server three times), so
these are the slow tests of the benchmark::

    python3 -m pytest wirebench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[:-1]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]
    # Every printed metric line carries a name, a value and a unit.
    printed = [line.split() for line in lines if line.startswith("metric ")]
    assert printed and all(len(fields) == 4 for fields in printed)
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    assert meta["seed"] == 7 and meta["cpus_available"] >= 1


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "wirebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    done = _run(str(tmp_path), WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
