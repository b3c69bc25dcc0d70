"""Smoke test of the benchmark: a tiny pass of each workload, traced and
untraced, with the output schema checked against BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def pvakit_on_path():
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))


def test_config_matches_workloads():
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass(workload, trace):
    result, meta = run.run(workload, seed=7, seconds=0, trace=trace, tiny=True)
    last = json.loads(run.report_lines(result, meta)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and 0 <= last["failed"] <= last["attempted"]
    want = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    assert meta["workload"] == workload and meta["seed"] == 7


def test_same_seed_same_inputs():
    import workloads

    def outputs(seed):
        pk, cli = run.fresh_import()
        env = workloads.Env(pk, cli.main)
        ops = workloads.build("structure_checks", seed, env, tiny=True).ops
        return run.run_pass(env, ops)[1]

    assert outputs(3) == outputs(3)
    assert outputs(3) != outputs(4)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
