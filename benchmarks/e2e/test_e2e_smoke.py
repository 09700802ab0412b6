"""Smoke test of the end-to-end benchmark at ~1/100 of full scale.

Run from the repository root::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

One untraced and one traced smoke invocation (each well under a minute)
back every assertion below.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / RUN.relative_to(ROOT)), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Untraced and traced smoke records plus each run's last stdout line."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        proc = _run("--scale", "smoke", "--trace", str(trace), "--json", str(path))
        assert proc.returncode == 0, proc.stderr[-4000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[trace] = {"path": path, "record": json.loads(path.read_text()), "last": last}
    return runs


def test_every_metric_is_emitted_for_every_workload(smoke):
    workloads = {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = smoke[trace]["record"]
        names = {m["name"] for m in SPEC[section]}
        assert record["scale"] == "smoke"
        assert set(record["workloads"]) == workloads
        for workload, result in record["workloads"].items():
            assert set(result["metrics"]) == names, workload
        last = smoke[trace]["last"]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {
            f"{w}/{m}" for w in workloads for m in names
        }
    for result in smoke[0]["record"]["workloads"].values():
        assert all(value > 0 for value in result["metrics"].values())


def test_correctness_gate_passes(smoke):
    for trace in (0, 1):
        last = smoke[trace]["last"]
        assert last["correct"] is True
        assert last["failed"] == 0
        assert last["attempted"] > 0
        for workload, result in smoke[trace]["record"]["workloads"].items():
            assert result["correct"], workload
            info = result["info"]
            assert info.get("oracle_mismatches", 0) == 0, workload
            assert info.get("reference_mismatches", 0) == 0, workload
    stream = smoke[0]["record"]["workloads"]["stream-d5"]["info"]
    assert stream["rounds_committed"] == stream["rounds_fed"]


def test_trace_covers_the_shot_path(smoke):
    for workload, result in smoke[1]["record"]["workloads"].items():
        metrics = result["metrics"]
        assert metrics["trace.overhead"] > 0, workload
        if workload.startswith("mem-"):
            assert metrics["trace.coverage"] > 0.95, workload


def test_compare_accepts_same_scale_and_refuses_smoke_against_full(smoke, tmp_path):
    smoke_path = smoke[0]["path"]
    same = _run("--compare", str(smoke_path), "--", str(smoke_path))
    assert same.returncode == 0, same.stdout + same.stderr
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps({**smoke[0]["record"], "scale": "full"}))
    mixed = _run("--compare", str(smoke_path), "--", str(full_path))
    assert mixed.returncode == 2
    assert "refusing" in mixed.stderr


def test_compare_refuses_what_it_cannot_pair(smoke, tmp_path):
    smoke_path, record = smoke[0]["path"], smoke[0]["record"]
    subset_path = tmp_path / "subset.json"
    first = next(iter(record["workloads"]))
    subset_path.write_text(
        json.dumps({**record, "workloads": {first: record["workloads"][first]}})
    )
    traced_path = smoke[1]["path"]
    for other in (subset_path, traced_path):
        proc = _run("--compare", str(smoke_path), "--", str(other))
        assert proc.returncode == 2, other
        assert "refusing" in proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = _run(
        "--workload", "stream-d5", "--seed", "1", "--seconds",
        str(SPEC["run_seconds"]), "--trace", "0", root=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
