"""Every workload once on a tiny planted world, untraced and traced: all
operations pass their checks and every metric named in BENCHMARK.json is
printed with its unit."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_on_a_tiny_world(name, trace, tmp_path):
    result, provenance = run.run(name, seed=3, seconds=0, trace=trace,
                                 sizes=workloads.TINY_SIZES[name], work_root=tmp_path / "work")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert provenance["seed"] == 3 and provenance["nproc"] >= 1
    assert not (tmp_path / "work").exists()  # the work directory is removed


def test_same_seed_same_operations(tmp_path):
    first, _ = run.run("sports-decode", 4, 0, False, workloads.TINY_SIZES["sports-decode"],
                       tmp_path)
    second, _ = run.run("sports-decode", 4, 0, False, workloads.TINY_SIZES["sports-decode"],
                        tmp_path)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["metrics"]["llm_calls_per_item"] == second["metrics"]["llm_calls_per_item"]


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
