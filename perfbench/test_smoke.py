"""Smoke test of the benchmark itself, on scenes a few packets long.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"reference": 0.05, "stability": 0.1, "ingest": 0.2}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], name=f"{name}-tiny", duration_s=TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    result, record = run.run(tiny(name), 5, 0.0, bool(trace), tmp_path / "run")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(record["checks"].values()), record["checks"]
    assert record["fingerprint"]["packets"] >= 1


def test_second_run_checks_the_fingerprint_cache(tmp_path):
    spec = tiny("reference")
    run.run(spec, 5, 0.0, False, tmp_path / "a")
    _, record = run.run(spec, 5, 0.0, True, tmp_path / "b")
    assert record["checks"]["fingerprint_repeats"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
