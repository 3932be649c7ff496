"""BENCHMARK.json agrees with what run.py reports; run.py refuses a bare directory."""

import json
import shutil
import subprocess
import sys

import run
import workloads
from conftest import BENCH_DIR

ROOT = BENCH_DIR.parent


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_run_py():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_layer_metrics_cover_per_layer_list():
    produced = set(run.layer_metrics([]))
    # measured across passes rather than from one traced pass
    produced |= {"trace.wall_s", "trace.overhead_s", "process.minor_faults"}
    assert produced == set(run.PER_LAYER)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no qhog sources" in proc.stderr
