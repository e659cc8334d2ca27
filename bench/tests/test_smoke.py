"""Smoke run of the benchmark at a size that finishes in seconds."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_run_reports_every_metric():
    res = _result(_run(ROOT, "--workload", "tiny", "--seed", "3", "--seconds", "0",
                       "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _result(_run(ROOT, "--workload", "tiny", "--seed", "3", "--seconds", "0",
                       "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["kernel.spmm.calls"] > 0 and metrics["hypergraph.theta_nnz"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "quick", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_meter_scales_to_the_reference_speed():
    spec = importlib.util.spec_from_file_location("speed", ROOT / "bench" / "speed.py")
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    meter = speed.Meter()
    # ticks every 0.1 s, each twice as slow as the reference
    meter.at = [0.1 * k for k in range(20)]
    meter.took = [2 * speed.REFERENCE_S] * 20
    ticks_inside = 10 * 2 * speed.REFERENCE_S   # at 0.0, 0.1, ..., 0.9
    assert abs(meter.scaled(0.0, 1.0) - (1.0 - ticks_inside) / 2) < 1e-12
