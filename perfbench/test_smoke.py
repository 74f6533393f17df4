"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints exactly the metric names BENCHMARK.json
declares, that every correctness check passes, that the wire-noise
injector's prediction holds for split reads, and that the benchmark
refuses to run where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_noise_injector_prediction_is_exact(seed):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import driveguard as dg
        from workloads import inject_wire_noise, read_bounds
    finally:
        del sys.path[:2]
    rng = np.random.default_rng(seed)
    raw = rng.integers(-2048, 2048, size=4000)
    session = dg.SubjectSession(subject_id="s", task=dg.TaskLabel.TEXT,
                                device=dg.Device.SINGLE_ELECTRODE_512, fs_hz=512,
                                channels=("FP1",), raw=raw[None, :].astype(np.int32))
    wire, keep, flipped = inject_wire_noise(dg.session_to_packets(session), rng,
                                            0.05, 0.05, 64)
    assert flipped > 0
    parser = dg.PacketParser()
    values = [p.raw_value for a, b in read_bounds(len(wire), rng, 256)
              for p in parser.feed(wire[a:b])]
    assert values == raw[keep].tolist()
    assert parser.corrupt_frames == flipped
    one_shot, corrupt = dg.packets_to_samples(wire)
    assert one_shot.tolist() == values and corrupt == flipped


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_all_runs_every_workload():
    proc = run_bench(ROOT, "--workload", "all", "--seed", "4", "--seconds", "0.5",
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
            for m in SPEC["end_to_end"]} == set(result["metrics"])
    for w in SPEC["workloads"]:
        assert f"# {w['name']} fail_ratio = 0 ratio" in proc.stdout
