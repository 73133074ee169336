"""Self-test of the benchmark at tiny sizes: ball-hnn at radius 1 and
nf-batch with 30 words.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

BALL_R1 = dataclasses.replace(
    bench.WORKLOADS["ball-hnn"],
    argv=("certify", bench.HNN, "--what", "coset", "--system", "edge-cosets",
          "--radius", "1"))
BALL_R1_STDOUT = ("certificate mode=async radius=1 pairs=23 K=1 status=bounded\n"
                  "meta kappa=1\nmeta language_states=9\n")
NF_30 = dataclasses.replace(bench.WORKLOADS["nf-batch"], words_per_config=10)
SPEC = bench.load_bench_spec()


@pytest.fixture(autouse=True)
def keep_cpu_affinity():
    """bench.main pins its process to one CPU; give the test process its
    CPUs back so that later tests run as before."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "ball-hnn", BALL_R1)
    monkeypatch.setitem(bench.WORKLOADS, "nf-batch", NF_30)
    monkeypatch.setattr(bench, "expected_stdout", lambda w: BALL_R1_STDOUT)


def _run_main(capsys, workload, trace):
    code = bench.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["ball-hnn", "nf-batch"])
def test_every_end_to_end_metric_prints_with_its_unit(tiny, capsys, workload):
    lines, result = _run_main(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"{workload} {metric['name']} ") and
                   line.endswith(f" {metric['unit']}") for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    named = ["fail_frac"] + (["words_per_s", "nf_p50_us", "nf_p99_us"]
                             if workload == "nf-batch" else [])
    for name in named:
        assert any(line.startswith(f"{workload} {name} ") for line in lines)


def test_times_are_taken_to_the_reference_speed():
    ref = bench.CALIBRATION_REF_S
    rep = {"setup_wall_s": 0.1, "verdict_wall_s": 2.0, "calibration_s": [2 * ref, ref]}
    bench.to_reference_speed(rep)
    assert rep["setup_s"] == pytest.approx(0.05)
    assert rep["verdict_s"] == pytest.approx(2.0 / 1.5)


def test_wrong_stdout_reference_counts_as_failure(monkeypatch):
    monkeypatch.setattr(bench, "expected_stdout",
                        lambda w: BALL_R1_STDOUT.replace("K=1", "K=2"))
    result = bench.run_workload(BALL_R1, seed=5, seconds=0, trace=False, min_reps=1)
    assert result["failed"] > 0 and result["info"]["fail_frac"] > 0


def test_wrong_oracle_counts_as_failure(monkeypatch):
    keys = bench.oracle_keys()

    def wrong_keys():
        alpha, _key = keys["zz"]
        return dict(keys, zz=(alpha, lambda w: len(w.letters)))

    monkeypatch.setattr(bench, "oracle_keys", wrong_keys)
    result = bench.run_workload(NF_30, seed=5, seconds=0, trace=False, min_reps=1)
    assert result["failed"] > 0 and result["info"]["fail_frac"] > 0


def test_wrong_ball_reference_counts_as_failure(monkeypatch):
    monkeypatch.setattr(bench, "expected_stdout", lambda w: BALL_R1_STDOUT)
    monkeypatch.setattr(bench, "hnn_sphere_sizes", lambda r: [1] * (r + 1))
    result = bench.run_workload(BALL_R1, seed=5, seconds=0, trace=False, min_reps=1)
    assert result["failed"] == 1


@pytest.mark.parametrize("workload", ["ball-hnn", "nf-batch"])
def test_trace_reports_every_per_layer_metric(tiny, capsys, workload):
    lines, result = _run_main(capsys, workload, 1)
    assert result["correct"], lines[-2]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert result["metrics"]["trace.focus_share"]["value"] > 0.5


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball-hnn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
