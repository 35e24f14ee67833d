"""Tests of the benchmark itself; run with ``python3 -m pytest -q perfbench``.

The smoke configuration runs every workload, untraced and traced, in a few
seconds each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, "--smoke", "--workload", workload, "--seed", "1",
                         "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_prediction_check_fails_bad_predictions():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    rng = np.random.default_rng(0)
    w = rng.uniform(size=(2, 5, 5, 3))
    good = w + w.transpose(0, 2, 1, 3)
    for s in range(2):
        for i in range(3):
            np.fill_diagonal(good[s, :, :, i], 0.0)
    asymmetric = good.copy()
    asymmetric[0, 0, 1, 0] += 1.0
    negative = -good
    nan = good.copy()
    nan[1, 2, 3, 2] = nan[1, 3, 2, 2] = np.nan
    for pred, failures in ((good, 0), (asymmetric, 1), (negative, 1), (nan, 1),
                           (good[:, :, :, :2], 1)):
        session = workloads.Session(work=ROOT)
        session.attempted = 1
        workloads.check_prediction(session, pred, good.shape, "test")
        assert len(session.failed) == failures, session.errors


def test_reference_seconds_take_out_a_slow_phase():
    sys.path.insert(0, str(HERE))
    import speed

    ref = speed.REF_S["python"]
    sampler = speed.Sampler()
    # samples at 1.0 s and 3.0 s, each taking 0.01 s; the reference ran 1.5x slow
    sampler.samples = [(1.0, 1.01, 1.5 * ref, 0.0), (3.0, 3.01, 1.5 * ref, 0.0)]
    wall, reference = sampler.seconds(0.5, 3.5, "python")
    assert wall == pytest.approx(3.0 - 0.02)
    assert reference == pytest.approx(wall / 1.5)
    # a span with no sample near it takes the closest one
    assert sampler.seconds(10.0, 11.0, "python") == pytest.approx((1.0, 1.0 / 1.5))
