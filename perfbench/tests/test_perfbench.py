"""The benchmark's own tests: tiny smoke runs of every workload.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
from run import tail  # noqa: E402


def run_bench(cwd, workload, trace, out):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                             "--trace", str(trace), "--smoke", "--out", str(out)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    """An untraced and a traced smoke run of one workload, sharing an out dir."""
    out = tmp_path_factory.mktemp(request.param)
    runs = {}
    for trace in (0, 1):
        proc = run_bench(ROOT, request.param, trace, out)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        result = json.loads((out / f"{request.param}-seed{SEED}-trace{trace}.json").read_text())
        runs[trace] = (proc.stdout, last, result)
    return runs


def test_every_metric_is_printed_with_its_unit(runs):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _, last, _ = runs[trace]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in last["metrics"].values())


def test_traced_run_prints_table_and_overhead(runs):
    stdout, _, result = runs[1]
    for kind in ("image", "step", "setup"):
        assert f"-- {kind}:" in stdout
    assert "tracing overhead per image" in stdout and "tracing overhead per step" in stdout
    assert set(result["overhead"]) == {"image", "step"}


def test_tracing_changes_no_output_byte(runs):
    plain, traced = runs[0][2], runs[1][2]
    assert plain["checkpoint_sha256"] == traced["checkpoint_sha256"]
    assert plain["bitstream_sha256"] == traced["bitstream_sha256"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(100))) == (89, 90.0, 100)
    assert tail(list(range(20))) == (9, 50.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
