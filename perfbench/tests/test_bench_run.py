"""Each workload end to end on its tiny world, through the command the benchmark runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import END_TO_END
from spans import PER_LAYER_METRICS
from workloads import EXPECTED_SPANS, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _session_members(sid: int) -> list[str]:
    """``/proc/<pid>/stat`` lines of every process in session ``sid``, zombies included."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            line = stat.read_text()
        except OSError:
            continue
        fields = line.rpartition(")")[2].split()
        if int(fields[3]) == sid:
            members.append(line)
    return members


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_world_end_to_end(workload):
    untraced = _run(workload, 0)
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    result = json.loads(untraced.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    printed = {line.split()[1] for line in untraced.stdout.splitlines() if line.startswith("metric ")}
    assert "ops_failed_ratio" in printed and "job_s" in printed

    traced = _run(workload, 1)
    assert traced.returncode == 0, traced.stdout + traced.stderr
    result = json.loads(traced.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [name for name, _ in PER_LAYER_METRICS]
    spans = json.loads((ROOT / ".perfbench" / f"spans-{workload}-tiny-3.json").read_text())
    recorded = {span["name"] for span in spans["spans"]}
    assert set(EXPECTED_SPANS[workload]) <= recorded
    assert {span["workload"] for span in spans["spans"]} == {workload}


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_leaves_no_process_behind():
    # The pool workers and the shared-memory broadcast start processes;
    # each must have ended, not merely been orphaned, when the run exits.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "batch_sparse_index",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, (stdout + stderr).decode()
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("batch_dense_hybrid", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in PER_LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
