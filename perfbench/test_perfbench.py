"""Tests for the benchmark harness itself.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(cwd: Path, *args: str) -> tuple[int, str, str, int]:
    """Run the benchmark in its own session; returns (code, out, err, pid)."""
    proc = subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=300)
    return proc.returncode, out, err, proc.pid


def _session_members(sid: int) -> list[int]:
    """Live processes whose session id is ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry.name))
    return members


def _result(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_short_workload_leaves_no_process():
    code, out, err, pid = _run(
        ROOT, "--workload", "paper-week-batch", "--seed", "3",
        "--seconds", "1", "--trace", "0",
    )
    assert code == 0, err
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert _session_members(pid) == []


def test_in_process_run_reaps_every_child(capsys):
    assert run.main([
        "--workload", "paper-week-batch", "--seed", "4", "--seconds", "1",
    ]) == 0
    assert _result(capsys.readouterr().out)["correct"]
    assert multiprocessing.active_children() == []
    pid = os.getpid()
    children = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    assert children == []


def test_work_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        code, out, err, _pid = _run(
            ROOT, "--workload", "paper-week-warm", "--seed", "5",
            "--seconds", "1", "--trace", "1",
        )
        assert code == 0, err
        result = _result(out)
        assert result["correct"], err
        metrics = result["metrics"]
        counts.append({name: metrics[name]["value"] for name in run.REPEAT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["optim.ipm_iterations"] > 0
    assert counts[0]["obs.certify_calls"] == 504
    assert sum(
        counts[0][f"optim.warm_rung.{r}"]
        for r in ("active-set", "warm-ipm", "cold", "incumbent")
    ) == 504

    trace = json.loads(
        (run.TRACE_DIR / "paper-week-warm-seed5.json").read_text()
    )
    assert trace["span_fields"] == [
        "id", "parent", "pass", "name", "start", "end", "failed"
    ]
    spans = trace["spans"]
    assert {s[3] for s in spans} >= {"engine.run", "optim.solve", "obs.certify"}
    assert all(s[1] < s[0] for s in spans)  # parents open before children


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    code, out, _err, _pid = _run(
        tmp_path, "--workload", "paper-week", "--seed", "1", "--seconds", "1",
    )
    assert code != 0
    assert '"correct"' not in out
