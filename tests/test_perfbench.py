"""The benchmark's correctness gate, run as part of the suite: one short
``remote`` run checks the pinned corpus sha256 and that the mock server's
request log equals the client's ``post_json`` calls, one short
``retrieval`` run checks the pinned sha256 of a corpus seeded from a saved,
loaded and queried 10 500-document index, and one short traced
``scripted`` run checks its pinned sha256 and that every tracer target
still wraps a callable the program calls."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(workload: str, trace: int) -> dict:
    """A one-second ``perfbench/run.py`` run at seed 1; its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_remote_benchmark_run_is_correct():
    _run("remote", 0)


def test_retrieval_benchmark_run_is_correct():
    _run("retrieval", 0)


def test_scripted_traced_benchmark_run_is_correct():
    result = _run("scripted", 1)
    assert result["metrics"]["moderator.attempts_per_candidate"]["value"] >= 1
