"""Smoke: the query-serving ablation runs as a standalone script."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_bench_ablation_query_smoke(tmp_path):
    checked_in = REPO / "benchmarks" / "results" / "ablation_query_serving.txt"
    before = checked_in.read_bytes()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_ablation_query.py"), "--smoke"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # --smoke writes its table under the working directory
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "identical to the BFS reference" in proc.stdout
    assert "speedup" in proc.stdout
    assert "identical to the BFS reference" in (
        tmp_path / "ablation_query_serving.txt"
    ).read_text(encoding="utf-8")
    # the checked-in snapshot is not rewritten by a smoke run
    assert checked_in.read_bytes() == before
