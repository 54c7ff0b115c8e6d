"""Smoke tests: every example script runs cleanly end to end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "5 supernodes, 6 superedges" in out
    assert "round-tripped" in out


def test_social_community_search():
    out = run_example("social_community_search.py", "--users", "3")
    assert "index built" in out
    assert "overlapping communit" in out


def test_protein_complex_detection():
    out = run_example("protein_complex_detection.py")
    assert "recovered" in out
    assert "verified against index-free" in out
    # the planted complexes are genuinely recoverable
    line = [l for l in out.splitlines() if l.startswith("recovered")][0]
    got = int(line.split()[1].split("/")[0])
    assert got >= 6


def test_dynamic_social_updates():
    out = run_example("dynamic_social_updates.py", "--steps", "4")
    assert "verified equal to a from-scratch rebuild" in out
    assert "affected" in out


def test_index_pipeline_scaling():
    out = run_example("index_pipeline_scaling.py", "--dataset", "amazon")
    assert "Per-kernel breakdown" in out
    assert "128-thread modeled speedups" in out


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
