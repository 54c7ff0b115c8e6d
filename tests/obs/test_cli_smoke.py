"""End-to-end observability smoke test.

Mirrors the acceptance criterion: ``python -m repro index`` on a small
RMAT graph with ``--trace-out``/``--metrics-out`` must produce a JSONL
trace covering all six paper kernels and a metrics JSON with at least 8
distinct names, and both files round-trip through the schema
validators.
"""

import pytest

from repro.cli import main
from repro.equitruss.kernels import KERNELS
from repro.obs.export import read_metrics_json, read_trace_jsonl, write_trace_jsonl
from repro.obs.manifest import read_manifest


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs_smoke")
    graph = tmp / "g.npz"
    assert main(["generate", "rmat", "--scale", "7", "--edge-factor", "8",
                 "--seed", "3", "--out", str(graph)]) == 0
    trace = tmp / "t.jsonl"
    metrics = tmp / "m.json"
    assert main(["index", str(graph), "--variant", "afforest",
                 "--out", str(tmp / "i.eqtsidx"),
                 "--trace-out", str(trace), "--metrics-out", str(metrics)]) == 0
    return trace, metrics


def test_trace_covers_all_six_paper_kernels(run_artifacts):
    trace, _ = run_artifacts
    spans = read_trace_jsonl(trace)  # read_* validates the schema
    names = {r["name"] for r in spans}
    assert set(KERNELS) <= names, f"missing kernels: {set(KERNELS) - names}"
    # hierarchy: per-level wrapper spans carry the k attribute
    level_ks = [r["attrs"]["k"] for r in spans if r["name"] == "Level"]
    assert level_ks == sorted(level_ks) and len(level_ks) >= 1
    # index --out persists the store after the build: a second root
    roots = [r for r in spans if r["parent"] is None]
    assert [r["name"] for r in roots] == ["BuildIndex", "StoreWrite"]


def test_metrics_snapshot_has_enough_distinct_names(run_artifacts):
    _, metrics = run_artifacts
    loaded = read_metrics_json(metrics)
    assert len(loaded) >= 8
    assert all(name.startswith("repro.") for name in loaded)
    assert loaded["repro.pipeline.builds"] == 1
    assert loaded["repro.equitruss.supernodes"] > 0
    assert loaded["repro.truss.kmax"] >= 3


def test_info_trace_prints_breakdown(run_artifacts, capsys):
    trace, _ = run_artifacts
    assert main(["info", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    for kernel in KERNELS:
        assert kernel in out
    assert main(["info", "--trace", str(trace), "--flame"]) == 0
    out = capsys.readouterr().out
    assert "BuildIndex" in out and "Level" in out


def test_info_without_file_or_trace_errors(capsys):
    assert main(["info"]) == 2
    assert "required" in capsys.readouterr().err


def test_info_trace_degrades_gracefully_on_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["info", "--trace", str(empty), "--flame"]) == 0
    assert "empty trace" in capsys.readouterr().out


def test_info_trace_degrades_gracefully_on_span_free_file(tmp_path, capsys):
    from repro.obs.trace import Tracer

    trace = tmp_path / "spanless.jsonl"
    write_trace_jsonl(Tracer(), trace)  # meta line only, zero spans
    assert main(["info", "--trace", str(trace), "--flame"]) == 0
    assert "no spans" in capsys.readouterr().out


def test_index_writes_prometheus_and_manifest(tmp_path):
    graph = tmp_path / "g.npz"
    assert main(["generate", "gnm", "--n", "60", "--m", "240",
                 "--seed", "1", "--out", str(graph)]) == 0
    trace = tmp_path / "t.jsonl"
    prom = tmp_path / "metrics.prom"
    assert main(["index", str(graph), "--out", str(tmp_path / "i.eqtsidx"),
                 "--trace-out", str(trace), "--prom-out", str(prom)]) == 0
    text = prom.read_text(encoding="utf-8")
    assert "# TYPE repro_pipeline_builds counter" in text
    assert "repro_pipeline_builds 1" in text
    # the manifest is written automatically next to the trace
    manifest = read_manifest(f"{trace}.manifest.json")
    assert manifest["dataset"]["name"] == str(graph)
    assert manifest["execution"]["backend"] == "serial"
    assert manifest["extra"]["command"] == "index"
