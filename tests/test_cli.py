"""End-to-end CLI tests (generate → index → query → info).

``index --out`` writes the ``.eqtsidx`` store; every other command
reads that one file.
"""

import pytest

from repro.cli import main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_generate_index_query_info_roundtrip(tmp_path, capsys):
    graph_path = tmp_path / "g.npz"
    index_path = tmp_path / "g.eqtsidx"

    assert main(["generate", "gnm", "--n", "60", "--m", "280",
                 "--seed", "4", "--out", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote 60 vertices / 280 edges" in out

    assert main(["index", str(graph_path), "--out", str(index_path),
                 "--variant", "coptimal", "--breakdown"]) == 0
    out = capsys.readouterr().out
    assert "built coptimal index" in out
    assert "wrote store (gen 1, " in out and str(index_path) in out
    assert "SpNode" in out

    assert main(["query", str(index_path), "--vertex", "0", "--max-k"]) == 0
    capsys.readouterr()

    assert main(["query", str(index_path), "--vertex", "0", "--top-r", "2"]) == 0
    capsys.readouterr()

    text_path = tmp_path / "g.txt"  # the same graph as SNAP text
    assert main(["generate", "gnm", "--n", "60", "--m", "280",
                 "--seed", "4", "--out", str(text_path)]) == 0
    capsys.readouterr()
    for path in (graph_path, text_path):
        assert main(["info", str(path)]) == 0
        assert "graph: 60 vertices, 280 edges" in capsys.readouterr().out

    # a store is recognised by its magic bytes, whatever its suffix
    renamed = tmp_path / "store.npz"
    renamed.write_bytes(index_path.read_bytes())
    for path in (index_path, renamed):
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "EquiTruss index over 60 vertices / 280 edges" in out
        assert "num_supernodes" in out


def test_verify_subcommand(tmp_path, capsys):
    from repro.equitruss import build_index
    from repro.graph.io import load_graph
    from repro.store import write_store

    graph_path = tmp_path / "g.npz"
    index_path = tmp_path / "i.eqtsidx"
    main(["generate", "gnm", "--n", "40", "--m", "180", "--seed", "2",
          "--out", str(graph_path)])
    main(["index", str(graph_path), "--out", str(index_path)])
    capsys.readouterr()
    assert main(["verify", str(index_path)]) == 0
    assert "OK" in capsys.readouterr().out
    # drop the last superedge; write_store persists the index unvalidated
    idx = build_index(load_graph(graph_path)).index
    assert idx.superedges.shape[0]
    idx.superedges = idx.superedges[:-1]
    write_store(idx, index_path)
    assert main(["verify", str(index_path)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_generate_dataset_and_text_format(tmp_path, capsys):
    out = tmp_path / "amazon.txt"
    assert main(["generate", "amazon", "--scale-factor", "0.5",
                 "--out", str(out)]) == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith("#")


def test_generate_rmat(tmp_path, capsys):
    out = tmp_path / "r.npz"
    assert main(["generate", "rmat", "--scale", "7", "--edge-factor", "4",
                 "--out", str(out)]) == 0
    from repro.graph.io import load_npz

    edges = load_npz(out)
    assert edges.num_vertices == 128


def test_generate_unknown_model(tmp_path, capsys):
    assert main(["generate", "nope", "--out", str(tmp_path / "x.npz")]) == 2


def test_query_requires_level(tmp_path, capsys):
    graph_path = tmp_path / "g.npz"
    index_path = tmp_path / "i.eqtsidx"
    main(["generate", "gnm", "--n", "20", "--m", "60", "--out", str(graph_path)])
    main(["index", str(graph_path), "--out", str(index_path)])
    capsys.readouterr()
    assert main(["query", str(index_path), "--vertex", "0"]) == 2


def test_index_context_flags_and_trace_memory(tmp_path, capsys):
    """--dtype/--backend/--workers on index, ws column in info --trace."""
    graph_path = tmp_path / "g.npz"
    trace_path = tmp_path / "run.trace.jsonl"
    main(["generate", "gnm", "--n", "50", "--m", "240", "--seed", "7",
          "--out", str(graph_path)])
    capsys.readouterr()

    outs = {}
    for dtype in ("auto", "int32", "int64"):
        index_path = tmp_path / f"i-{dtype}.eqtsidx"
        assert main(["index", str(graph_path), "--out", str(index_path),
                     "--dtype", dtype, "--backend", "process", "--workers", "2",
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "peak workspace" in out
        outs[dtype] = out
    assert "dtype=int32" in outs["auto"]
    assert "dtype=int64" in outs["int64"]

    # the three builds agree bit-for-bit
    from repro.store import attach_store

    stores = {d: attach_store(tmp_path / f"i-{d}.eqtsidx")
              for d in ("auto", "int32", "int64")}
    assert stores["auto"].index == stores["int64"].index == stores["int32"].index
    for store in stores.values():
        store.close()

    # the exported trace carries per-kernel workspace peaks
    assert main(["info", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "ws=" in out

    assert main(["verify", str(tmp_path / "i-auto.eqtsidx"), "--dtype", "int32"]) == 0
    assert "OK" in capsys.readouterr().out

    # the backend choices are serial and process only
    with pytest.raises(SystemExit) as exc:
        main(["index", str(graph_path), "--out", str(tmp_path / "t.eqtsidx"),
              "--backend", "thread"])
    assert exc.value.code == 2


def test_query_specific_k(tmp_path, capsys):
    graph_path = tmp_path / "g.npz"
    index_path = tmp_path / "i.eqtsidx"
    main(["generate", "gnm", "--n", "30", "--m", "160", "--seed", "1",
          "--out", str(graph_path)])
    main(["index", str(graph_path), "--out", str(index_path)])
    capsys.readouterr()
    assert main(["query", str(index_path), "--vertex", "0", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "k=3" in out or "no community" in out


@pytest.fixture()
def indexed_graph(tmp_path):
    graph_path = tmp_path / "g.npz"
    index_path = tmp_path / "g.eqtsidx"
    main(["generate", "gnm", "--n", "60", "--m", "280", "--seed", "4",
          "--out", str(graph_path)])
    main(["index", str(graph_path), "--out", str(index_path)])
    return index_path


def test_query_components_engine_single_vertex(indexed_graph, capsys):
    capsys.readouterr()
    assert main(["query", str(indexed_graph), "--vertex", "0", "--k", "3",
                 "--engine", "components"]) == 0
    out = capsys.readouterr().out
    assert "cache: 0 hits / 1 misses" in out


def test_query_engines_agree(indexed_graph, capsys):
    capsys.readouterr()
    assert main(["query", str(indexed_graph), "--vertex", "0", "--k", "3",
                 "--engine", "bfs"]) == 0
    bfs_out = capsys.readouterr().out
    assert main(["query", str(indexed_graph), "--vertex", "0", "--k", "3",
                 "--engine", "components"]) == 0
    comp_out = capsys.readouterr().out
    bfs_lines = [ln for ln in bfs_out.splitlines() if ln.startswith("[")]
    comp_lines = [ln for ln in comp_out.splitlines() if ln.startswith("[")]
    assert bfs_lines == comp_lines


@pytest.mark.parametrize("engine", ["bfs", "components"])
def test_query_batch_file(indexed_graph, tmp_path, capsys, engine):
    batch = tmp_path / "batch.txt"
    batch.write_text("0\n5 3\n12 4\n# comment\n\n7\n")
    capsys.readouterr()
    assert main(["query", str(indexed_graph), "--batch-file", str(batch),
                 "--k", "3", "--engine", engine]) == 0
    out = capsys.readouterr().out
    assert "vertex 5 k=3:" in out
    assert "vertex 12 k=4:" in out
    assert "served 4 queries" in out and f"engine={engine}" in out


def test_query_batch_results_identical_across_engines(indexed_graph, tmp_path, capsys):
    single_k = tmp_path / "batch.txt"
    single_k.write_text("".join(f"{v}\n" for v in range(0, 60, 3)))
    # several k values interleaved, and vertices repeated within and
    # across k: answers must still come back in request order
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("".join(
        f"{v} {k}\n" for v, k in [
            (0, 4), (5, 3), (0, 3), (12, 5), (5, 3), (7, 4), (0, 4), (12, 3),
            (33, 5), (7, 4), (5, 5), (0, 3),
        ]
    ))
    for batch, requests in ((single_k, 20), (mixed, 12)):
        outputs = {}
        for engine in ("bfs", "components"):
            capsys.readouterr()
            assert main(["query", str(indexed_graph), "--batch-file", str(batch),
                         "--k", "3", "--engine", engine]) == 0
            outputs[engine] = [
                ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("vertex ")
            ]
        assert len(outputs["bfs"]) == requests
        assert outputs["bfs"] == outputs["components"]


def test_query_warm_cache_and_trace_out(indexed_graph, tmp_path, capsys):
    from repro.obs.export import read_trace_jsonl

    trace = tmp_path / "trace.jsonl"
    capsys.readouterr()
    assert main(["query", str(indexed_graph), "--vertex", "0", "--k", "3",
                 "--engine", "components", "--warm-cache",
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "warmed" in out
    names = {rec["name"] for rec in read_trace_jsonl(trace)}
    assert "Query" in names
    # the engine serves from the component tables the store carries, so
    # the query run does no component sweep of its own
    assert "PrecomputeComponents" not in names


def test_query_bfs_trace_has_query_spans(indexed_graph, tmp_path, capsys):
    from repro.obs.export import read_trace_jsonl

    trace = tmp_path / "trace.jsonl"
    assert main(["query", str(indexed_graph), "--vertex", "0", "--k", "3",
                 "--engine", "bfs", "--trace-out", str(trace)]) == 0
    capsys.readouterr()
    assert "Query" in {rec["name"] for rec in read_trace_jsonl(trace)}


def test_query_flag_validation(indexed_graph, tmp_path, capsys):
    # components engine rejects --max-k / --top-r
    assert main(["query", str(indexed_graph), "--vertex", "0", "--max-k",
                 "--engine", "components"]) == 2
    # --batch-file and --vertex are exclusive
    batch = tmp_path / "b.txt"
    batch.write_text("0\n")
    assert main(["query", str(indexed_graph), "--vertex", "0",
                 "--batch-file", str(batch)]) == 2
    # neither --vertex nor --batch-file
    assert main(["query", str(indexed_graph), "--k", "3"]) == 2
    # batch line without k and no --k default
    bad = tmp_path / "bad.txt"
    bad.write_text("0\n")
    assert main(["query", str(indexed_graph), "--batch-file", str(bad)]) == 2
    # malformed batch line
    bad.write_text("0 3 9\n")
    assert main(["query", str(indexed_graph), "--batch-file", str(bad),
                 "--k", "3"]) == 2
    capsys.readouterr()


def test_store_write_attach_inspect_verify_roundtrip(tmp_path, capsys):
    graph_path = tmp_path / "g.npz"
    store_path = tmp_path / "g.eqtsidx"

    assert main(["generate", "gnm", "--n", "80", "--m", "500",
                 "--seed", "6", "--out", str(graph_path)]) == 0
    capsys.readouterr()

    assert main(["index", str(graph_path), "--out", str(store_path),
                 "--store-generation", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote store (gen 3" in out
    assert store_path.exists()

    assert main(["store", "inspect", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "generation 3" in out
    assert "index.trussness" in out

    assert main(["store", "inspect", str(store_path), "--json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["generation"] == 3 and doc["has_components"]

    assert main(["store", "verify", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out

    assert main(["attach", str(store_path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "attached" in out and "gen 3" in out
    assert "stored component tables" in out

    assert main(["attach", str(store_path), "--refresh"]) == 0
    out = capsys.readouterr().out
    assert "up to date" in out or "journal" in out or "re-attached" in out


@pytest.fixture()
def bad_inputs(tmp_path):
    """Paths the failure cases name: missing, foreign and garbage files."""
    paths = {
        "missing": tmp_path / "missing.eqtsidx",
        "text_graph": tmp_path / "g.txt",
        "bad_text": tmp_path / "bad.txt",
        "bad_npz": tmp_path / "bad.npz",
        "garbage": tmp_path / "bogus.eqtsidx",
        "out": tmp_path / "out.eqtsidx",
    }
    assert main(["generate", "gnm", "--n", "20", "--m", "60",
                 "--out", str(paths["text_graph"])]) == 0
    paths["bad_text"].write_text("0 1\n1 x\n")
    paths["bad_npz"].write_bytes(b"not an archive\n")
    paths["garbage"].write_bytes(b"NOTASTOR" + b"\xff" * 64)  # not UTF-8 either
    return {name: str(p) for name, p in paths.items()}


@pytest.mark.parametrize("argv", [
    ["query", "{missing}", "--vertex", "0", "--k", "3"],
    ["verify", "{missing}"],
    ["info", "{missing}"],
    ["verify", "{text_graph}"],
    ["index", "{missing}", "--out", "{out}"],
    ["index", "{bad_text}", "--out", "{out}"],
    ["index", "{bad_npz}", "--out", "{out}"],
    ["index", "{garbage}", "--out", "{out}"],
    ["attach", "{garbage}"],
    ["store", "inspect", "{garbage}"],
    ["store", "verify", "{garbage}"],
], ids=lambda argv: "-".join(a.strip("{}") for a in argv[:3] if a[0] != "-"))
def test_failures_exit_1_with_failed_message(argv, bad_inputs, capsys):
    capsys.readouterr()
    assert main([a.format(**bad_inputs) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAILED: ")
    assert "Traceback" not in err


def test_serve_and_loadgen_roundtrip(tmp_path, capsys):
    import json
    import threading
    import time

    graph_path = tmp_path / "g.npz"
    store_path = tmp_path / "g.eqtsidx"
    endpoint = tmp_path / "endpoint.txt"
    assert main(["generate", "gnm", "--n", "60", "--m", "320",
                 "--seed", "9", "--out", str(graph_path)]) == 0
    assert main(["index", str(graph_path), "--out", str(store_path)]) == 0
    capsys.readouterr()

    rc = {}
    server = threading.Thread(
        target=lambda: rc.setdefault("serve", main(
            ["serve", str(store_path), "--shards", "2", "--duration", "15",
             "--endpoint-file", str(endpoint)]
        )),
        daemon=True,
    )
    server.start()
    deadline = time.time() + 30
    while not endpoint.exists() and time.time() < deadline:
        time.sleep(0.05)
    assert endpoint.exists(), "serve never wrote its endpoint file"
    host, port = endpoint.read_text().split()
    capsys.readouterr()  # drain the serve thread's startup banner

    assert main(["loadgen", "--host", host, "--port", port,
                 "--mode", "closed", "--clients", "2", "--seconds", "1",
                 "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["mode"] == "closed" and report["ok"] > 0
    assert report["p99_ms"] is not None

    assert main(["loadgen", "--host", host, "--port", port,
                 "--mode", "open", "--rate", "40", "--seconds", "1"]) == 0
    out = capsys.readouterr().out
    assert "open load" in out and "qps achieved" in out

    # flag validation + unreachable frontend are typed failures
    assert main(["loadgen", "--host", host, "--port", port,
                 "--mode", "open"]) == 2
    assert main(["loadgen", "--host", "127.0.0.1", "--port", "1",
                 "--mode", "closed", "--seconds", "0.2"]) == 1
    server.join(timeout=60)
    assert rc.get("serve") == 0
