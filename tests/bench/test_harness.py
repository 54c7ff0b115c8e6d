"""Unit tests for the benchmark harness pieces."""

import pytest

from repro.bench import ResultWriter, TextTable, bar_chart, get_workload, line_chart, run_variant
from repro.bench.paper import (
    FIG5_SPNODE_SPEEDUP,
    HEADLINE_SPEEDUP_RANGE,
    TABLE3_DATASETS,
    TABLE4_SERIAL_SECONDS,
    TABLE5,
)
from repro.equitruss.kernels import KernelBreakdown, SM_GRAPH, SP_EDGE, SP_NODE
from repro.obs.trace import Tracer


def test_text_table_render_and_csv(tmp_path):
    t = TextTable(["a", "b"], title="T")
    t.add_row(1, 2.5)
    t.add_row("x", 0.00012)
    text = t.render()
    assert "T" in text and "a" in text and "2.50" in text
    with pytest.raises(ValueError):
        t.add_row(1)
    p = tmp_path / "t.csv"
    t.to_csv(p)
    assert p.read_text().splitlines()[0] == "a,b"


def test_bar_chart():
    text = bar_chart(["x", "yy"], [1.0, 2.0], width=10, title="bars", unit="s")
    assert "bars" in text
    assert text.count("#") > 0
    assert "2s" in text or "2.0" in text or "2" in text
    with pytest.raises(ValueError):
        bar_chart(["x"], [1.0, 2.0])
    assert "(empty)" in bar_chart([], [])


def test_line_chart():
    text = line_chart([1, 2, 4], {"a": [4.0, 2.0, 1.0], "b": [8.0, 4.0, 2.0]},
                      title="lines", logy=True)
    assert "lines" in text
    assert "*=a" in text and "o=b" in text
    with pytest.raises(ValueError):
        line_chart([1, 2], {"a": [1.0]})


def test_result_writer(tmp_path):
    w = ResultWriter("exp", directory=tmp_path)
    w.add("section one")
    w.add(TextTable(["c"], title="t2"))
    path = w.write(echo=False)
    text = path.read_text()
    assert text.startswith("### exp ###")
    assert "section one" in text and "t2" in text


def test_workload_cache_and_run_variant():
    w1 = get_workload("amazon")
    w2 = get_workload("amazon")
    assert w1 is w2
    assert w1.num_edges == w1.graph.num_edges
    res = run_variant(w1, "coptimal")
    names = set(res.breakdown.seconds)
    assert "Support" not in names  # prereqs reused
    res2 = run_variant(w1, "coptimal", include_prereqs=True)
    names2 = set(res2.breakdown.seconds)
    assert "Support" in names2 and "TrussDecomp" in names2


def test_kernel_breakdown():
    tr = Tracer()
    for name, seconds in ((SP_NODE, 3.0), (SP_EDGE, 1.0), (SM_GRAPH, 1.0)):
        tr.add(name, seconds, work=1, rounds=1, intensity="mixed", parallel=True)
    bd = KernelBreakdown.from_trace(tr)
    assert bd.total == pytest.approx(5.0)
    assert bd.percentage(SP_NODE) == pytest.approx(60.0)
    assert bd.index_construction_seconds() == pytest.approx(5.0)
    rows = bd.rows()
    assert rows[0][0] == SP_NODE
    assert KernelBreakdown().percentage("x") == 0.0


def test_paper_constants_sane():
    assert set(TABLE3_DATASETS) == {
        "amazon", "dblp", "youtube", "livejournal", "orkut", "friendster"
    }
    for name, row in TABLE4_SERIAL_SECONDS.items():
        assert set(row) == {"baseline", "coptimal", "afforest", "original"}
    for name, row in TABLE5.items():
        for v in ("baseline", "coptimal", "afforest"):
            t1, t128, sp = row[v]
            assert sp == pytest.approx(t1 / t128, rel=0.05)
    for name, row in FIG5_SPNODE_SPEEDUP.items():
        assert row["afforest"] >= row["coptimal"] or name == "dblp"
    lo, hi = HEADLINE_SPEEDUP_RANGE
    assert lo < hi
