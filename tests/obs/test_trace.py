"""Span tracer: nesting, attributes, aggregation, ambient helpers."""

import pytest

from repro.obs.trace import Tracer, current_tracer, use_tracer


def test_nested_spans_form_a_tree():
    tracer = Tracer()
    with tracer.span("outer", variant="x") as outer:
        with tracer.span("inner_a") as a:
            pass
        with tracer.span("inner_b"):
            pass
    assert [r.name for r in tracer.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
    assert outer.attrs == {"variant": "x"}
    assert a.seconds >= 0.0
    assert outer.seconds >= a.seconds


def test_walk_depth_first_with_depths():
    tracer = Tracer()
    with tracer.span("r1"):
        with tracer.span("c1"):
            with tracer.span("g1"):
                pass
    with tracer.span("r2"):
        pass
    walked = [(sp.name, d) for sp, d in tracer.walk()]
    assert walked == [("r1", 0), ("c1", 1), ("g1", 2), ("r2", 0)]
    assert len(tracer) == 4


def test_set_attrs_and_self_seconds():
    tracer = Tracer()
    with tracer.span("k") as sp:
        sp.set(work=10, rounds=2)
    assert sp.attrs == {"work": 10, "rounds": 2}
    assert 0.0 <= sp.self_seconds <= sp.seconds


def test_add_synthetic_span_nests_under_open_span():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        tracer.add("child", 0.5, kind="synthetic")
    assert parent.children[0].name == "child"
    assert parent.children[0].seconds == 0.5
    assert tracer.add("root_level", 0.25) in tracer.roots


def test_by_name_first_seen_order_and_filter():
    tracer = Tracer()
    tracer.add("b", 1.0)
    tracer.add("a", 2.0)
    tracer.add("b", 3.0)
    assert list(tracer.by_name()) == ["b", "a"]
    assert tracer.by_name()["b"] == pytest.approx(4.0)
    assert tracer.by_name(names=["a"]) == {"a": 2.0}


def test_end_closes_dangling_children():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("forgotten")
    tracer.end(outer)  # closes 'forgotten' too
    assert tracer.roots[0].children[0].seconds >= 0.0
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_span_records_on_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("x")
    assert tracer.roots[0].name == "boom"
    assert tracer.roots[0].seconds >= 0.0


def test_graft_adopts_roots():
    a, b = Tracer(), Tracer()
    b.add("other", 1.0)
    a.graft(b)
    assert [r.name for r in a.roots] == ["other"]


def test_ambient_tracer_helpers():
    assert current_tracer() is None
    outer, inner = Tracer(), Tracer()
    with use_tracer(outer):
        assert current_tracer() is outer
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer  # nesting restores the previous one
    assert current_tracer() is None
