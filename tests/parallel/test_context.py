"""Unit tests for the unified ExecutionContext, DtypePolicy, Workspace."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import DtypePolicy, ExecutionContext, Workspace
from repro.parallel.context import fits_int32, region_spans

I32_MAX = np.iinfo(np.int32).max


# ----------------------------------------------------------------------
# DtypePolicy
# ----------------------------------------------------------------------

def test_dtype_policy_resolve_auto():
    p = DtypePolicy("auto")
    assert p.resolve(10) == np.dtype(np.int32)
    assert p.resolve(I32_MAX) == np.dtype(np.int32)
    assert p.resolve(I32_MAX + 1) == np.dtype(np.int64)


def test_dtype_policy_forced():
    assert DtypePolicy("int64").resolve(3) == np.dtype(np.int64)
    assert DtypePolicy("int32").resolve(3) == np.dtype(np.int32)
    with pytest.raises(InvalidParameterError):
        DtypePolicy("int32").resolve(I32_MAX + 1)
    with pytest.raises(InvalidParameterError):
        DtypePolicy("int16")


def test_dtype_policy_of_normalizes():
    assert DtypePolicy.of(None).name == "auto"
    assert DtypePolicy.of("int32").name == "int32"
    p = DtypePolicy("int64")
    assert DtypePolicy.of(p) is p


def test_key_dtype_guards_product_not_ids():
    p = DtypePolicy("auto")
    # 46340^2 < 2^31: int32 keys are safe
    assert p.key_dtype(46340) == np.dtype(np.int32)
    # 46342^2 > 2^31: ids fit int32 but the u*N+v product wraps
    assert p.key_dtype(46342) == np.dtype(np.int64)
    assert DtypePolicy("int64").key_dtype(10) == np.dtype(np.int64)


def test_index_dtype_counts_slots():
    p = DtypePolicy("auto")
    assert p.index_dtype(100, 200) == np.dtype(np.int32)
    # 2|E| slots exceed int32 even though |V| fits
    assert p.index_dtype(100, (I32_MAX // 2) + 1) == np.dtype(np.int64)


def test_fits_int32():
    assert fits_int32(0) and fits_int32(I32_MAX)
    assert not fits_int32(I32_MAX + 1)
    assert not fits_int32(-1)


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------

def test_workspace_reuses_buffers():
    ws = Workspace()
    a = ws.take("x", 100, np.int32)
    assert a.size == 100 and a.dtype == np.int32
    b = ws.take("x", 50, np.int32)
    assert np.shares_memory(a, b)
    assert ws.current_bytes == 400
    c = ws.take("x", 200, np.int32)  # grow
    assert c.size == 200
    assert ws.high_water >= 800


def test_workspace_kinds_are_disjoint():
    ws = Workspace()
    a = ws.take("a", 10, np.int64)
    b = ws.take("b", 10, np.int64)
    assert not np.shares_memory(a, b)
    # same kind, different dtype -> distinct slot
    c = ws.take("a", 10, np.int32)
    assert not np.shares_memory(a, c)


def test_workspace_gather():
    ws = Workspace()
    vals = np.array([10, 20, 30, 40], dtype=np.int32)
    out = ws.gather("g", vals, np.array([3, 0, 2]))
    assert out.tolist() == [40, 10, 30]
    assert out.dtype == np.int32


def test_workspace_reset_keeps_high_water():
    ws = Workspace()
    ws.take("x", 1000, np.int64)
    hw = ws.high_water
    ws.reset()
    assert ws.current_bytes == 0
    assert ws.high_water == hw
    with pytest.raises(InvalidParameterError):
        ws.take("x", -1, np.int64)


# ----------------------------------------------------------------------
# ExecutionContext
# ----------------------------------------------------------------------

def test_ensure_accepts_only_none_or_a_context():
    ctx = ExecutionContext.ensure(None)
    assert isinstance(ctx, ExecutionContext)
    assert ExecutionContext.ensure(ctx) is ctx

    class PolicyLike:
        backend = "serial"
        num_workers = 1
        trace = None

    class HandleLike:
        def add_round(self, work):
            pass

    # duck-typed look-alikes are rejected, not adapted
    for obj in (PolicyLike(), HandleLike(), 42):
        with pytest.raises(InvalidParameterError):
            ExecutionContext.ensure(obj)


def test_region_nesting_routes_add_round():
    ctx = ExecutionContext()
    with ctx.region("Outer", work=0, rounds=0):
        with ctx.region("Inner", work=0, rounds=0):
            ctx.add_round(5)
        ctx.add_round(3)
    by_name = {r.name: r.attrs for r in region_spans(ctx.tracer)}
    assert by_name["Inner"]["work"] == 5
    assert by_name["Outer"]["work"] == 3
    # no open region: a silent no-op
    ctx.add_round(100)


def test_region_records_ws_peak_attr():
    ctx = ExecutionContext()
    with ctx.region("R", work=1):
        ctx.workspace.take("x", 128, np.int64)
    spans = [sp for sp, _ in ctx.tracer.walk()]
    assert spans[0].attrs["ws_peak"] >= 128 * 8


def test_with_dtype_and_dtype_helpers():
    ctx = ExecutionContext(dtype="auto")
    assert ctx.edge_dtype(1000) == np.dtype(np.int32)
    assert ctx.index_dtype(1000, 5000) == np.dtype(np.int32)
    wide = ctx.with_dtype("int64")
    assert wide.edge_dtype(1000) == np.dtype(np.int64)
    assert wide.tracer is ctx.tracer  # shares observability
    assert ctx.dtype.name == "auto"  # original untouched


def test_context_validates_workers():
    with pytest.raises(InvalidParameterError):
        ExecutionContext(num_workers=0)


# ----------------------------------------------------------------------
# Workspace high-water: int32 builds use ~half the scratch of int64
# ----------------------------------------------------------------------

def test_build_index_workspace_high_water_reduction():
    from repro.equitruss import build_index

    edges = erdos_renyi_gnm(400, 2600, seed=11)

    peaks = {}
    indexes = {}
    for name in ("auto", "int64"):
        ctx = ExecutionContext(dtype=name)
        g = CSRGraph.from_edgelist(edges, ctx=ctx)
        result = build_index(g, "coptimal", ctx=ctx)
        peaks[name] = ctx.workspace.high_water
        indexes[name] = result.index
    assert indexes["auto"] == indexes["int64"]
    assert peaks["auto"] > 0
    reduction = 1.0 - peaks["auto"] / peaks["int64"]
    assert reduction >= 0.40, f"only {reduction:.1%} workspace reduction"
