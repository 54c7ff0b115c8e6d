"""Tests for the dynamic write-set race detector (repro.analysis.races).

The two seeded-bug tests are the acceptance criteria: a deliberately
overlapping partition kernel and a deliberate cross-worker stale read
must both fail loudly — including on a 1-core machine, where the tasks
never actually interleave. Shipped kernels must stay race-clean with
bit-identical results under tracking.
"""

import numpy as np
import pytest

import repro.analysis.races as races
from repro.analysis.races import TrackedArray, verify_task_accesses
from repro.errors import (
    PartitionOverlapError,
    SharedMemoryRaceError,
    StaleReadError,
)
from repro.parallel.context import ExecutionContext
from repro.parallel.shm import ProcessBackend, attach, process_backend_available

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)


@pytest.fixture
def tracking():
    races.reset_tracking()
    races.enable_tracking(True)
    yield
    races.reset_tracking()


# ----------------------------------------------------------------------
# module-level worker kernels (pickled by reference into the pool)
# ----------------------------------------------------------------------

def _w_disjoint(h, lo, hi):
    out = attach(h)
    out[lo:hi] = np.arange(lo, hi, dtype=np.int64)
    return hi - lo


def _w_overlapping(h, lo, hi):
    out = attach(h)
    out[0:hi] = 7  # bug: every task also stomps [0, lo)
    return hi


def _w_stale_read(h, lo, hi, rlo, rhi):
    out = attach(h)
    out[lo:hi] = out[rlo:rhi] + 1  # bug: reads the sibling's slice
    return hi - lo


def _w_read_shared_input(out_h, in_h, lo, hi):
    src = attach(in_h)
    out = attach(out_h)
    out[lo:hi] = src[:] .sum()  # all tasks read all of src: fine (read-only)
    return hi - lo


# ----------------------------------------------------------------------
# verify_task_accesses — pure interval logic, no processes involved
# ----------------------------------------------------------------------

def test_verify_disjoint_writes_pass():
    verify_task_accesses([
        [("seg", "w", 0, 64)],
        [("seg", "w", 64, 128)],
    ])


def test_verify_overlapping_writes_raise():
    with pytest.raises(PartitionOverlapError, match="workers 0 and 1"):
        verify_task_accesses([
            [("seg", "w", 0, 80)],
            [("seg", "w", 64, 128)],
        ])


def test_verify_cross_task_read_write_raises():
    with pytest.raises(StaleReadError, match="schedule-dependent"):
        verify_task_accesses([
            [("seg", "w", 0, 64), ("seg", "r", 64, 128)],
            [("seg", "w", 64, 128)],
        ])


def test_verify_own_slice_reads_and_shared_reads_pass():
    verify_task_accesses([
        [("out", "w", 0, 64), ("out", "r", 0, 64), ("in", "r", 0, 256)],
        [("out", "w", 64, 128), ("in", "r", 0, 256)],
    ])


def test_verify_skips_untracked_tasks():
    verify_task_accesses([None, [("seg", "w", 0, 64)], None])


def test_verify_distinct_segments_never_conflict():
    verify_task_accesses([
        [("a", "w", 0, 64)],
        [("b", "w", 0, 64)],
    ])


def test_race_errors_share_a_catchable_base():
    assert issubclass(PartitionOverlapError, SharedMemoryRaceError)
    assert issubclass(StaleReadError, SharedMemoryRaceError)


# ----------------------------------------------------------------------
# TrackedArray — access logging semantics
# ----------------------------------------------------------------------

def test_tracked_slice_write_logs_byte_range():
    arr = np.zeros(16, dtype=np.int64)
    t = TrackedArray.wrap(arr, "seg")
    races.drain_log()
    t[2:6] = 1
    log = races.drain_log()
    assert ("seg", "w", 16, 48) in log
    assert np.array_equal(arr[2:6], np.ones(4, dtype=np.int64))


def test_tracked_slice_read_logs_byte_range():
    t = TrackedArray.wrap(np.arange(16, dtype=np.int64), "seg")
    races.drain_log()
    _ = t[4:8]
    log = races.drain_log()
    assert ("seg", "r", 32, 64) in log


def test_tracked_views_stay_tracked():
    t = TrackedArray.wrap(np.zeros((4, 8), dtype=np.int64), "seg")
    races.drain_log()
    row = t[1]
    row[:] = 5
    log = races.drain_log()
    # the row write covers exactly bytes [64, 128) of the segment
    assert ("seg", "w", 64, 128) in log


def test_tracked_inplace_ufunc_logs_write_and_keeps_tracking():
    t = TrackedArray.wrap(np.zeros(8, dtype=np.int64), "seg")
    races.drain_log()
    t += 3
    assert isinstance(t, TrackedArray)  # rebind must not lose tracking
    log = races.drain_log()
    assert ("seg", "w", 0, 64) in log
    t[0:2] = 9
    assert ("seg", "w", 0, 16) in races.drain_log()


def test_tracked_copyto_logs_write():
    t = TrackedArray.wrap(np.zeros(8, dtype=np.int64), "seg")
    races.drain_log()
    np.copyto(t, np.arange(8, dtype=np.int64))
    log = races.drain_log()
    assert ("seg", "w", 0, 64) in log
    assert t.view(np.ndarray)[7] == 7


def test_tracking_toggle_controls_attach(tracking):
    assert races.tracking_enabled()
    races.enable_tracking(False)
    assert not races.tracking_enabled()


# ----------------------------------------------------------------------
# End-to-end through ProcessBackend.map_tasks
# ----------------------------------------------------------------------

@pytest.mark.process_backend
@needs_fork
def test_backend_disjoint_kernel_passes(tracking):
    be = ProcessBackend(min_items=0)
    try:
        view, h = be.pool.take("ok", 16, np.int64)
        view[:] = 0
        res = be.map_tasks(_w_disjoint, [(h, 0, 8), (h, 8, 16)])
        assert res == [8, 8]
        assert np.array_equal(view, np.arange(16, dtype=np.int64))
    finally:
        be.close()


@pytest.mark.process_backend
@needs_fork
def test_backend_catches_overlapping_partition(tracking):
    be = ProcessBackend(min_items=0)
    try:
        _view, h = be.pool.take("bad", 16, np.int64)
        with pytest.raises(PartitionOverlapError, match="partitions must be disjoint"):
            be.map_tasks(_w_overlapping, [(h, 0, 8), (h, 8, 16)])
    finally:
        be.close()


@pytest.mark.process_backend
@needs_fork
def test_backend_catches_stale_read(tracking):
    be = ProcessBackend(min_items=0)
    try:
        view, h = be.pool.take("stale", 16, np.int64)
        view[:] = 0
        with pytest.raises(StaleReadError, match="schedule-dependent"):
            be.map_tasks(_w_stale_read, [(h, 0, 8, 8, 16), (h, 8, 16, 0, 8)])
    finally:
        be.close()


@pytest.mark.process_backend
@needs_fork
def test_backend_shared_readonly_input_is_fine(tracking):
    be = ProcessBackend(min_items=0)
    try:
        out_view, out_h = be.pool.take("rout", 4, np.int64)
        out_view[:] = 0
        _in_view, in_h = be.pool.take("rin", 8, np.int64)
        _in_view[:] = 1
        be.map_tasks(
            _w_read_shared_input, [(out_h, in_h, 0, 2), (out_h, in_h, 2, 4)]
        )
        assert np.array_equal(out_view, np.full(4, 8, dtype=np.int64))
    finally:
        be.close()


def test_inline_fallback_detects_on_one_core(tracking, monkeypatch):
    """The detector needs no real interleaving: with the pool disabled the
    tasks run sequentially on the coordinator and the overlap still fails."""
    be = ProcessBackend(min_items=0)
    monkeypatch.setattr(ProcessBackend, "_ensure_executor", lambda self, n: None)
    try:
        with pytest.warns(RuntimeWarning, match="running tasks inline"):
            _view, h = be.pool.take("inline", 16, np.int64)
            with pytest.raises(PartitionOverlapError):
                be.map_tasks(_w_overlapping, [(h, 0, 8), (h, 8, 16)])
    finally:
        be.close()


def test_tracking_off_keeps_plain_views():
    races.reset_tracking()
    races.enable_tracking(False)
    be = ProcessBackend(min_items=0)
    try:
        _view, h = be.pool.take("plain", 8, np.int64)
        arr = attach(h)
        assert not isinstance(arr, TrackedArray)
    finally:
        be.close()
        races.reset_tracking()


# ----------------------------------------------------------------------
# Shipped kernels stay race-clean with bit-identical results
# ----------------------------------------------------------------------

@pytest.mark.process_backend
@needs_fork
def test_shipped_kernels_race_clean_and_bit_identical(tracking):
    from repro.equitruss.pipeline import build_index
    from repro.graph import CSRGraph
    from repro.graph.generators import barabasi_albert_graph

    graph = CSRGraph.from_edgelist(barabasi_albert_graph(150, 4, seed=3))

    def build(track):
        races.enable_tracking(track)
        be = ProcessBackend(min_items=1)
        ctx = ExecutionContext(backend=be, num_workers=2)
        try:
            return build_index(graph, ctx=ctx).index
        finally:
            ctx.close()

    plain = build(False)
    tracked = build(True)
    assert np.array_equal(plain.trussness, tracked.trussness)
    assert np.array_equal(plain.edge_supernode, tracked.edge_supernode)
    assert np.array_equal(plain.superedges, tracked.superedges)
