"""Unit tests for the event-loop stall detector (repro.analysis.stall).

The live end-to-end tests (seeded stall through a real FrontendThread)
live in ``tests/serve/test_frontend_stall.py``; here the watchdog is
driven against plain ``asyncio.run`` loops.
"""

import asyncio
import asyncio.events
import time

import pytest

from repro.analysis.stall import (
    DEFAULT_THRESHOLD_MS,
    LOOP_CHECK_ENV,
    LOOP_THRESHOLD_ENV,
    LoopStallWatchdog,
    loop_check_enabled,
    loop_check_strict,
    loop_threshold_ms,
    maybe_watchdog,
)
from repro.errors import LoopStallError
from repro.obs.metrics import MetricsRegistry, use_registry


def run_loop_with_watchdog(watchdog, blocking_s=0.0, spins=1):
    """Install inside a fresh loop, optionally block one callback."""

    async def scenario():
        watchdog.install()
        await asyncio.sleep(0)
        if blocking_s:
            time.sleep(blocking_s)
        for _ in range(spins):
            await asyncio.sleep(0)

    try:
        asyncio.run(scenario())
    finally:
        watchdog.uninstall()
    return watchdog


def test_blocking_callback_is_recorded(capsys):
    w = run_loop_with_watchdog(
        LoopStallWatchdog(threshold_ms=30.0), blocking_s=0.1
    )
    assert w.stalls
    assert w.stalls[0].elapsed_ms >= 30.0
    # the sampler usually catches the offender mid-block; when it does,
    # the stack names the blocking line
    stack = w.stalls[0].stack
    assert stack == "" or "time.sleep" in stack
    assert "ms in" in w.stalls[0].format()
    w.check()  # non-strict: recorded and reported, not fatal
    err = capsys.readouterr().err
    assert err.count("event loop stall: ") == len(w.stalls)
    assert w.stalls[0].format() in err


def test_strict_mode_raises_on_check():
    w = run_loop_with_watchdog(
        LoopStallWatchdog(threshold_ms=30.0, strict=True), blocking_s=0.1
    )
    with pytest.raises(LoopStallError, match="stalled"):
        w.check()


def test_busy_but_healthy_loop_is_silent():
    """Thousands of fast callbacks never trip the per-callback timer."""
    w = run_loop_with_watchdog(
        LoopStallWatchdog(threshold_ms=50.0, strict=True), spins=500
    )
    assert w.stalls == []
    w.check()


def test_stalls_observe_the_given_metric():
    registry = MetricsRegistry()
    w = LoopStallWatchdog(
        threshold_ms=20.0, metric="repro.serve.frontend.loop_stall_ms"
    )
    with use_registry(registry):
        run_loop_with_watchdog(w, blocking_s=0.08)
    assert w.stalls
    summary = registry.as_dict()["repro.serve.frontend.loop_stall_ms"]
    assert summary["count"] >= 1
    assert summary["max"] >= 20.0


def test_uninstall_restores_handle_run():
    orig = asyncio.events.Handle._run
    w = LoopStallWatchdog(threshold_ms=10.0).install()
    assert asyncio.events.Handle._run is not orig
    w.uninstall()
    assert asyncio.events.Handle._run is orig


def test_env_parsing(monkeypatch):
    monkeypatch.delenv(LOOP_CHECK_ENV, raising=False)
    monkeypatch.delenv(LOOP_THRESHOLD_ENV, raising=False)
    assert not loop_check_enabled()
    assert maybe_watchdog() is None
    assert loop_threshold_ms() == DEFAULT_THRESHOLD_MS
    for falsy in ("0", "false", "off", "no"):
        monkeypatch.setenv(LOOP_CHECK_ENV, falsy)
        assert not loop_check_enabled()
    monkeypatch.setenv(LOOP_CHECK_ENV, "1")
    assert loop_check_enabled() and not loop_check_strict()
    monkeypatch.setenv(LOOP_CHECK_ENV, "strict")
    assert loop_check_enabled() and loop_check_strict()
    monkeypatch.setenv(LOOP_THRESHOLD_ENV, "125")
    assert loop_threshold_ms() == 125.0
    monkeypatch.setenv(LOOP_THRESHOLD_ENV, "junk")
    assert loop_threshold_ms() == DEFAULT_THRESHOLD_MS
    monkeypatch.setenv(LOOP_THRESHOLD_ENV, "-5")
    assert loop_threshold_ms() == DEFAULT_THRESHOLD_MS


def test_maybe_watchdog_follows_the_env(monkeypatch):
    monkeypatch.setenv(LOOP_CHECK_ENV, "strict")
    monkeypatch.setenv(LOOP_THRESHOLD_ENV, "75")
    w = maybe_watchdog(metric="repro.serve.frontend.loop_stall_ms")
    assert w is not None
    try:
        assert w.strict
        assert w.threshold_ms == 75.0
        assert w.metric == "repro.serve.frontend.loop_stall_ms"
    finally:
        w.uninstall()
