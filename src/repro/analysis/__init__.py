"""Static analysis and dynamic race detection for the kernel layer.

Two halves guard the invariants the process-backend speedup story rests
on (see ``docs/architecture.md``, "Static analysis & kernel contracts"):

* the **AST contract linter** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`, :mod:`repro.analysis.contracts`) —
  rules REP001 and REP003–REP005 over worker purity, ctx threading,
  span/metric hygiene, and key-dtype safety, plus the
  cross-layer serving/store contracts REP006–REP010 (async safety,
  wire-protocol / metric-catalogue / store-section conformance). Run
  it with ``python -m repro.analysis`` or ``repro lint``.
* the **write-set race detector** (:mod:`repro.analysis.races`) — an
  opt-in instrumented mode of the shared-memory backend that verifies
  the pairwise disjointness of worker write sets at reduce time.
* the **event-loop stall detector** (:mod:`repro.analysis.stall`) — an
  opt-in (``REPRO_LOOP_CHECK=1``) watchdog that times every serving
  event-loop callback and records (or, in strict mode, fails on) any
  that exceed the stall threshold — REP006's premise, checked live.
"""

from repro.analysis.engine import (
    Baseline,
    Finding,
    discover_files,
    run_lint,
)
from repro.analysis.races import (
    TrackedArray,
    enable_tracking,
    reset_tracking,
    tracking_enabled,
    verify_task_accesses,
)
from repro.analysis.rules import default_rules
from repro.analysis.stall import (
    LoopStall,
    LoopStallWatchdog,
    loop_check_enabled,
    loop_threshold_ms,
)

__all__ = [
    "Baseline",
    "Finding",
    "LoopStall",
    "LoopStallWatchdog",
    "TrackedArray",
    "default_rules",
    "discover_files",
    "enable_tracking",
    "loop_check_enabled",
    "loop_threshold_ms",
    "reset_tracking",
    "run_lint",
    "tracking_enabled",
    "verify_task_accesses",
]
