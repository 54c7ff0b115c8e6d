"""Wall-clock helper shared by the tier-1 floor tests."""

import sys
import time

#: Calls per measurement; the floor tests compare best-of-``REPEATS`` times.
REPEATS = 3


def best_of(fn, *args, repeats: int = REPEATS):
    """``(best seconds, last result)`` of ``fn(*args)`` over ``repeats`` calls."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def under_tracer() -> bool:
    """Whether a line tracer (coverage, a debugger) is timing along.

    Tracing slows interpreted code several times more than numpy work,
    so a wall-clock ratio between a Python-heavy path and a numpy-heavy
    one measures the tracer, not the program.
    """
    if sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python >= 3.12
    return (monitoring is not None
            and monitoring.get_tool(monitoring.COVERAGE_ID) is not None)
