"""Parallel runtime substrate.

The paper's implementation is OpenMP/C++ on a 128-core Perlmutter node.
CPython (GIL, and a single core in this environment) cannot express that
directly, so this package provides three coordinated pieces:

* **ExecutionContext** (:mod:`repro.parallel.context`) — the one
  execution handle: backend, workers, dtype policy, workspace and the
  run's tracer. The backend is ``serial`` (every kernel's vectorized
  path on the calling thread) or ``process``. Every algorithm kernel
  wraps its parallel regions in ``ctx.region(...)`` spans recording
  measured seconds, the amount of parallelizable work, the number of
  barrier-synchronized rounds, and the region's arithmetic intensity
  class.
* **The process backend** (:mod:`repro.parallel.shm`) escapes the GIL:
  a persistent pool of forked workers operating on zero-copy
  ``multiprocessing.shared_memory`` arrays, fed by kernels ported to
  the partition → privatize → reduce shape of PKT.
* **SimulatedMachine** (:mod:`repro.parallel.simulate`) — converts the
  recorded region spans into predicted T(p) for a Perlmutter-like
  :class:`MachineProfile`, producing the strong-scaling and efficiency
  curves of the paper's Figures 6–9.
"""

from repro.parallel.context import DtypePolicy, ExecutionContext, Workspace
from repro.parallel.partition import block_ranges
from repro.parallel.shm import (
    ProcessBackend,
    SharedArrayPool,
    SharedHandle,
    process_backend_available,
)
from repro.parallel.simulate import MachineProfile, ScalingCurve, SimulatedMachine

__all__ = [
    "DtypePolicy",
    "ExecutionContext",
    "ProcessBackend",
    "SharedArrayPool",
    "SharedHandle",
    "Workspace",
    "MachineProfile",
    "ScalingCurve",
    "SimulatedMachine",
    "block_ranges",
    "process_backend_available",
]
