"""Build-path kernel benchmark: fused Init, TrussDecomp, end to end.

Same-run, same-host measurement of the build-path kernels:

* **Init** — the legacy two-key-sort CSR build (``_from_edgelist_keyed``,
  kept as the in-process oracle) vs the fused single-pass build
  (``CSRGraph.from_edgelist``) vs the sort-free rebuild from a cached
  ``edge_order`` permutation;
* **TrussDecomp** — the level-synchronous peeler, serial, checked
  against the cached decomposition;
* **end-to-end** — ``build_index`` under the serial and process
  backends with balanced partitions.

Every pair is asserted bit-identical before it is timed, and the
**serial floor guard** fails the run if the fused Init is more than 20%
slower than the keyed build it replaced — a same-run comparison, so
host-speed drift between CI runs cannot mask (or fake) a regression. The ≥2× process
speedup assertion arms only on hosts with ``cpu_count >= 4``; on
smaller boxes the process rows measure IPC overhead, not scaling, and
the snapshot says so via ``host.cpu_count``.

Results land in the schema-validated ``benchmarks/results/BENCH_pr9.json``
with a run-provenance manifest; when ``BENCH_pr4.json`` is present its
Orkut-stand-in serial Init/TrussDecomp seconds are recorded alongside
for the cross-PR trajectory (informative, not asserted — different
hosts).

Usage::

    PYTHONPATH=src python benchmarks/bench_build_path.py \
        [--smoke] [--out PATH] [--workers N] [--dataset NAME]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

#: New-vs-legacy serial wall-clock ceiling enforced by the floor guard.
SERIAL_FLOOR_RATIO = 1.20


def _best_of(fn, reps: int):
    """(best seconds, last result) over ``reps`` repetitions."""
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return best, out


def _same_csr(a, b) -> bool:
    import numpy as np

    return (
        np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr))
        and np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
        and np.array_equal(np.asarray(a.edge_ids), np.asarray(b.edge_ids))
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="snapshot path (default benchmarks/results/BENCH_pr9.json)")
    parser.add_argument("--dataset", default="orkut",
                        help="workload stand-in (default: orkut, the Fig. 6 sweep graph)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--smoke", action="store_true",
                        help="single repetition per kernel (CI)")
    args = parser.parse_args(argv)
    reps = 1 if args.smoke else 3

    import numpy as np

    from repro.bench import get_workload
    from repro.bench.snapshot import PerfSnapshot, load_snapshot
    from repro.equitruss.pipeline import build_index
    from repro.graph.csr import CSRGraph, _from_edgelist_keyed
    from repro.obs.manifest import collect_manifest
    from repro.parallel.context import ExecutionContext
    from repro.parallel.shm import ProcessBackend, process_backend_available
    from repro.truss.decompose import truss_decomposition

    w = get_workload(args.dataset)
    edges = w.graph.edges
    print(f"{args.dataset} stand-in: {w.num_vertices} vertices / "
          f"{w.num_edges} edges / {w.triangles.count} triangles")
    failures: list[str] = []

    # ---- Init: keyed (legacy) vs fused vs fused with cached edge_order
    t_keyed, g_keyed = _best_of(lambda: _from_edgelist_keyed(edges), reps)
    t_fused, g_fused = _best_of(lambda: CSRGraph.from_edgelist(edges), reps)
    order = g_fused.edge_sort_order()
    t_cached, g_cached = _best_of(
        lambda: CSRGraph.from_edgelist(edges, edge_order=order), reps
    )
    if not (_same_csr(g_keyed, g_fused) and _same_csr(g_keyed, g_cached)):
        failures.append("fused Init differs from the keyed oracle")
    if t_fused > t_keyed * SERIAL_FLOOR_RATIO:
        failures.append(
            f"serial floor: fused Init {t_fused:.3f}s > "
            f"{SERIAL_FLOOR_RATIO}x keyed {t_keyed:.3f}s"
        )
    print(f"Init: keyed {t_keyed:.3f}s, fused {t_fused:.3f}s "
          f"({t_keyed / t_fused:.2f}x), cached-order {t_cached:.3f}s "
          f"({t_keyed / t_cached:.2f}x)")

    # ---- TrussDecomp: the vectorized peeler must match the serial
    # reference's trussness; its time is recorded, not compared
    t_peel, d_peel = _best_of(
        lambda: truss_decomposition(w.graph, triangles=w.triangles), reps
    )
    if not np.array_equal(d_peel.trussness, w.decomp.trussness):
        failures.append("TrussDecomp differs from the cached decomposition")
    print(f"TrussDecomp: {t_peel:.3f}s ({d_peel.level_scans} level scans, "
          f"{d_peel.peel_rounds} rounds)")

    # ---- end-to-end under the new defaults
    def _e2e(backend, workers):
        with ExecutionContext(backend=backend, num_workers=workers) as ctx:
            t0 = time.perf_counter()
            res = build_index(w.graph, "afforest", ctx=ctx, num_workers=workers)
            elapsed = time.perf_counter() - t0
            return elapsed, res, ctx

    t_serial, res_serial, _ = _e2e("serial", 1)
    t_process = res_process = None
    proc_ctx = None
    if process_backend_available():
        backend = ProcessBackend(min_items=0)
        t_process, res_process, proc_ctx = _e2e(backend, args.workers)
        if not (res_serial.index == res_process.index):
            failures.append("process-backend index differs from serial")
    cpu = os.cpu_count() or 1
    speedup = (t_serial / t_process) if t_process else None
    if t_process is not None:
        print(f"end-to-end afforest: serial {t_serial:.3f}s, "
              f"process[{args.workers}] {t_process:.3f}s "
              f"({speedup:.2f}x, cpu_count={cpu})")
        if cpu >= 4 and speedup < 2.0:
            # the acceptance bar: real multicore hosts must see real scaling
            failures.append(
                f"process speedup {speedup:.2f}x < 2.0x on a {cpu}-core host"
            )
    else:
        print(f"end-to-end afforest: serial {t_serial:.3f}s "
              f"(process backend unavailable)")

    # ---- snapshot
    snap = PerfSnapshot("pr9", path=args.out)
    snap.add_run("build_path_init", args.dataset, "keyed", "serial", 1,
                 t_keyed, mode="measured")
    snap.add_run("build_path_init", args.dataset, "fused", "serial", 1,
                 t_fused, mode="measured")
    snap.add_run("build_path_init", args.dataset, "fused_cached_order",
                 "serial", 1, t_cached, mode="measured")
    snap.add_run("build_path_peel", args.dataset, "scan", "serial", 1,
                 t_peel, mode="measured", level_scans=int(d_peel.level_scans))
    snap.add_run("build_path_e2e", args.dataset, "afforest", "serial", 1,
                 t_serial, mode="measured",
                 kernels=res_serial.breakdown.seconds)
    if t_process is not None:
        snap.add_run("build_path_e2e", args.dataset, "afforest", "process",
                     args.workers, t_process, mode="measured",
                     kernels=res_process.breakdown.seconds,
                     identical_to_serial="process-backend index differs "
                     "from serial" not in failures)
    snap.derive("pr9.init_speedup_fused_vs_keyed", t_keyed / t_fused)
    snap.derive("pr9.init_speedup_cached_vs_keyed", t_keyed / t_cached)
    snap.derive("pr9.serial_floor_ok",
                not any(f.startswith("serial floor") for f in failures))
    snap.derive("pr9.outputs_bit_identical",
                not any("differs" in f for f in failures))
    if speedup is not None:
        snap.derive("pr9.process_speedup_vs_serial", speedup)
        snap.derive("pr9.speedup_assert_armed", cpu >= 4)
    sk = res_serial.breakdown.seconds
    snap.derive("pr9.serial_init_plus_trussdecomp_seconds",
                float(sk.get("Init", 0.0) + sk.get("TrussDecomp", 0.0)))

    # cross-PR trajectory: the PR 4 sweep's serial Init/TrussDecomp on
    # the same stand-in (informative only — measured on another host)
    pr4_path = Path(__file__).resolve().parent / "results" / "BENCH_pr4.json"
    if pr4_path.exists():
        try:
            pr4 = json.loads(pr4_path.read_text(encoding="utf-8"))
            for run in pr4.get("runs", []):
                if (
                    run.get("experiment") == "fig6_backend_sweep"
                    and run.get("dataset") == args.dataset
                    and run.get("backend") == "serial"
                    and run.get("kernels")
                ):
                    snap.derive("pr9.pr4_serial_init_seconds",
                                run["kernels"].get("Init"))
                    snap.derive("pr9.pr4_serial_trussdecomp_seconds",
                                run["kernels"].get("TrussDecomp"))
        except (ValueError, OSError):
            pass

    manifest = collect_manifest(
        ctx=proc_ctx, graph=w.graph, dataset=args.dataset,
        extra={"experiment": "build_path"},
    )
    snap.attach_manifest(manifest)
    path = snap.write()
    load_snapshot(path)  # schema validation round trip
    print(f"snapshot OK -> {path}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
