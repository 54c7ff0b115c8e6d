"""Figure 8 — per-kernel time at 1, 8, 32, 128 threads.

The paper shows the SpNode bar dominating at one thread and shrinking
into parity with SpEdge/SmGraph by 128 threads, for all three variants
on Orkut and LiveJournal. Modeled per-kernel times from the
instrumented runs.

``run_fig8_backends`` measures the *real* per-kernel seconds of the
index-construction phase under each execution backend (prerequisites
cached, so the rows isolate Init/SpNode/SpEdge/SmGraph/SpNodeRemap)
and asserts every backend's index is bit-identical to the serial one.
"""

import os
import time

from repro.bench import ResultWriter, TextTable, get_workload, run_variant
from repro.bench.paper import FIG8_SPNODE_SCALING
from repro.equitruss.kernels import SM_GRAPH, SP_EDGE, SP_NODE
from repro.parallel import SimulatedMachine

NETWORKS = ["orkut", "livejournal"]
VARIANTS = ["baseline", "coptimal", "afforest"]
THREADS = (1, 8, 32, 128)
SHOWN = (SP_NODE, SP_EDGE, SM_GRAPH)

SWEEP_BACKENDS = (("serial", 1), ("process", 4))


def run_fig8():
    writer = ResultWriter("fig8_kernel_scaling")
    machine = SimulatedMachine()
    out = {}
    for name in NETWORKS:
        w = get_workload(name)
        table = TextTable(
            ["variant", "threads", *SHOWN],
            title=f"Figure 8 ({name}): modeled kernel seconds "
            f"(paper refs: {FIG8_SPNODE_SCALING.get(name, {})})",
        )
        for v in VARIANTS:
            res = run_variant(w, v)
            kernel_curves = machine.kernel_curves(res.tracer, THREADS)
            for i, p in enumerate(THREADS):
                row = [
                    kernel_curves[k].seconds[i] if k in kernel_curves else 0.0
                    for k in SHOWN
                ]
                table.add_row(v, p, *row)
                out[(name, v, p)] = dict(zip(SHOWN, row))
        writer.add(table)
    writer.write()
    return out


def run_fig8_backends():
    from repro.equitruss.pipeline import build_index
    from repro.parallel.context import ExecutionContext

    name = "orkut"
    w = get_workload(name)
    writer = ResultWriter("fig8_backend_kernels")
    out = {}
    for variant in ("coptimal", "afforest"):
        table = TextTable(
            ["backend", "workers", "seconds", *SHOWN],
            title=f"Measured index-construction kernels ({name}, {variant}), "
            f"cpu_count={os.cpu_count()}",
        )
        baseline_index = None
        for backend, workers in SWEEP_BACKENDS:
            with ExecutionContext(backend=backend, num_workers=workers) as ctx:
                t0 = time.perf_counter()
                res = build_index(
                    w.graph, variant, decomp=w.decomp, triangles=w.triangles,
                    ctx=ctx, num_workers=workers,
                )
                elapsed = time.perf_counter() - t0
            if baseline_index is None:
                baseline_index = res.index
                same = True
            else:
                same = res.index == baseline_index
            kernels = res.breakdown.seconds
            table.add_row(
                backend, workers, elapsed, *[kernels.get(k, 0.0) for k in SHOWN]
            )
            out[(variant, backend)] = (same, elapsed)
        writer.add(table)
    writer.write()
    return out


def test_fig8_backend_kernels(benchmark, run_once):
    out = run_once(benchmark, run_fig8_backends)
    for (variant, backend), (same, elapsed) in out.items():
        assert same, (variant, backend)
        assert elapsed > 0


def test_fig8_kernel_scaling(benchmark, run_once):
    out = run_once(benchmark, run_fig8)
    for name in NETWORKS:
        # SpNode strictly dominates the Baseline at 1 thread (the paper's
        # headline Fig. 4/8 observation) ...
        one = out[(name, "baseline", 1)]
        assert one[SP_NODE] > one[SP_EDGE] and one[SP_NODE] > one[SM_GRAPH]
        for v in VARIANTS:
            # ... stays a leading kernel for the optimized variants (our
            # prebuilt-table SpNode is leaner relative to SpEdge than the
            # paper's C++ kernels, so parity rather than dominance) ...
            one = out[(name, v, 1)]
            assert one[SP_NODE] > 0.5 * max(one[SP_EDGE], one[SM_GRAPH]), (name, v)
            # ... and every kernel shrinks monotonically through 32
            # threads; the 128-thread tail may flatten when barrier cost
            # (rounds · log p) catches up with the tiny per-thread work
            for k in SHOWN:
                secs = [out[(name, v, p)][k] for p in THREADS]
                through32 = secs[: THREADS.index(32) + 1]
                assert all(b <= a for a, b in zip(through32, through32[1:])), (name, v, k)
                assert secs[-1] <= secs[-2] * 1.15, (name, v, k)
