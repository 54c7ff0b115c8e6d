#!/usr/bin/env python
"""The full paper pipeline on a large graph, with modeled strong scaling.

Builds the EquiTruss index on one of the Table-3 dataset stand-ins with
all three parallel variants, prints the per-kernel breakdown (Figure 4),
and applies the Perlmutter-like machine model to the instrumented run to
project the 1–128-thread strong-scaling curves (Figure 6) and parallel
efficiencies (Figure 9).

Run:  python examples/index_pipeline_scaling.py [--dataset livejournal]
"""

import argparse

from repro.bench import TextTable, get_workload, line_chart, run_variant
from repro.equitruss.kernels import KERNELS
from repro.parallel import MachineProfile, SimulatedMachine
from repro.parallel.simulate import PAPER_THREAD_COUNTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="livejournal",
                        choices=["amazon", "dblp", "youtube", "livejournal", "orkut"])
    args = parser.parse_args()

    w = get_workload(args.dataset)
    print(f"{args.dataset} stand-in: {w.num_vertices} vertices, {w.num_edges} edges, "
          f"{w.triangles.count} triangles, kmax={w.decomp.kmax}\n")

    machine = SimulatedMachine(MachineProfile())
    results = {}
    table = TextTable(["variant", "total s", *[f"{k} s" for k in KERNELS]],
                      title="Per-kernel breakdown (single thread, measured)")
    for variant in ("baseline", "coptimal", "afforest"):
        res = run_variant(w, variant, include_prereqs=True)
        results[variant] = res
        bd = res.breakdown.seconds
        table.add_row(variant, res.seconds, *[bd.get(k, 0.0) for k in KERNELS])
    print(table.render(), "\n")

    series = {
        v: machine.scaling_curve(r.tracer, PAPER_THREAD_COUNTS).seconds
        for v, r in results.items()
    }
    print(line_chart(list(PAPER_THREAD_COUNTS), series,
                     title="Modeled strong scaling T(p) on a 128-core node (log y)",
                     logy=True), "\n")

    eff_table = TextTable(["variant", *[f"{p}t" for p in PAPER_THREAD_COUNTS]],
                          title="Modeled parallel efficiency (%)")
    for v, r in results.items():
        curve = machine.scaling_curve(r.tracer, PAPER_THREAD_COUNTS)
        eff_table.add_row(v, *[f"{e:.0f}" for e in curve.efficiencies()])
    print(eff_table.render())

    sp = {v: series[v][0] / series[v][-1] for v in series}
    print("\n128-thread modeled speedups:",
          ", ".join(f"{v}={s:.1f}x" for v, s in sp.items()),
          f"(paper band: 19-55x on Perlmutter for the large graphs)")


if __name__ == "__main__":
    main()
