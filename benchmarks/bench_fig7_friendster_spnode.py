"""Figure 7 — SpNode scaling on the largest (Friendster-class) graph.

The paper could only run the SpNode kernel on Friendster (12-hour node
limit) and shows C-Optimal and Afforest curves, Afforest ~2× faster
(34332 s → 612 s over 1→128 threads). We run SpNode-only on the largest
stand-in and model the same sweep.
"""

from repro.bench import ResultWriter, TextTable, get_workload, line_chart, run_variant
from repro.bench.paper import FIG7_FRIENDSTER_SPNODE
from repro.equitruss.kernels import SP_NODE
from repro.parallel import SimulatedMachine
from repro.parallel.simulate import PAPER_THREAD_COUNTS

VARIANTS = ["coptimal", "afforest"]


def run_fig7():
    writer = ResultWriter("fig7_friendster_spnode")
    machine = SimulatedMachine()
    w = get_workload("friendster")
    series = {}
    for v in VARIANTS:
        res = run_variant(w, v)
        curves = machine.kernel_curves(res.tracer, PAPER_THREAD_COUNTS)
        series[v] = curves[SP_NODE].seconds
    table = TextTable(
        ["threads", *VARIANTS],
        title=f"Figure 7 (friendster stand-in, m={w.num_edges}): modeled SpNode seconds"
        f" — paper Afforest endpoints {FIG7_FRIENDSTER_SPNODE}",
    )
    for i, p in enumerate(PAPER_THREAD_COUNTS):
        table.add_row(p, *[series[v][i] for v in VARIANTS])
    writer.add(table)
    writer.add(
        line_chart(
            list(PAPER_THREAD_COUNTS), series,
            title="friendster SpNode T(p), log y", logy=True,
        )
    )
    writer.write()
    return series


def test_fig7_friendster_spnode(benchmark, run_once):
    series = run_once(benchmark, run_fig7)
    for v, secs in series.items():
        assert all(b < a for a, b in zip(secs, secs[1:])), v
    # paper: Afforest SpNode beats C-Optimal on Friendster. In the model
    # the two converge at the far end (Afforest's memory-bound fraction
    # saturates first), so require the win through 32 threads and parity
    # beyond.
    for p, aff, copt in zip(
        PAPER_THREAD_COUNTS, series["afforest"], series["coptimal"]
    ):
        if p <= 32:
            assert aff <= copt, p
        else:
            assert aff <= copt * 1.10, p
