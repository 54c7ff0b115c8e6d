"""Figure 2 — compute-kernel timing breakdown of the *serial* EquiTruss.

The paper's motivating observation: for large graphs, constructing the
EquiTruss index costs as much as (or more than) the k-truss
decomposition itself, which is why parallelizing the index construction
matters. We reproduce the percentage breakdown of SupportComp /
TrussDecomp / EquiTruss for the four Figure-2 networks and assert the
motivating claim on the two large ones.
"""

from repro.bench import ResultWriter, TextTable, bar_chart, get_workload
from repro.equitruss import equitruss_serial
from repro.equitruss.kernels import KernelBreakdown
from repro.parallel import ExecutionContext

NETWORKS = ["amazon", "dblp", "livejournal", "orkut"]


def run_fig2():
    writer = ResultWriter("fig2_serial_breakdown")
    table = TextTable(
        ["network", "Support s", "TrussDecomp s", "EquiTruss s",
         "Support %", "TrussDecomp %", "EquiTruss %"],
        title="Figure 2: serial kernel breakdown (Original EquiTruss pipeline)",
    )
    shares = {}
    for name in NETWORKS:
        get_workload(name)  # warm dataset cache (generation not timed)
        ctx = ExecutionContext()
        from repro.graph.datasets import load_dataset_graph

        equitruss_serial(load_dataset_graph(name), ctx=ctx)
        by = KernelBreakdown.from_trace(ctx.tracer).seconds
        total = sum(by.values())
        sup, td, eq = by.get("Support", 0.0), by.get("TrussDecomp", 0.0), by.get("EquiTruss", 0.0)
        table.add_row(
            name, sup, td, eq,
            100 * sup / total, 100 * td / total, 100 * eq / total,
        )
        shares[name] = (100 * sup / total, 100 * td / total, 100 * eq / total)
    writer.add(table)
    writer.add(
        bar_chart(
            NETWORKS,
            [shares[n][2] for n in NETWORKS],
            title="EquiTruss share of serial pipeline (%) — paper: grows with size,"
            " comparable to TrussDecomp for large graphs",
            unit="%",
        )
    )
    writer.write()
    return shares


def test_fig2_serial_breakdown(benchmark, run_once):
    shares = run_once(benchmark, run_fig2)
    # Motivating claim: on the large graphs the EquiTruss phase is a
    # substantial share — at least half the truss-decomposition cost.
    for name in ("livejournal", "orkut"):
        _, td, eq = shares[name]
        assert eq >= 0.5 * td, (name, td, eq)
