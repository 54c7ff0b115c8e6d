"""Figure 9 — parallel efficiency ε = T_seq / (p · T(p)).

Paper (Orkut): ~70–73% at 2 threads, ~32–39% at 32, 14–17% at 128.
Modeled efficiencies from the instrumented runs; asserted shape:
monotone decay, high efficiency at 2 threads, substantial decay by 128.
"""

from repro.bench import ResultWriter, TextTable, get_workload, run_variant
from repro.bench.paper import FIG9_ORKUT_EFFICIENCY
from repro.parallel import SimulatedMachine
from repro.parallel.simulate import PAPER_THREAD_COUNTS

NETWORKS = ["orkut", "livejournal", "youtube"]
VARIANTS = ["baseline", "coptimal", "afforest"]


def run_fig9():
    writer = ResultWriter("fig9_efficiency")
    machine = SimulatedMachine()
    out = {}
    for name in NETWORKS:
        w = get_workload(name)
        table = TextTable(
            ["variant", *[f"{p}t %" for p in PAPER_THREAD_COUNTS]],
            title=f"Figure 9 ({name}): modeled parallel efficiency (%)"
            + (f" — paper: {FIG9_ORKUT_EFFICIENCY}" if name == "orkut" else ""),
        )
        for v in VARIANTS:
            res = run_variant(w, v, include_prereqs=True)
            curve = machine.scaling_curve(res.tracer, PAPER_THREAD_COUNTS)
            eff = curve.efficiencies()
            table.add_row(v, *eff)
            out[(name, v)] = dict(zip(PAPER_THREAD_COUNTS, eff))
        writer.add(table)
    writer.write()
    return out


def test_fig9_efficiency(benchmark, run_once):
    out = run_once(benchmark, run_fig9)
    for (name, v), eff in out.items():
        assert abs(eff[1] - 100.0) < 1e-6
        vals = [eff[p] for p in PAPER_THREAD_COUNTS]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:])), (name, v)
        assert eff[2] > 45.0, (name, v, "2-thread efficiency should stay high")
        assert eff[128] < 60.0, (name, v, "128-thread efficiency must decay")
