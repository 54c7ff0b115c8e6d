#!/usr/bin/env python3
"""Benchmark of both halves of the system: index build and serving.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload build|wire|mixed|all --seed N \\
        --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another.
``--trace 0`` runs the workload untraced and prints the end-to-end
metrics named in ``BENCHMARK.json``. ``--trace 1`` runs it twice, untraced
and then traced with spans around every call into a layer, walks the
layers the workload does not reach (see ``tour`` in ``config.json``),
and prints the per-layer metrics, including the tracing overhead
(traced minus untraced time of the workload's timed section). The trace
is written to ``.perfbench/traces/<workload>-seed<N>.jsonl`` in the
``repro.trace`` schema; ``python -m repro info --trace <file> --flame``
renders it.

Everything runs on the serial backend. Readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Temporary files
live under ``.perfbench/`` and are removed before exit. Exit codes: 0
with a result, 2 when the checkout has no ``src/repro``, 3 when a
process the run started was still alive after it was stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: per-layer metric -> (span name, scale) for mean span durations
SPAN_TIMES = {
    "graph.load_s": ("graph.load", 1.0),
    "triangles.enumerate_s": ("triangles.enumerate", 1.0),
    "truss.decompose_s": ("truss.decompose", 1.0),
    "equitruss.index_s": ("equitruss.index", 1.0),
    "dynamic.insert_ms": ("dynamic.insert", 1000.0),
    "dynamic.remove_ms": ("dynamic.remove", 1000.0),
    "store.write_s": ("store.write", 1.0),
    "store.attach_ms": ("store.attach", 1000.0),
    "store.refresh_ms": ("store.refresh", 1000.0),
    "components.sweep_ms": ("components.sweep", 1000.0),
    "engine.query_many_ms": ("engine.query_many", 1000.0),
}

#: per-layer metric -> (span names, attribute, reduction) for span counters
SPAN_ATTRS = {
    "triangles.count": (("triangles.enumerate",), "count", "mean"),
    "truss.peel_rounds": (("truss.decompose",), "peel_rounds", "mean"),
    "equitruss.init_s": (("equitruss.index",), "init_s", "mean"),
    "equitruss.spnode_s": (("equitruss.index",), "spnode_s", "mean"),
    "equitruss.spedge_s": (("equitruss.index",), "spedge_s", "mean"),
    "equitruss.smgraph_s": (("equitruss.index",), "smgraph_s", "mean"),
    "equitruss.spnode_remap_s": (("equitruss.index",), "spnode_remap_s", "mean"),
    "equitruss.supernodes": (("equitruss.index",), "supernodes", "mean"),
    "equitruss.superedges": (("equitruss.index",), "superedges", "mean"),
    "dynamic.affected_edges": (("dynamic.insert", "dynamic.remove"), "affected", "mean"),
    "store.bytes": (("store.write",), "bytes", "mean"),
    "store.replayed_entries": (("store.refresh",), "replayed", "sum"),
    "store.journal_bytes": (("store.refresh",), "journal_bytes", "max"),
}


def layer_values(spans, extra: dict) -> dict:
    """Per-layer values measurable from ``spans`` plus program counters."""
    values = dict(extra)
    for metric, (name, scale) in SPAN_TIMES.items():
        secs = spans.seconds(name)
        if secs:
            values[metric] = scale * sum(secs) / len(secs)
    for metric, (names, key, how) in SPAN_ATTRS.items():
        xs = [r["attrs"][key] for n in names for r in spans.named(n) if key in r["attrs"]]
        if xs:
            values[metric] = {"mean": sum(xs) / len(xs), "sum": sum(xs), "max": max(xs)}[how]
    encodes = spans.named("protocol.encode")
    answers = sum(r["attrs"]["answers"] for r in encodes)
    if answers:
        values["protocol.encode_ms"] = 1000.0 * sum(
            r["end"] - r["start"] for r in encodes) / answers
    return values


def print_self_times(spans, limit: int = 16) -> None:
    rows = sorted(spans.self_times().items(), key=lambda kv: -kv[1][2])[:limit]
    print(f"{'span':<24} {'count':>7} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, self_s) in rows:
        print(f"{name:<24} {count:>7} {total:>10.4f} {self_s:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cfg = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*cfg["workloads"], "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each peak_rss_mb is its own
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, *rest]).returncode
                   for name in cfg["workloads"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import workloads
    from spans import Spans
    from wire import LeftRunning

    wcfg = cfg["workloads"][args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))

    def context(spans: Spans, sub: str) -> "workloads.Run":
        (tmp / sub).mkdir()
        return workloads.Run(ROOT, wcfg, cfg["setup_repeats"], args.seed, args.seconds,
                             spans, tmp / sub)

    def run(spans: Spans, sub: str) -> "workloads.Outcome":
        return workloads.WORKLOADS[args.workload](context(spans, sub))

    print(f"workload {args.workload}: dataset {wcfg['dataset']}, seed {args.seed}, "
          f"{args.seconds:g} s, cpu_count {os.cpu_count()}")
    try:
        if not args.trace:
            outcomes = [run(Spans(False), "run")]
            values = outcomes[0].e2e
            wanted = bench["end_to_end"]
        else:
            outcomes = [run(Spans(False), "untraced")]
            spans = Spans(True)
            with spans.span(f"workload.{args.workload}", seed=args.seed) as main_root:
                outcomes.append(run(spans, "traced"))
            done = outcomes[-1]
            with spans.span("tour") as tour_root:
                tour_extra = workloads.tour(args.workload, context(spans, "tour"), done,
                                            cfg["tour"], cfg["workloads"]["wire"]["ops"])
            values = {**layer_values(spans.view(tour_root), tour_extra),
                      **layer_values(spans.view(main_root), done.extra)}
            values["trace.overhead_pct"] = 100.0 * (
                done.work_s - outcomes[0].work_s) / outcomes[0].work_s
            path = spans.write_jsonl(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            print(f"trace: {path.relative_to(ROOT)} ({len(spans.records)} spans)")
            print_self_times(spans.view(main_root))
            wanted = bench["per_layer"]
    except LeftRunning as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for outcome in outcomes[:1]:
        for name, (value, note) in outcome.report.items():
            print(f"{name:<22} {value:12.4f}  {note}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed + o.mismatches for o in outcomes)
    print(f"{'fail_frac':<22} {failed / max(attempted, 1):12.4f}  "
          f"{failed} of {attempted} operations")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for name, entry in metrics.items():
        print(f"{name:<26} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": all(o.mismatches == 0 for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
