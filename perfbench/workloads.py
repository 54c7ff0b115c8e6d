"""The three workloads (``build``, ``wire``, ``mixed``) and the traced tour.

Each workload makes its inputs from the seed, sets up ``setup_repeats``
times (``setup_s`` is the median), replays a fixed operation list whose
length follows from ``--seconds``, checks its outputs, and returns an
:class:`Outcome`. Operation lists never depend on elapsed time, so two
commits run with the same seed and ``--seconds`` answer identical
queries.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from repro.equitruss.pipeline import build_index
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.serve.engine import QueryEngine
from repro.serve.loadgen import default_ks
from repro.serve.protocol import serialize_communities
from spans import Spans
from wire import Server, closed_loop, open_loop


@dataclass
class Outcome:
    """What one workload run measured."""

    #: end-to-end metric -> value (the names in BENCHMARK.json)
    e2e: dict = field(default_factory=dict)
    #: the same run under the names a reader of the workload expects,
    #: name -> (value, unit)
    report: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    #: wall time of the timed section (the base of the tracing overhead)
    work_s: float = 0.0
    #: per-layer values read from the program's own counters
    extra: dict = field(default_factory=dict)


@dataclass
class Run:
    root: Path
    cfg: dict
    repeats: int
    seed: int
    seconds: float
    spans: Spans
    tmp: Path


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_extra(before: dict, after: dict) -> dict:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return {"engine.cache_hit_rate": hits / lookups if lookups else 0.0,
            "engine.lookups": lookups,
            "engine.materialized": after["materialized"]}


# ----------------------------------------------------------------------
# build: graph file -> .eqtsidx
# ----------------------------------------------------------------------


def build(run: Run) -> Outcome:
    ops = run.cfg["ops"]
    out = Outcome()
    store = run.tmp / "build.eqtsidx"
    setups = []
    for r in range(run.repeats):
        t0 = time.perf_counter()
        graph_file = layers.write_graph_file(
            run.cfg["dataset"], run.seed, run.tmp / f"graph{r}.npz")
        setups.append(time.perf_counter() - t0)
    builds = max(ops["min_builds"], round(run.seconds / ops["build_estimate_s"]))
    per_build = -(-ops["attaches"] // builds)
    build_s, attach_ms = [], []
    for _ in range(builds):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            index = layers.build_store(graph_file, store, run.spans)
        except ReproError:
            out.failed += 1
            continue
        build_s.append(time.perf_counter() - t0)
        if not layers.check_store(store, index, run.spans):
            out.mismatches += 1
        del index
        for _ in range(per_build):
            t0 = time.perf_counter()
            layers.attach(store, run.spans).close()
            attach_ms.append((time.perf_counter() - t0) * 1000.0)
        out.attempted += per_build
    out.work_s = sum(build_s)
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_s": statistics.mean(build_s),
        "lat_ms": statistics.mean(attach_ms),
    }
    out.report = {
        "build_s": (out.e2e["work_s"], f"s, mean of {len(build_s)} builds"),
        "build_p50_s": (statistics.median(build_s), "s"),
        "attach_mean_ms": (out.e2e["lat_ms"], f"ms, {len(attach_ms)} attaches"),
        "attach_p50_ms": (pct(attach_ms, 50), "ms"),
        "attach_p99_ms": (pct(attach_ms, 99), "ms"),
    }
    return out


# ----------------------------------------------------------------------
# wire: the store served through the frontend
# ----------------------------------------------------------------------


def request_list(rng, num_vertices: int, ks: list[int], count: int) -> list[tuple[int, int]]:
    """``count`` uniform keys, stratified so every seed gets the same mix.

    Each k gets an equal share, and within one k the vertices are one
    draw from each of equal slices of the vertex range (vertex ids of the
    R-MAT stand-ins track degree), so how many requests land in the
    large communities varies little from seed to seed.
    """
    k_of = np.resize(np.asarray(ks, dtype=np.int64), count)
    vertices = np.empty(count, dtype=np.int64)
    for k in ks:
        idx = np.flatnonzero(k_of == k)
        slots = (np.arange(idx.size) + rng.random(idx.size)) * num_vertices / max(idx.size, 1)
        vertices[idx] = rng.permutation(slots.astype(np.int64))
    order = rng.permutation(count)
    return list(zip(vertices[order].tolist(), k_of[order].tolist()))


class WireRun:
    """Request lists, phase results and server counters of one serve run."""

    def __init__(self, server: Server, counts: dict, rate: float,
                 sample: int, rng, spans) -> None:
        ks = default_ks(server.kmax)
        self.lists = {name: request_list(rng, server.num_vertices, ks, n)
                      for name, n in counts.items()}
        samples = {name: set(rng.choice(len(reqs), min(len(reqs), sample),
                                        replace=False).tolist())
                   for name, reqs in self.lists.items()}
        closed_loop(server, self.lists.pop("warm"), 1, set(), Spans(False), "warm")
        snaps = [server.control("metrics", format="json")["metrics"]]
        stats0 = server.control("stats")
        self.c1 = closed_loop(server, self.lists["c1"], 1, samples["c1"], spans, "c1")
        snaps.append(server.control("metrics", format="json")["metrics"])
        self.c2 = closed_loop(server, self.lists["c2"], 2, samples["c2"], spans, "c2")
        self.open = open_loop(server, self.lists["open"], rate, samples["open"], spans)
        snaps.append(server.control("metrics", format="json")["metrics"])
        stats1 = server.control("stats")
        self.peak_rss_mb = server.peak_rss_mb()
        self.phases = {"c1": self.c1, "c2": self.c2, "open": self.open}
        self.extra = self._layers(snaps, stats0, stats1)

    def _layers(self, snaps, stats0, stats1) -> dict:
        def mean(a, b, name):
            ha, hb = a.get(name) or {}, b.get(name) or {}
            count = hb.get("count", 0) - ha.get("count", 0)
            return (hb.get("sum", 0.0) - ha.get("sum", 0.0)) / count if count else 0.0

        def engine_total(stats, key):
            return sum(s.get("stats", {}).get("engine", {}).get(key, 0)
                       for s in stats["shards"])

        first, c1_end, last = snaps
        latency = mean(first, last, "repro.serve.frontend.latency_ms")
        shard = mean(first, last, "repro.serve.frontend.shard_ms")
        engine = mean(first, last, "repro.serve.shard.batch_ms")
        hits = engine_total(stats1, "cache_hits") - engine_total(stats0, "cache_hits")
        lookups = hits + engine_total(stats1, "cache_misses") - engine_total(stats0, "cache_misses")
        c1_lat = self.c1.ok_latencies()
        return {
            "frontend.latency_ms": latency,
            "frontend.shard_ms": shard,
            "frontend.wait_ms": latency - shard,
            "frontend.batch_size": mean(first, last, "repro.serve.frontend.coalesce_batch_size"),
            "shard.batch_ms": engine,
            "shard.pipe_ms": shard - engine,
            "shard.cache_hit_rate": hits / lookups if lookups else 0.0,
            "shard.lookups": lookups,
            "client.overhead_ms": (sum(c1_lat) / len(c1_lat) if c1_lat else 0.0)
            - mean(first, c1_end, "repro.serve.frontend.latency_ms"),
            "loadgen.lag_p99_ms": pct(self.open.lag_ms, 99) if self.open.lag_ms else 0.0,
            "protocol.resp_bytes": self.open.resp_bytes / max(self.open.responses, 1),
        }

    def check(self, store: Path, spans) -> tuple[int, dict]:
        """Sampled wire answers against an in-process engine on the store;
        returns (mismatches, engine counters)."""
        by_k: dict = {}
        for name, res in self.phases.items():
            for i, got in res.answers.items():
                v, k = self.lists[name][i]
                by_k.setdefault(k, []).append((v, got))
        mismatches, answers = 0, []
        with layers.attach(store, spans) as attached:
            engine = attached.engine()
            before = layers.engine_counters(engine)
            for k, items in sorted(by_k.items()):
                expect, _ = layers.engine_batch(engine, [v for v, _ in items], k, spans)
                answers.extend(expect)
                mismatches += sum(
                    serialize_communities(e) != got for e, (_, got) in zip(expect, items))
            extra = engine_extra(before, layers.engine_counters(engine))
            if spans.enabled:
                layers.encode_answers(answers, spans)
        return mismatches, extra

    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())

    def attempted(self) -> int:
        return sum(len(reqs) for reqs in self.lists.values())


def serve(run: Run, ops: dict, store: Path, counts: dict, sample: int,
          rng) -> tuple[WireRun, float]:
    """Start the frontend on ``store``, run the phases, stop it."""
    server = Server(run.root, store, run.tmp, shards=ops["shards"],
                    cap_s=ops["server_cap_s"])
    try:
        server.start()
        wire_run = WireRun(server, counts, ops["open_rate_qps"], sample, rng, run.spans)
    finally:
        server.stop()
    return wire_run, server.ready_s


def wire(run: Run) -> Outcome:
    ops = run.cfg["ops"]
    out = Outcome()
    store = run.tmp / "wire.eqtsidx"
    setups = []
    for r in range(run.repeats):
        t0 = time.perf_counter()
        graph_file = layers.write_graph_file(
            run.cfg["dataset"], run.seed, run.tmp / f"graph{r}.npz")
        layers.build_store(graph_file, store, run.spans)
        setups.append(time.perf_counter() - t0)
    rate = ops["open_rate_qps"]
    counts = {
        "warm": ops["warmup_requests"],
        "c1": round(run.seconds * ops["c1_requests_per_s"]),
        "c2": round(run.seconds * ops["c2_requests_per_s"]),
        "open": round(run.seconds * ops["open_share_of_seconds"] * rate),
    }
    rng = np.random.default_rng([run.seed, 1])
    wr, ready_s = serve(run, ops, store, counts, ops["sample_per_phase"], rng)
    mismatches, engine = wr.check(store, run.spans)
    out.mismatches = mismatches
    out.attempted = wr.attempted()
    out.failed = wr.failed()
    out.work_s = sum(p.wall_s for p in wr.phases.values())
    out.extra = {**wr.extra, **engine}
    c1, c2, opn = wr.c1.ok_latencies(), wr.c2.ok_latencies(), wr.open.ok_latencies()
    out.e2e = {
        "setup_s": statistics.median(setups) + ready_s,
        "peak_rss_mb": wr.peak_rss_mb,
        "work_s": wr.c1.wall_s + wr.c2.wall_s,
        "lat_ms": pct(c1, 50),
    }
    out.report = {
        "c1_p50_ms": (out.e2e["lat_ms"], f"ms, {len(c1)} requests, 1 client"),
        "c1_p99_ms": (pct(c1, 99), "ms"),
        "c2_qps": (len(c2) / wr.c2.wall_s, f"1/s, {len(c2)} requests, 2 clients"),
        "open_p50_ms": (pct(opn, 50), f"ms, {len(opn)} requests at {rate} qps"),
        "open_p99_ms": (pct(opn, 99), "ms"),
        "loadgen_lag_p99_ms": (wr.extra["loadgen.lag_p99_ms"], "ms"),
    }
    return out


# ----------------------------------------------------------------------
# mixed: journalled writes beside an attached reader
# ----------------------------------------------------------------------


def write_script(rng, writer, steps: int, ops: dict):
    """Seeded steps: (insert picks, remove picks, read batches).

    The hot vertices are one draw from each of equal slices of the
    vertices in some triangle (ids track degree), and read batches cycle
    through the k values, so the read mix varies little between seeds.
    """
    n = writer.graph.num_vertices
    ks = default_ks(int(writer.trussness.max()))
    edges, tau = writer.graph.edges, writer.trussness
    cand = np.unique(np.concatenate([edges.u[tau >= 3], edges.v[tau >= 3]]))
    size = min(ops["hot_vertices"], cand.size)
    hot = rng.permutation(cand[((np.arange(size) + rng.random(size)) * cand.size / size).astype(np.int64)])
    weights = 1.0 / np.arange(1, hot.size + 1)
    weights /= weights.sum()
    script = []
    for _ in range(steps):
        insert_picks = rng.random((ops["insert_batch"], 2))
        remove_picks = rng.random(ops["remove_batch"])
        reads = []
        for j in range(ops["reads_per_step"]):
            k = ks[j % len(ks)]
            is_hot = rng.random(ops["read_batch"]) < ops["hot_share"]
            vs = np.where(is_hot, hot[rng.choice(hot.size, ops["read_batch"], p=weights)],
                          rng.integers(0, n, ops["read_batch"]))
            reads.append((k, vs))
        script.append((insert_picks, remove_picks, reads))
    return script, hot, ks


def check_mixed(upd, hot, ks, rng, count: int) -> int:
    """Reader answers on a sample against a from-scratch build of the
    writer's final graph; returns the number of mismatches."""
    fresh = build_index(CSRGraph.from_edgelist(upd.writer.graph.edges), layers.VARIANT)
    ref = QueryEngine(fresh.index, cache_size=0)
    n = upd.writer.graph.num_vertices
    vs = np.concatenate([rng.choice(hot, count // 2), rng.integers(0, n, count - count // 2)])
    kk = rng.choice(ks, count)
    mismatches = 0
    for k in sorted(set(kk.tolist())):
        batch = vs[kk == k]
        got = upd.engine.query_many(batch, k)
        want = ref.query_many(batch, k)
        for g, w in zip(got, want):
            mismatches += [c.edge_ids.tolist() for c in g] != [c.edge_ids.tolist() for c in w]
    return mismatches


def mixed(run: Run) -> Outcome:
    ops = run.cfg["ops"]
    out = Outcome()
    setups = []
    upd = None
    for r in range(run.repeats):
        if upd is not None:
            upd.close()
        t0 = time.perf_counter()
        edges = layers.dataset_edges(run.cfg["dataset"], run.seed)
        with run.spans.span("graph.load"):
            graph = CSRGraph.from_edgelist(edges)
        upd = layers.Updates(graph, run.tmp / f"mixed{r}.eqtsidx", run.spans)
        setups.append(time.perf_counter() - t0)
    rng = np.random.default_rng([run.seed, 2])
    steps = max(2, round(run.seconds * ops["steps_per_s"]))
    script, hot, ks = write_script(rng, upd.writer, steps, ops)
    before = layers.engine_counters(upd.engine)
    write_ms, refresh_ms, read_ms = [], [], []
    t_start = time.perf_counter()
    try:
        for s, (insert_picks, remove_picks, reads) in enumerate(script):
            rid = f"step-{s}"
            out.attempted += 2 + len(reads)
            try:
                write_ms.append(
                    upd.write_step(insert_picks, remove_picks, run.spans, rid) * 1000.0)
                seconds, caught_up = upd.refresh(run.spans, rid)
            except ReproError:
                out.failed += 1
                continue
            refresh_ms.append(seconds * 1000.0)
            out.mismatches += not caught_up
            for k, vs in reads:
                _, seconds = layers.engine_batch(upd.engine, vs, k, run.spans, rid)
                read_ms.append(seconds * 1000.0)
        out.work_s = time.perf_counter() - t_start
        out.extra = engine_extra(before, layers.engine_counters(upd.engine))
        if run.spans.enabled:
            upd.sweep(run.spans)
        out.mismatches += check_mixed(upd, hot, ks, np.random.default_rng([run.seed, 3]),
                                      ops["sample"])
    finally:
        upd.close()
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_s": out.work_s,
        "lat_ms": statistics.mean(write_ms),
    }
    out.report = {
        "script_s": (out.work_s, f"s, {steps} steps"),
        "write_p50_ms": (pct(write_ms, 50), f"ms, {len(write_ms)} insert+remove steps"),
        "write_mean_ms": (out.e2e["lat_ms"], "ms"),
        "refresh_p50_ms": (pct(refresh_ms, 50), f"ms, {len(refresh_ms)} refreshes"),
        "read_p50_ms": (pct(read_ms, 50), f"ms, {len(read_ms)} query_many batches"),
        "read_mean_ms": (statistics.mean(read_ms), "ms"),
        "read_p99_ms": (pct(read_ms, 99), "ms"),
    }
    return out


WORKLOADS = {"build": build, "wire": wire, "mixed": mixed}


# ----------------------------------------------------------------------
# The traced tour: layers off a workload's own path
# ----------------------------------------------------------------------


def tour(name: str, run: Run, done: Outcome, tour_cfg: dict, wire_ops: dict) -> dict:
    """Short fixed passes over the layers workload ``name`` does not reach,
    on a small store of ``tour_cfg["dataset"]`` made from the run's seed."""
    extra: dict = {}
    rng = np.random.default_rng([run.seed, 4])
    graph = CSRGraph.from_edgelist(layers.dataset_edges(tour_cfg["dataset"], run.seed))
    store = run.tmp / "tour.eqtsidx"
    upd = layers.Updates(graph, store, run.spans)
    try:
        if name != "wire":
            counts = {"warm": 0, **tour_cfg["wire"]}
            with run.spans.span("tour.wire"):
                wr, _ = serve(run, wire_ops, store, counts, tour_cfg["sample"], rng)
                mismatches, _ = wr.check(store, run.spans)
            done.mismatches += mismatches
            done.failed += wr.failed()
            done.attempted += wr.attempted()
            extra.update(wr.extra)
        if name != "mixed":
            with run.spans.span("tour.updates"):
                script, _, _ = write_script(rng, upd.writer, tour_cfg["update_steps"],
                                            tour_cfg["updates"])
                before = layers.engine_counters(upd.engine)
                for s, (insert_picks, remove_picks, reads) in enumerate(script):
                    upd.write_step(insert_picks, remove_picks, run.spans, f"tour-{s}")
                    upd.refresh(run.spans, f"tour-{s}")
                    for k, vs in reads:
                        layers.engine_batch(upd.engine, vs, k, run.spans, f"tour-{s}")
                extra.update(engine_extra(before, layers.engine_counters(upd.engine)))
    finally:
        upd.close()
    return extra
