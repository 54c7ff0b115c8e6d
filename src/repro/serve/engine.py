"""The component-based community-query engine.

Answers the same question as
:func:`repro.community.search.search_communities` — all k-truss
communities of a query vertex — but from precomputed per-level
supernode components (:class:`~repro.serve.components.LevelComponents`)
instead of a per-query BFS:

1. *Anchor* exactly as the BFS engine does (supernodes with τ ≥ k
   holding an edge incident to q).
2. *Lookup* the anchors' component labels at the level covering k —
   each distinct label is one community (no traversal).
3. *Materialize* the community's edges once per ``(level, component)``
   and memoize; repeat queries into the same community share the
   (read-only) array, and a shard packs its ids for the wire once
   (:meth:`QueryEngine.encoded_edge_ids`). Arrays and bytes share one
   LRU byte budget, :data:`MEMO_BUDGET_BYTES`.

On top sit a per-``(vertex, k)`` LRU result cache and a vectorized
batch path (:meth:`QueryEngine.query_many`) that resolves the anchors
of a whole request batch with one CSR gather.
"""

from __future__ import annotations

import time
from collections import OrderedDict, defaultdict

import numpy as np

from repro.community.model import Community, canonical_order
from repro.equitruss.index import EquiTrussIndex
from repro.errors import InvalidParameterError
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES
from repro.obs.trace import Span
from repro.parallel.context import ExecutionContext
from repro.serve.cache import QueryCache
from repro.serve.components import LevelComponents
from repro.serve.protocol import encode_edge_ids

#: Byte budget of the ``(level, component)`` memo: every entry's edge-id
#: array plus, once encoded, its id bytes. Least-recently-used entries
#: are evicted to stay within it.
MEMO_BUDGET_BYTES = 64 * 1024 * 1024


class _MemoEntry:
    """One memoized community: its edge ids and, once encoded, their bytes."""

    __slots__ = ("key", "edge_ids", "encoded")

    def __init__(self, key: tuple[int, int], edge_ids: np.ndarray) -> None:
        self.key = key
        self.edge_ids = edge_ids
        self.encoded: bytes | None = None

    @property
    def nbytes(self) -> int:
        return self.edge_ids.nbytes + (len(self.encoded) if self.encoded else 0)


class QueryEngine:
    """Batched, cached k-truss community queries over an EquiTruss index.

    Construction runs the component precompute (one union-find sweep
    over the superedges). ``cache_size`` bounds the LRU result cache
    (0 disables it). Attach to a :class:`DynamicEquiTruss` with
    :meth:`attach` so index updates invalidate the caches automatically.
    """

    def __init__(
        self,
        index: EquiTrussIndex,
        ctx: ExecutionContext | None = None,
        cache_size: int = 1024,
        components: LevelComponents | None = None,
    ) -> None:
        self.ctx = ExecutionContext.ensure(ctx)
        self.cache = QueryCache(cache_size)
        self._memo_evictions = 0
        self._encode_fallbacks = 0
        self._bind(index, components)

    def _bind(
        self, index: EquiTrussIndex, components: LevelComponents | None = None
    ) -> None:
        self.index = index
        # precomputed tables (the mmap-attach path — see repro.store)
        # skip the union-find sweep entirely; they MUST describe this
        # exact index, which the store's fingerprint protocol guarantees
        self.components = (
            components
            if components is not None
            else LevelComponents(index, ctx=self.ctx)
        )
        # (level, component label) -> sorted member edge ids (and their
        # encoded bytes), shared by every query that lands in the
        # community; LRU order, bounded by MEMO_BUDGET_BYTES
        self._materialized: OrderedDict[tuple[int, int], _MemoEntry] = OrderedDict()
        # id(edge_ids) -> its entry, for the encode path's lookup
        self._by_array: dict[int, _MemoEntry] = {}
        self._memo_bytes = 0
        self._account(0)

    # ------------------------------------------------------------------
    # Cache lifecycle
    # ------------------------------------------------------------------
    def refresh(
        self,
        index: EquiTrussIndex,
        components: LevelComponents | None = None,
    ) -> None:
        """Rebind to a (rebuilt) index and drop every derived cache.

        This is the invalidation contract: after ``refresh`` no answer
        derived from the old index can be served. Registered as the
        update hook by :meth:`attach`; the store's re-attach path passes
        the freshly mapped ``components`` so a swap does not force a
        component sweep.
        """
        self._bind(index, components)
        self.cache.invalidate()

    def invalidate(self) -> None:
        """Drop the result cache (components stay — the index is unchanged)."""
        self.cache.invalidate()

    @classmethod
    def attach(cls, dynamic, ctx=None, cache_size: int = 1024) -> "QueryEngine":
        """Engine over ``dynamic.index`` whose caches track its updates."""
        engine = cls(dynamic.index, ctx=ctx, cache_size=cache_size)
        dynamic.add_invalidation_hook(engine.refresh)
        return engine

    # ------------------------------------------------------------------
    # Single query
    # ------------------------------------------------------------------
    def query(self, vertex: int, k: int, record: bool = True) -> list[Community]:
        """All k-truss communities of ``vertex`` (canonical order).

        Byte-identical to ``search_communities(index, vertex, k)``.
        ``record=False`` skips the per-request ``Query`` span (used by
        shard workers and by callers that must not interleave spans on
        a shared tracer).
        """
        self._check_k(k)
        key = (int(vertex), int(k))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        t0 = time.perf_counter()
        if record:
            with self.ctx.region("Query", work=0, parallel=False) as sp:
                communities = self._resolve(vertex, k, sp)
        else:
            communities = self._resolve(vertex, k, None)
        self.cache.put(key, communities)
        elapsed = time.perf_counter() - t0
        metrics.inc("repro.serve.queries")
        metrics.observe(
            "repro.serve.latency_ms", elapsed * 1000.0, boundaries=DEFAULT_MS_BOUNDARIES
        )
        return communities

    def _resolve(self, vertex: int, k: int, sp: Span | None) -> list[Community]:
        anchors = self.index.supernodes_of_vertex(vertex, k_min=k)
        if anchors.size == 0:
            return []
        level = self.components.resolve_level(k)
        if level is None:  # pragma: no cover - anchors imply a level exists
            return []
        # anchors have τ ≥ k, hence τ ≥ level: all inside the suffix
        first, labels = self.components.suffix(level)
        roots = np.unique(labels[anchors - first])
        if sp is not None:
            sp.attrs["work"] += int(anchors.size)
        communities = [
            Community(k=k, edge_ids=self._community_edges(level, int(r)), graph=self.index.graph)
            for r in roots.tolist()
        ]
        return canonical_order(communities)

    # ------------------------------------------------------------------
    # Batch query
    # ------------------------------------------------------------------
    def query_many(self, vertices, k: int, record: bool = True) -> list[list[Community]]:
        """Communities for every vertex of a batch at one k.

        Cached entries are served from the LRU; the misses are resolved
        together — one CSR gather pulls the incident edge ids of all
        uncached vertices, one scatter maps them to anchor supernodes,
        and one unique pass yields each vertex's component labels.
        Results align with the input order.
        """
        self._check_k(k)
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        n = self.index.graph.num_vertices
        if vs.size and (int(vs.min()) < 0 or int(vs.max()) >= n):
            raise InvalidParameterError("batch contains an out-of-range vertex")
        t0 = time.perf_counter()
        results: list[list[Community] | None] = [None] * vs.size
        misses: list[int] = []
        for i, v in enumerate(vs.tolist()):
            hit = self.cache.get((v, int(k)))
            if hit is not None:
                results[i] = hit
            else:
                misses.append(i)
        if misses:
            if record:
                with self.ctx.region(
                    "QueryBatch", work=len(misses), parallel=False
                ) as sp:
                    self._resolve_batch(vs, k, misses, results)
                    sp.set(batch_size=int(vs.size))
            else:
                self._resolve_batch(vs, k, misses, results)
            for i in misses:
                self.cache.put((int(vs[i]), int(k)), results[i])
        elapsed = time.perf_counter() - t0
        metrics.inc("repro.serve.queries", len(misses))
        metrics.inc("repro.serve.batch_requests", int(vs.size))
        metrics.observe(
            "repro.serve.batch_latency_ms",
            elapsed * 1000.0,
            boundaries=DEFAULT_MS_BOUNDARIES,
        )
        return results  # type: ignore[return-value]

    def _resolve_batch(
        self, vs: np.ndarray, k: int, misses: list[int], results: list
    ) -> None:
        for i in misses:
            results[i] = []
        level = self.components.resolve_level(k)
        if level is None:
            return
        graph = self.index.graph
        sub = vs[np.asarray(misses, dtype=np.int64)]
        indptr = graph.indptr
        starts = indptr[sub].astype(np.int64, copy=False)
        counts = (indptr[sub + 1] - indptr[sub]).astype(np.int64, copy=False)
        total = int(counts.sum())
        if total == 0:
            return
        # one gather: incident edge ids of every uncached vertex at once
        cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        local = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
        eids = graph.edge_ids[np.repeat(starts, counts) + local]
        owner = np.repeat(np.arange(len(misses), dtype=np.int64), counts)
        sns = self.index.edge_supernode[np.asarray(eids, dtype=np.int64)]
        keep = sns >= 0
        sns, owner = sns[keep], owner[keep]
        if sns.size:
            keep = self.index.supernode_trussness[sns] >= k
            sns, owner = sns[keep], owner[keep]
        if sns.size == 0:
            return
        first, suffix = self.components.suffix(level)
        labels = suffix[sns - first]
        span = np.int64(max(self.index.num_supernodes, 1))
        pair_keys = np.unique(owner * span + labels)
        per_owner: dict[int, list[int]] = defaultdict(list)
        for ow, lb in zip((pair_keys // span).tolist(), (pair_keys % span).tolist()):
            per_owner[ow].append(lb)
        for slot, labs in per_owner.items():
            communities = [
                Community(
                    k=k,
                    edge_ids=self._community_edges(level, lb),
                    graph=graph,
                )
                for lb in labs
            ]
            results[misses[slot]] = canonical_order(communities)

    # ------------------------------------------------------------------
    # Community materialization
    # ------------------------------------------------------------------
    def _community_edges(self, level: int, root: int) -> np.ndarray:
        """Sorted member edge ids of one (level, component) — memoized."""
        key = (level, root)
        entry = self._materialized.get(key)
        if entry is not None:
            self._materialized.move_to_end(key)
            return entry.edge_ids
        edge_ids = self._materialize(level, root)
        if self._make_room(edge_ids.nbytes):
            self._remember(key, edge_ids)
        return edge_ids

    def _materialize(self, level: int, root: int) -> np.ndarray:
        # the suffix holds exactly the τ ≥ level supernodes, and the
        # label is the minimum member id: no member precedes the root
        first, labels = self.components.suffix(level)
        members = root + np.flatnonzero(labels[root - first:] == root)
        indptr = self.index.supernode_indptr
        counts = indptr[members + 1] - indptr[members]
        total = int(counts.sum())
        cum = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        local = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
        edge_ids = np.sort(
            self.index.supernode_edges[np.repeat(indptr[members], counts) + local]
        )
        # every answer into the community shares this array (and, once
        # encoded, its bytes): no caller may write to it
        edge_ids.flags.writeable = False
        return edge_ids

    def _remember(self, key: tuple[int, int], edge_ids: np.ndarray) -> None:
        entry = _MemoEntry(key, edge_ids)
        self._materialized[key] = entry
        self._by_array[id(edge_ids)] = entry
        self._account(edge_ids.nbytes)

    def _account(self, delta: int) -> None:
        self._memo_bytes += delta
        metrics.set_gauge("repro.serve.engine.memo_bytes", self._memo_bytes)

    def _make_room(self, cost: int, keep: _MemoEntry | None = None) -> bool:
        """Evict least-recently-used entries until ``cost`` more bytes fit
        in the budget; False (evicting nothing) when they cannot fit even
        beside ``keep`` alone, which must be the most recent entry."""
        floor = keep.nbytes if keep is not None else 0
        if floor + cost > MEMO_BUDGET_BYTES:
            return False
        while self._memo_bytes + cost > MEMO_BUDGET_BYTES:
            _, old = self._materialized.popitem(last=False)
            del self._by_array[id(old.edge_ids)]
            self._account(-old.nbytes)
            self._memo_evictions += 1
            metrics.inc("repro.serve.engine.memo_evictions")
        return True

    def encoded_edge_ids(self, edge_ids: np.ndarray) -> bytes:
        """``protocol.encode_edge_ids(edge_ids)``, computed once per
        memoized community.

        ``edge_ids`` is a ``Community.edge_ids`` this engine returned; it
        is found in the memo by identity. An array whose entry was evicted
        (a result-cache hit can outlive it) is encoded afresh, and counted
        in ``encode_fallbacks``.
        """
        entry = self._by_array.get(id(edge_ids))
        if entry is None or entry.edge_ids is not edge_ids:
            self._encode_fallbacks += 1
            metrics.inc("repro.serve.engine.encode_fallbacks")
            return encode_edge_ids(edge_ids)
        self._materialized.move_to_end(entry.key)
        if entry.encoded is None:
            encoded = encode_edge_ids(edge_ids)
            if not self._make_room(len(encoded), keep=entry):
                return encoded
            entry.encoded = encoded
            self._account(len(encoded))
        return entry.encoded

    def warm(self) -> int:
        """Materialize communities, level by level, until the next one
        would not fit the memo budget; returns how many the memo holds."""
        before = len(self._materialized)
        keys = (
            (level, root)
            for level in self.components.levels.tolist()
            for root in np.unique(self.components.suffix(level)[1]).tolist()
        )
        for key in keys:
            if key in self._materialized:
                continue
            edge_ids = self._materialize(*key)
            if self._memo_bytes + edge_ids.nbytes > MEMO_BUDGET_BYTES:
                break
            self._remember(key, edge_ids)
        metrics.inc("repro.serve.warmed_communities", len(self._materialized) - before)
        return len(self._materialized)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_k(k: int) -> None:
        if k < 3:
            raise InvalidParameterError(
                f"k must be >= 3 for k-truss communities, got {k}"
            )

    def stats(self) -> dict[str, int | float]:
        return {
            "levels": int(self.components.levels.size),
            "materialized_communities": len(self._materialized),
            "memo_bytes": self._memo_bytes,
            "memo_evictions": self._memo_evictions,
            "encode_fallbacks": self._encode_fallbacks,
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryEngine(supernodes={self.index.num_supernodes}, "
            f"levels={self.components.levels.size}, cache={len(self.cache)})"
        )
