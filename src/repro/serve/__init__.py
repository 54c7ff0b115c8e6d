"""Query serving: batched, cached community search over a built index.

The construction side of the paper (parallel EquiTruss build) makes the
index cheap; this package makes *answering queries from it* cheap at
traffic scale. Where :func:`repro.community.search.search_communities`
runs a fresh Python BFS over the supergraph per query, the
:class:`QueryEngine` precomputes the connected components of every
τ ≥ k filtered supernode graph once (a single union-find sweep over the
superedges), so a query is O(#anchors) label lookups; batches resolve
all anchors with one CSR gather, and results are LRU-cached per
``(vertex, k)``.

On top of the in-process tier sits the network tier
(:mod:`repro.serve.frontend`): an asyncio TCP server that coalesces
concurrent requests into ``query_many`` batches, applies admission
control, and routes by vertex partition to shard worker processes
(:mod:`repro.serve.shard`) that mmap-attach the persistent store.
:class:`ServeClient` is the blocking client;
:mod:`repro.serve.loadgen` drives open/closed-loop load against it.

Correctness contract: every engine path (cached or not, batch or
single, in-process or through the wire) returns communities
byte-identical to ``search_communities``; ``tests/serve/`` pins this
differentially on randomized graphs.
"""

from repro.serve.cache import QueryCache
from repro.serve.client import ServeClient
from repro.serve.components import LevelComponents
from repro.serve.engine import QueryEngine
from repro.serve.frontend import FrontendConfig, FrontendThread, ServingFrontend

__all__ = [
    "FrontendConfig",
    "FrontendThread",
    "LevelComponents",
    "QueryCache",
    "QueryEngine",
    "ServeClient",
    "ServingFrontend",
]
