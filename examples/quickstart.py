#!/usr/bin/env python
"""Quickstart: build an EquiTruss index and query local communities.

Uses the paper's own 11-vertex example graph (Figure 3a), so the output
can be checked against the published figure: five supernodes, six
superedges, and the k-truss communities of any query vertex retrieved
straight from the summary graph.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro.community import search_communities
from repro.community.search import query_candidate_ks
from repro.equitruss import build_index
from repro.graph import CSRGraph
from repro.graph.generators import paper_example_graph
from repro.store import attach_store, write_store


def main() -> None:
    # 1. Load a graph (any canonical edge list works; see repro.graph.io
    #    for SNAP text / npz loaders and repro.graph.generators for
    #    synthetic models).
    graph = CSRGraph.from_edgelist(paper_example_graph())
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. Build the index. One call runs the full pipeline: triangle
    #    enumeration -> truss decomposition -> parallel supernode CC ->
    #    superedges -> summary graph. Variants: baseline | coptimal | afforest.
    result = build_index(graph, variant="afforest")
    index = result.index
    print(f"index: {index.num_supernodes} supernodes, {index.num_superedges} superedges")
    for name, seconds in result.breakdown.seconds.items():
        print(f"  kernel {name:<12} {seconds * 1e3:8.2f} ms")

    # 3. Query: all k-truss communities of a vertex, straight from the
    #    summary graph (no truss recomputation).
    q = 6
    for k in query_candidate_ks(index, q).tolist():
        communities = search_communities(index, q, k)
        print(f"\nvertex {q}, k={k}: {len(communities)} community(ies)")
        for i, c in enumerate(communities):
            print(f"  community {i}: {c.num_vertices} vertices {c.vertices().tolist()}")

    # 4. Persist as an mmap-attachable store and attach it again (what
    #    `repro index --out g.eqtsidx` and every serving process do).
    with tempfile.TemporaryDirectory() as tmp:
        path = write_store(index, Path(tmp) / "quickstart.eqtsidx")
        with attach_store(path) as store:
            assert store.index == index
        print(f"\nindex round-tripped through a store ({path.name})")


if __name__ == "__main__":
    main()
