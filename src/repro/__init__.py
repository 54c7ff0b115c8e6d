"""repro — parallel EquiTruss index construction for k-truss-based local
community detection in large graphs.

Python reproduction of Faysal, Bremer, Chan, Shalf & Arifuzzaman,
"Fast Parallel Index Construction for Efficient K-truss-based Local
Community Detection in Large Graphs", ICPP 2023.

High-level flow::

    from repro import build_graph, build_index, search_communities

    graph = build_graph(src_ids, dst_ids)
    index = build_index(graph, variant="afforest").index
    communities = search_communities(index, query_vertex, k=5)

See README.md for the architecture overview and DESIGN.md /
EXPERIMENTS.md for the reproduction methodology and results.
"""

__version__ = "1.0.0"

from repro.errors import (
    BackendError,
    EdgeNotFoundError,
    GraphConstructionError,
    GraphFormatError,
    IndexIntegrityError,
    InvalidParameterError,
    ReproError,
)
from repro.graph import CSRGraph, EdgeList, build_edgelist, build_graph
from repro.triangles import compute_support, count_triangles, enumerate_triangles
from repro.truss import truss_decomposition, verify_trussness
from repro.cc import connected_components
from repro.equitruss import (
    BuildResult,
    DynamicEquiTruss,
    EquiTrussIndex,
    build_index,
    equitruss_serial,
    verify_index_semantics,
)
from repro.community import (
    Community,
    TCPIndex,
    max_k_communities,
    online_communities,
    search_communities,
    search_communities_multi,
    top_r_communities,
)
from repro.serve import QueryCache, QueryEngine
from repro.core_decomp import core_decomposition, kcore_community
from repro.parallel import (
    DtypePolicy,
    ExecutionContext,
    MachineProfile,
    SimulatedMachine,
    Workspace,
)

__all__ = [
    "__version__",
    # errors
    "BackendError",
    "EdgeNotFoundError",
    "GraphConstructionError",
    "GraphFormatError",
    "IndexIntegrityError",
    "InvalidParameterError",
    "ReproError",
    # graph substrate
    "CSRGraph",
    "EdgeList",
    "build_edgelist",
    "build_graph",
    # triangle / truss kernels
    "compute_support",
    "count_triangles",
    "enumerate_triangles",
    "truss_decomposition",
    "verify_trussness",
    # connected components
    "connected_components",
    # the index
    "BuildResult",
    "DynamicEquiTruss",
    "EquiTrussIndex",
    "build_index",
    "equitruss_serial",
    "verify_index_semantics",
    # community search
    "Community",
    "TCPIndex",
    "max_k_communities",
    "online_communities",
    "search_communities",
    "search_communities_multi",
    "top_r_communities",
    # query serving
    "QueryCache",
    "QueryEngine",
    # k-core comparator
    "core_decomposition",
    "kcore_community",
    # parallel runtime
    "DtypePolicy",
    "ExecutionContext",
    "MachineProfile",
    "SimulatedMachine",
    "Workspace",
]
