"""Canonical undirected edge lists with dense edge identifiers.

An :class:`EdgeList` stores each undirected edge exactly once as an
ordered pair ``(u, v)`` with ``u < v``, sorted lexicographically. The
position of a pair in this ordering is the edge's *dense id* — the
identifier used everywhere else in the library (trussness arrays, parent
component arrays, triangle triples all index by edge id).

Fast id lookup uses the *keyed searchsorted* trick: pairs are sorted
lexicographically, so the key ``u * num_vertices + v`` strictly increases
and one :func:`numpy.searchsorted` resolves a batch of (u, v) queries. The
keys are built on the first lookup, never by the constructor.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EdgeNotFoundError, GraphConstructionError
from repro.utils.validation import check_array_1d


def _endpoint_array(name: str, arr) -> np.ndarray:
    """Integer endpoints, checked before any cast: int32 and int64 pass
    through without a copy, other integer kinds become int64, and float
    or bool input is rejected rather than truncated. An empty array has
    nothing to truncate, so ``np.empty(0)`` is accepted as no edges."""
    a = np.asarray(arr)
    a = check_array_1d(name, a, "iu" if a.size else None)
    if a.dtype in (np.int32, np.int64):
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a, dtype=np.int64)


class EdgeList:
    """Immutable canonical undirected edge list.

    Parameters
    ----------
    u, v:
        Endpoint arrays satisfying ``u[i] < v[i]``, jointly sorted by
        ``(u, v)``, with no duplicates. Use
        :func:`repro.graph.builder.build_edgelist` to canonicalize raw
        input; this constructor validates but does not repair.
    num_vertices:
        Number of vertices; must exceed ``max(v)``.

    int32 and int64 endpoints are kept as given (an attached store maps
    int32 ones); other integer dtypes are widened to int64.
    """

    __slots__ = ("u", "v", "num_vertices", "_keys")

    def __init__(self, u: np.ndarray, v: np.ndarray, num_vertices: int) -> None:
        u = _endpoint_array("u", u)
        v = _endpoint_array("v", v)
        if u.shape != v.shape:
            raise GraphConstructionError(
                f"endpoint arrays differ in length: {u.shape} vs {v.shape}"
            )
        if u.size:
            if int(u.min()) < 0:
                raise GraphConstructionError("negative vertex id in edge list")
            if int(v.max()) >= num_vertices:
                raise GraphConstructionError(
                    f"vertex id {int(v.max())} >= num_vertices={num_vertices}"
                )
            if not np.less(u, v).all():
                raise GraphConstructionError("edges must be canonical (u < v)")
            # (u, v) strictly increasing, i.e. u·n + v without the keys
            ordered = u[1:] == u[:-1]
            ordered &= v[1:] > v[:-1]
            ordered |= u[1:] > u[:-1]
            if not ordered.all():
                raise GraphConstructionError(
                    "edges must be sorted by (u, v) and free of duplicates"
                )
        self.u = u
        self.v = v
        self.num_vertices = int(num_vertices)
        self._keys: np.ndarray | None = None
        self.u.setflags(write=False)
        self.v.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.u.size

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeList(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self) -> int:  # EdgeLists are immutable
        # lists equal across dtypes must hash alike: hash the int64 values
        return hash((
            self.num_vertices,
            self.u.astype(np.int64, copy=False).tobytes(),
            self.v.astype(np.int64, copy=False).tobytes(),
        ))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def keys(self) -> np.ndarray:
        """Strictly increasing key ``u * n + v`` per edge (read-only, lazy)."""
        if self._keys is None:
            self._keys = self.u * np.int64(self.num_vertices) + self.v
            self._keys.setflags(write=False)
        return self._keys

    def edge_ids(self, qu: np.ndarray, qv: np.ndarray, strict: bool = True) -> np.ndarray:
        """Vectorized lookup of dense edge ids for (qu, qv) pairs.

        Pairs are canonicalized internally (order of endpoints does not
        matter). With ``strict=True`` a missing edge raises
        :class:`EdgeNotFoundError`; otherwise missing pairs map to ``-1``.
        """
        qu = np.asarray(qu, dtype=np.int64)
        qv = np.asarray(qv, dtype=np.int64)
        lo = np.minimum(qu, qv)
        hi = np.maximum(qu, qv)
        key = lo * np.int64(self.num_vertices) + hi
        keys = self.keys
        pos = np.searchsorted(keys, key)
        pos_clipped = np.minimum(pos, max(keys.size - 1, 0))
        found = keys[pos_clipped] == key if keys.size else np.zeros(key.shape, bool)
        if strict and not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise EdgeNotFoundError(
                f"edge ({int(lo.flat[i])}, {int(hi.flat[i])}) not in graph"
            )
        return pos if strict else np.where(found, pos_clipped, -1)

    def edge_id(self, a: int, b: int) -> int:
        """Scalar edge-id lookup; raises :class:`EdgeNotFoundError` if absent."""
        return int(self.edge_ids(np.array([a]), np.array([b]))[0])

    def has_edge(self, a: int, b: int) -> bool:
        return int(self.edge_ids(np.array([a]), np.array([b]), strict=False)[0]) >= 0

    def endpoints(self, eids: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Return (u, v) endpoint arrays for the given edge ids."""
        return self.u[eids], self.v[eids]

    def as_tuples(self) -> list[tuple[int, int]]:
        """Edge list as Python tuples (small graphs / tests only)."""
        return list(zip(self.u.tolist(), self.v.tolist()))

    # ------------------------------------------------------------------
    # Derived edge lists
    # ------------------------------------------------------------------
    def subset(self, mask_or_ids: np.ndarray) -> "EdgeList":
        """Edge list restricted to a boolean mask or id array.

        Vertex ids are preserved (no compaction); the result is a valid
        canonical edge list over the same vertex set.
        """
        sel = np.asarray(mask_or_ids)
        ids = np.flatnonzero(sel) if sel.dtype == bool else np.sort(sel.astype(np.int64))
        return EdgeList(self.u[ids], self.v[ids], self.num_vertices)

    def degrees(self) -> np.ndarray:
        """Undirected degree of every vertex."""
        deg = np.bincount(self.u, minlength=self.num_vertices)
        deg += np.bincount(self.v, minlength=self.num_vertices)
        return deg
