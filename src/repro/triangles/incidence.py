"""Edge → triangle incidence in CSR form.

The truss-peeling kernel needs, for each edge, the ids of every triangle
it participates in (to cascade support decrements when the edge is
removed). This builds that mapping from a :class:`TriangleSet` with one
counting group-by of the 3t (edge, triangle) incidences by edge id
(:func:`~repro.utils.sorting.group_by`, a COO→CSR conversion): each
edge's triangle ids keep their order in the concatenated ``e_uv``,
``e_uw``, ``e_vw`` columns.
"""

from __future__ import annotations

import numpy as np

from repro.triangles.enumerate import TriangleSet
from repro.utils.sorting import group_by


class EdgeTriangleIncidence:
    """CSR mapping edge id → ids of incident triangles.

    ``triangles_of(e)`` is a zero-copy view; ``degree()`` is each edge's
    support. The peeling kernel gathers from ``indptr`` and ``tri_ids``.
    """

    __slots__ = ("indptr", "tri_ids", "num_edges", "_tri")

    def __init__(self, triangles: TriangleSet, ctx=None) -> None:
        m = triangles.num_edges
        t = triangles.count
        if ctx is not None:
            from repro.parallel.context import ExecutionContext

            # tri_ids holds triangle ids (< t), indptr offsets up to 3t.
            dt = ExecutionContext.ensure(ctx).dtype.resolve(max(3 * t, 1))
        else:
            dt = np.dtype(np.int64)
        eids = np.concatenate([triangles.e_uv, triangles.e_uw, triangles.e_vw])
        # incidence position p belongs to triangle p mod t
        order, indptr = group_by(eids, m)
        del eids
        tids = order.astype(dt, copy=False)
        tids %= max(t, 1)
        self.indptr = indptr.astype(dt, copy=False)
        self.tri_ids = tids
        self.num_edges = m
        self._tri = triangles

    @property
    def triangles(self) -> TriangleSet:
        return self._tri

    def triangles_of(self, eid: int) -> np.ndarray:
        """Triangle ids containing edge ``eid`` (view)."""
        return self.tri_ids[self.indptr[eid] : self.indptr[eid + 1]]

    def degree(self) -> np.ndarray:
        """Incidence count per edge (equals the edge's support)."""
        return np.diff(self.indptr)
