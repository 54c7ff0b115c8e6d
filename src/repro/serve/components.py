"""Per-level supernode components — the QueryEngine's precompute.

``search_communities`` answers one query with a BFS over the τ ≥ k
restricted supergraph. The reachable sets that BFS discovers are
exactly the connected components of the filtered supernode graph — a
pure function of the index shared by every query at the same k. This
module computes them for *all* levels up front with the ``repro.cc``
hooking machinery, turning each query into component-label lookups.

The sweep is incremental. A superedge is present at level k iff both
endpoints have τ ≥ k, i.e. iff ``min(τ(a), τ(b)) ≥ k``. Processing the
distinct trussness levels in descending order, each superedge is hooked
exactly once — at the highest level that includes it — and the parent
array carries over to every lower level, so the whole precompute is one
union-find sweep over ``index.superedges`` (O(SE α) hooking work plus
one label-suffix snapshot per level).
"""

from __future__ import annotations

import numpy as np

from repro.cc.core import compress, minlabel_hook_rounds
from repro.equitruss.index import EquiTrussIndex
from repro.obs import metrics
from repro.parallel.context import ExecutionContext


class LevelComponents:
    """Component labels of the τ ≥ k supernode graph, for every level k.

    ``levels`` holds the distinct supernode trussness values (ascending).
    Because the supernode set {τ ≥ k} is unchanged between consecutive
    levels, a query at any k ≥ 3 resolves against the smallest stored
    level ≥ k (:meth:`resolve_level`); k above ``levels[-1]`` has no
    communities anywhere in the graph.

    Supernode ids ascend by trussness (the index's canonical order), so
    the supernodes with τ ≥ L — the only ones with a component at level
    L — are the id suffix ``[first, S)``. Only that suffix is kept per
    level (:meth:`suffix`).
    """

    __slots__ = ("levels", "_rows", "_bounds", "_labels", "_num_supernodes")

    def __init__(self, index: EquiTrussIndex, ctx: ExecutionContext | None = None) -> None:
        ctx = ExecutionContext.ensure(ctx)
        sn_k = index.supernode_trussness
        levels = np.unique(sn_k)  # all ≥ 3 by construction
        firsts = np.searchsorted(sn_k, levels, side="left").tolist()
        comp = np.arange(index.num_supernodes, dtype=np.int64)
        se = index.superedges
        if se.shape[0]:
            min_tau = np.minimum(sn_k[se[:, 0]], sn_k[se[:, 1]])
            order = np.argsort(-min_tau, kind="stable")
            sa, sb, min_tau = se[order, 0], se[order, 1], min_tau[order]
        else:
            sa = sb = min_tau = np.empty(0, dtype=np.int64)
        pos = 0
        suffixes = []
        with ctx.region("PrecomputeComponents", work=int(se.shape[0]), parallel=False):
            for k, first in zip(levels[::-1].tolist(), firsts[::-1]):
                end = int(np.searchsorted(-min_tau, -k, side="right"))
                if end > pos:
                    minlabel_hook_rounds(comp, sa[pos:end], sb[pos:end], ctx=ctx)
                    # nodes hooked at higher levels may now point one step
                    # behind their new root; snapshots must be fully flat
                    compress(comp, ctx=ctx)
                    pos = end
                suffixes.append(comp[first:].copy())
        suffixes.reverse()
        bounds = np.cumsum([0] + [a.size for a in suffixes]).tolist()
        labels = np.concatenate(suffixes) if suffixes else comp[:0]
        self._set_tables(levels, bounds, labels)

    # ------------------------------------------------------------------
    # Persistence tables (the mmap-attach fast path)
    # ------------------------------------------------------------------
    @classmethod
    def from_tables(
        cls, levels: np.ndarray, offsets: np.ndarray, labels: np.ndarray
    ) -> "LevelComponents":
        """Rebuild from precomputed tables, skipping the union-find sweep.

        ``levels`` are the distinct trussness levels (ascending), and
        level i's label suffix is ``labels[offsets[i]:offsets[i + 1]]`` —
        exactly what :meth:`to_tables` exports and the persistent store
        (:mod:`repro.store`) maps back in. The tables are kept as given
        (no copy, no cast), so labels served from an attached store stay
        zero-copy.
        """
        self = object.__new__(cls)
        self._set_tables(
            np.asarray(levels).reshape(-1),
            np.asarray(offsets).reshape(-1).tolist(),
            np.asarray(labels).reshape(-1),
        )
        return self

    def _set_tables(self, levels: np.ndarray, bounds: list[int], labels: np.ndarray) -> None:
        # the lowest level covers every supernode
        num_supernodes = bounds[1] - bounds[0] if len(bounds) > 1 else 0
        lengths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        if (
            len(bounds) != levels.size + 1
            or bounds[0] != 0
            or bounds[-1] != labels.size
            or (lengths and (min(lengths) < 0 or max(lengths) > num_supernodes))
        ):
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                f"label offsets {bounds[:4]}… do not describe {levels.size} "
                f"level suffixes of {labels.size} labels"
            )
        self.levels = levels
        self._rows = dict(zip(levels.tolist(), range(levels.size)))
        self._bounds = bounds
        self._labels = labels
        self._num_supernodes = num_supernodes
        metrics.set_gauge("repro.serve.component_levels", levels.size)

    def to_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Export as ``(levels, offsets, labels)`` arrays for persistence:
        the label suffixes concatenated in ``levels`` order (ascending),
        level i's at ``offsets[i]:offsets[i + 1]``."""
        return self.levels, np.asarray(self._bounds, dtype=np.int64), self._labels

    @property
    def kmax(self) -> int:
        return int(self.levels[-1]) if self.levels.size else 2

    def resolve_level(self, k: int) -> int | None:
        """Smallest stored level ≥ k (the one whose filtered supernode
        set — and hence components — equals the τ ≥ k filter), or
        ``None`` when k exceeds every trussness in the graph."""
        i = int(np.searchsorted(self.levels, k, side="left"))
        if i == self.levels.size:
            return None
        return int(self.levels[i])

    def suffix(self, level: int) -> tuple[int, np.ndarray]:
        """``(first, labels)`` at a stored level: ``labels[i]`` is the
        component label of supernode ``first + i``, for every supernode
        with τ ≥ level (ids ``first`` to ``S - 1``). A label is the
        minimum member supernode id of its component."""
        i = self._rows[level]
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self._num_supernodes - (hi - lo), self._labels[lo:hi]
