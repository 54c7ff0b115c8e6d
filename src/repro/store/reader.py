"""Millisecond mmap attach of a persisted index.

``attach_store`` maps a store file read-only and reconstructs the full
serving stack — :class:`~repro.equitruss.index.EquiTrussIndex`,
:class:`~repro.serve.components.LevelComponents` (from the stored
tables, skipping the union-find sweep), and on demand a
:class:`~repro.serve.QueryEngine` — as zero-copy views into the mapped
bytes. N serving processes attaching the same file share one page-cache
copy of the index.

Staleness protocol (see :mod:`repro.store.journal`): the attached
*generation* is the header generation at map time. ``refresh()``
replays any journal entries appended since (small deltas, applied
through :class:`~repro.equitruss.dynamic.DynamicEquiTruss`), and falls
back to a clean re-attach when the file itself was swapped by a
rebuild (on-disk generation moved). Readers never block writers and
writers never tear readers — the old inode stays mapped until released.
"""

from __future__ import annotations

import mmap
import time
from pathlib import Path

import numpy as np

from repro.equitruss.index import EquiTrussIndex
from repro.errors import (
    CorruptStoreError,
    GraphConstructionError,
    InvalidParameterError,
    StoreError,
)
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.obs import metrics
from repro.obs.histogram import DEFAULT_MS_BOUNDARIES
from repro.store.format import (
    COMPONENT_SECTIONS,
    PRELUDE_BYTES,
    data_start,
    parse_header,
    parse_prelude,
    section_checksum,
    section_view,
)
from repro.store.journal import JournalReader, default_journal_path


def _close_quiet(mm, f) -> None:
    """Release a mapping + file, tolerating still-exported buffers."""
    try:
        mm.close()
    except BufferError:
        # a numpy view over the map is still alive in this frame; the
        # OS unmaps when the last reference is collected
        pass
    f.close()


def read_header(path) -> dict:
    """Parse just the prelude + JSON header of a store file (no mmap)."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            _, header_len = parse_prelude(f.read(PRELUDE_BYTES), path)
            blob = f.read(header_len)
    except OSError as exc:
        raise StoreError(f"cannot read store {path}: {exc}") from exc
    if len(blob) != header_len:
        raise CorruptStoreError(f"{path}: truncated store header")
    return parse_header(blob, path)


def inspect_store(path) -> dict:
    """Human-facing summary of a store file (header facts + sizes)."""
    path = Path(path)
    header = read_header(path)
    sections = header["sections"]
    return {
        "path": str(path),
        "format_version": header["format_version"],
        "generation": header["generation"],
        "num_vertices": header["num_vertices"],
        "num_edges": header["dataset"]["edges"],
        "dataset_sha256": header["dataset"]["sha256"],
        "store_dtype": header["store_dtype"],
        "payload_bytes": header["payload_bytes"],
        "file_bytes": path.stat().st_size,
        "has_components": all(n in sections for n in COMPONENT_SECTIONS),
        "sections": {
            name: {"nbytes": e["nbytes"], "dtype": e["dtype"], "shape": e["shape"]}
            for name, e in sections.items()
        },
        "schema_versions": header.get("schema_versions", {}),
        "git_sha": (header.get("manifest") or {}).get("git_sha"),
    }


def verify_store(path) -> dict:
    """Full integrity verification: per-section checksums + fingerprint.

    Raises :class:`CorruptStoreError` on the first mismatch; returns a
    small report on success.
    """
    from repro.obs.manifest import dataset_fingerprint

    with attach_store(path, verify=True) as store:
        # the mapped graph must hash back to the header fingerprint —
        # this catches payload corruption that preserves section sums
        # being impossible, but mainly catches a header/payload mix-up
        fp = dataset_fingerprint(store.graph)
        declared = store.header["dataset"]["sha256"]
        if fp["sha256"] != declared:
            raise CorruptStoreError(
                f"{path}: mapped graph fingerprint {fp['sha256'][:12]}… does "
                f"not match the header fingerprint {declared[:12]}…"
            )
        return {
            "ok": True,
            "generation": store.generation,
            "sections": len(store.header["sections"]),
            "store_dtype": store.header["store_dtype"],
            "payload_bytes": store.header["payload_bytes"],
            "dataset_sha256": declared,
        }


def _object_graph(header: dict, views: dict) -> tuple:
    """The zero-copy ``(graph, index, components)`` over a store's mapped
    sections; components are None when the store holds no tables.

    The constructors check what they read, and ``supernode_indptr`` is
    bounded here, which no constructor checks: a corrupt value would
    otherwise surface at the first query. :class:`AttachedStore` turns
    the errors into :class:`CorruptStoreError`.
    """
    edges = EdgeList(views["graph.u"], views["graph.v"], header["num_vertices"])
    graph = CSRGraph(
        views["graph.indptr"],
        views["graph.indices"],
        views["graph.edge_ids"],
        edges,
        index_dtype=np.dtype(header["store_dtype"]),
    )
    indptr = views["index.supernode_indptr"]
    size = views["index.supernode_edges"].size
    if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != size or (
        indptr[1:] < indptr[:-1]
    ).any():
        raise InvalidParameterError(
            f"supernode_indptr does not delimit {size} supernode edges"
        )
    index = EquiTrussIndex(
        graph=graph,
        trussness=views["index.trussness"],
        edge_supernode=views["index.edge_supernode"],
        supernode_trussness=views["index.supernode_trussness"],
        supernode_indptr=indptr,
        supernode_edges=views["index.supernode_edges"],
        superedges=views["index.superedges"],
    )
    components = None
    if all(name in views for name in COMPONENT_SECTIONS):
        from repro.serve.components import LevelComponents

        components = LevelComponents.from_tables(
            *(views[name] for name in COMPONENT_SECTIONS)
        )
    return graph, index, components


class RefreshReport:
    """What one :meth:`AttachedStore.refresh` call did."""

    __slots__ = ("applied", "swapped", "generation")

    def __init__(self, applied: int, swapped: bool, generation: int) -> None:
        self.applied = applied
        self.swapped = swapped
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RefreshReport(applied={self.applied}, swapped={self.swapped}, "
            f"generation={self.generation})"
        )


class AttachedStore:
    """A read-only mmap view of one store file, usable for serving.

    Prefer :func:`attach_store`. The attached arrays are zero-copy
    views into the mapping; everything derived (index, components,
    engines) shares the page cache across processes. Use as a context
    manager — or register with an
    :class:`~repro.parallel.context.ExecutionContext` via ``ctx=`` —
    so the mapping is released before backend teardown unlinks shared
    resources.
    """

    def __init__(self, path, *, verify: bool = False, ctx=None) -> None:
        self.path = Path(path)
        self.closed = False
        self._ctx = ctx
        self._engines: list = []
        self._dynamic = None
        self._journal: JournalReader | None = None
        self._mm: mmap.mmap | None = None
        self._file = None
        t0 = time.perf_counter()
        self._map(verify=verify)
        attach_ms = (time.perf_counter() - t0) * 1000.0
        metrics.observe(
            "repro.store.attach_ms", attach_ms, boundaries=DEFAULT_MS_BOUNDARIES
        )
        metrics.set_gauge("repro.store.bytes_mapped", self.bytes_mapped)
        metrics.set_gauge("repro.store.generation", self.generation)
        self.attach_ms = attach_ms
        if ctx is not None and hasattr(ctx, "register_closer"):
            ctx.register_closer(self.close)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def _map(self, verify: bool = False) -> None:
        """(Re)map the file and rebuild the zero-copy object graph."""
        try:
            f = open(self.path, "rb")
        except OSError as exc:
            raise StoreError(f"cannot open store {self.path}: {exc}") from exc
        try:
            _, header_len = parse_prelude(f.read(PRELUDE_BYTES), self.path)
            blob = f.read(header_len)
            if len(blob) != header_len:
                raise CorruptStoreError(f"{self.path}: truncated store header")
            header = parse_header(blob, self.path)
            start = data_start(header_len)
            mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            f.close()
            raise CorruptStoreError(f"{self.path}: cannot map store: {exc}") from exc
        except StoreError:
            f.close()
            raise
        buf = np.frombuffer(mm, dtype=np.uint8)
        if buf.size < start + header["payload_bytes"]:
            _close_quiet(mm, f)
            raise CorruptStoreError(
                f"{self.path}: file truncated ({buf.size} bytes, "
                f"payload needs {start + header['payload_bytes']})"
            )
        sections = header["sections"]
        views = {
            name: section_view(buf, entry, start)
            for name, entry in sections.items()
        }
        if verify:
            for name, entry in sections.items():
                got = section_checksum(views[name].tobytes())
                if got != entry["sha256"]:
                    _close_quiet(mm, f)
                    raise CorruptStoreError(
                        f"{self.path}: section {name!r} checksum mismatch"
                    )
        try:
            graph, index, components = _object_graph(header, views)
        except (GraphConstructionError, InvalidParameterError) as exc:
            _close_quiet(mm, f)
            raise CorruptStoreError(f"{self.path}: {exc}") from exc
        # release the previous mapping (a refresh-after-swap path)
        self._release_mapping()
        self._file, self._mm, self._buf = f, mm, buf
        self.header = header
        self.generation = int(header["generation"])
        self.base_generation = self.generation
        self.bytes_mapped = int(buf.size)
        self.graph, self.index, self.components = graph, index, components
        self._dynamic = None
        self._journal = None

    def _release_mapping(self) -> None:
        mm, f = self._mm, self._file
        self._mm = self._file = None
        self._buf = None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                # zero-copy views are still referenced outside this
                # object; the OS unmaps when the last view is collected
                pass
        if f is not None:
            f.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def engine(self, cache_size: int = 1024):
        """A :class:`~repro.serve.QueryEngine` over the attached index.

        Uses the stored component tables when present (no union-find
        sweep); the engine is re-bound automatically by :meth:`refresh`.
        """
        from repro.serve.engine import QueryEngine

        eng = QueryEngine(
            self.index, ctx=self._ctx, cache_size=cache_size,
            components=self.components,
        )
        self._engines.append(eng)
        return eng

    # ------------------------------------------------------------------
    # Staleness + journal replay
    # ------------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the on-disk file was swapped since this attach."""
        return int(read_header(self.path)["generation"]) != self.base_generation

    def pending_updates(self) -> int:
        """Journal entries appended since the last refresh (the lag)."""
        reader = self._journal_reader()
        lag = reader.pending() if reader is not None else 0
        metrics.set_gauge("repro.store.journal_lag", lag)
        return lag

    def _journal_reader(self) -> JournalReader | None:
        if self._journal is None:
            jpath = default_journal_path(self.path)
            if not jpath.exists():
                return None
            self._journal = JournalReader(
                jpath, base_generation=self.base_generation,
                seen_generation=self.generation,
            )
        return self._journal

    def refresh(self, variant: str = "afforest", until: int | None = None) -> RefreshReport:
        """Bring the attached view up to date with writers.

        * File swapped (generation moved) → clean re-attach; every
          engine created by :meth:`engine` is re-bound to the new index.
        * Journal entries appended → replay them in place through a
          :class:`~repro.equitruss.dynamic.DynamicEquiTruss` seeded
          from the attached arrays (triangles are enumerated once on
          the first replay, then maintained incrementally). ``until``
          stops the replay at that generation.
        """
        if self.closed:
            raise StoreError(f"store {self.path} is closed")
        if self.is_stale():
            self._map()
            metrics.inc("repro.store.reattaches")
            for eng in self._engines:
                eng.refresh(self.index, components=self.components)
            return RefreshReport(0, True, self.generation)
        reader = self._journal_reader()
        entries = reader.poll(until) if reader is not None else []
        if not entries:
            metrics.set_gauge("repro.store.journal_lag", 0)
            return RefreshReport(0, False, self.generation)
        dynamic = self._ensure_dynamic(variant)
        for entry in entries:
            if entry.op == "insert":
                dynamic.insert_edges(entry.u, entry.v)
            else:
                dynamic.remove_edges(entry.u, entry.v)
            self.generation = entry.generation
        self.index = dynamic.index
        self.graph = dynamic.graph
        self.components = None  # journal deltas invalidate the stored tables
        for eng in self._engines:
            eng.refresh(self.index)
        metrics.inc("repro.store.replayed_entries", len(entries))
        metrics.set_gauge("repro.store.journal_lag", 0)
        metrics.set_gauge("repro.store.generation", self.generation)
        return RefreshReport(len(entries), False, self.generation)

    def _ensure_dynamic(self, variant: str):
        if self._dynamic is None:
            from repro.equitruss.dynamic import DynamicEquiTruss

            self._dynamic = DynamicEquiTruss(
                self.graph, variant,
                trussness=self.index.trussness, index=self.index,
            )
        return self._dynamic

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the index/engine references and unmap the file.

        Idempotent. Views handed out and still referenced elsewhere
        keep the mapping alive until they are collected (POSIX) — but
        the store itself releases its handles eagerly, so closing
        before backend teardown (the
        :meth:`~repro.parallel.context.ExecutionContext.close`
        ordering) never leaves a dangling handle on the swapped file.
        """
        if self.closed:
            return
        self.closed = True
        self._engines.clear()
        self._dynamic = None
        self._journal = None
        self.index = None  # type: ignore[assignment]
        self.components = None
        self.graph = None  # type: ignore[assignment]
        self._release_mapping()

    def __enter__(self) -> "AttachedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else f"gen={self.generation}"
        return f"AttachedStore({self.path.name}, {state})"


def attach_store(
    path, *, verify: bool = False, ctx=None, expect_graph=None
) -> AttachedStore:
    """Map a store read-only and return the attached serving stack.

    ``verify=True`` checks every section checksum before returning
    (attach stays mmap-speed without it; ``store verify`` in the CLI
    always checks). ``expect_graph`` asserts the store was built from
    the given graph (sha256 dataset fingerprint) and raises
    :class:`StoreError` on mismatch. ``ctx`` registers the mapping
    with the context's teardown ordering.
    """
    store = AttachedStore(path, verify=verify, ctx=ctx)
    if expect_graph is not None:
        from repro.obs.manifest import dataset_fingerprint

        expected = dataset_fingerprint(expect_graph)["sha256"]
        declared = store.header["dataset"]["sha256"]
        if expected != declared:
            store.close()
            raise StoreError(
                f"{path}: store fingerprint {declared[:12]}… does not match "
                f"the expected graph ({expected[:12]}…)"
            )
    return store
