"""Atomic store writer: tmpfile → fsync → rename swap.

``write_store`` serializes a built :class:`~repro.equitruss.index.EquiTrussIndex`
(plus, optionally, the precomputed
:class:`~repro.serve.components.LevelComponents` serving tables) into
the :mod:`repro.store.format` container. The write is crash-atomic:

1. the whole container is written to a same-directory temporary file;
2. the file (and then its directory entry) are ``fsync``\\ ed;
3. ``os.replace`` swaps it over the destination in one rename.

A writer killed at any point leaves either the old readable generation
or a stray ``*.tmp-*`` file next to it — never a torn store. Readers
attached to the old file keep their mapping (POSIX keeps the unlinked
inode alive) and detect the swap through the generation protocol
(:meth:`repro.store.reader.AttachedStore.refresh`).
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path

import numpy as np

from repro.equitruss.index import EquiTrussIndex
from repro.obs import metrics
from repro.store.format import (
    COMPONENT_SECTIONS,
    REQUIRED_SECTIONS,
    build_header,
    store_dtype,
)

#: Test-only fault-injection hook: called as ``hook(section_name)``
#: after each section's bytes hit the tmp file. The crash-injection
#: suite uses it to die mid-write and prove the swap is atomic.
_write_interceptor = None


def _fsync_dir(path: Path) -> None:
    """Durably record the rename in the parent directory."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX directory handles
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def store_sections(index: EquiTrussIndex, components=None) -> dict[str, np.ndarray]:
    """The section name → array mapping of one index (+ serving tables),
    every array in the one store dtype (:func:`~repro.store.format.store_dtype`).
    """
    graph = index.graph
    sections: dict[str, np.ndarray] = {
        "graph.u": graph.edges.u,
        "graph.v": graph.edges.v,
        "graph.indptr": graph.indptr,
        "graph.indices": graph.indices,
        "graph.edge_ids": graph.edge_ids,
        "index.trussness": index.trussness,
        "index.edge_supernode": index.edge_supernode,
        "index.supernode_trussness": index.supernode_trussness,
        "index.supernode_indptr": index.supernode_indptr,
        "index.supernode_edges": index.supernode_edges,
        "index.superedges": index.superedges,
    }
    assert tuple(sections) == REQUIRED_SECTIONS
    if components is not None:
        sections.update(zip(COMPONENT_SECTIONS, components.to_tables()))
    labels = sections.get(COMPONENT_SECTIONS[-1])
    dtype = store_dtype(
        graph.num_vertices, graph.num_edges, 0 if labels is None else labels.size
    )
    return {name: arr.astype(dtype, copy=False) for name, arr in sections.items()}


def write_store(
    index: EquiTrussIndex,
    path,
    *,
    components=None,
    generation: int = 1,
    dataset: str | None = None,
    manifest: bool | dict = True,
    ctx=None,
) -> Path:
    """Persist ``index`` to ``path`` with an atomic rename swap.

    ``components`` (a :class:`~repro.serve.components.LevelComponents`)
    adds the precomputed serving tables so attach can skip the
    union-find sweep. ``generation`` seeds the journal protocol's epoch
    counter; a rebuild that swaps over a live store must bump it past
    every journal entry it absorbed. ``manifest=True`` embeds a
    provenance manifest (:func:`repro.obs.manifest.collect_manifest`)
    in the header; pass a dict to embed a caller-built one, or
    ``False`` to omit.
    """
    from repro.obs.manifest import collect_manifest, dataset_fingerprint

    path = Path(path)
    graph = index.graph
    sections = store_sections(index, components)
    if manifest is True:
        manifest_doc = collect_manifest(
            ctx=ctx, graph=graph, dataset=dataset, extra={"artifact": "store"}
        )
    elif manifest is False:
        manifest_doc = None
    else:
        manifest_doc = manifest
    header, plan = build_header(
        sections=sections,
        dataset=dataset_fingerprint(graph, name=dataset),
        generation=generation,
        num_vertices=graph.num_vertices,
        manifest=manifest_doc,
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}")
    total = len(header)
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            pos = len(header)
            for name, arr, rel in plan:
                target = len(header) + rel
                if target > pos:
                    f.write(b"\x00" * (target - pos))
                    pos = target
                if arr.size:
                    f.write(np.ascontiguousarray(arr).data)
                    pos += arr.nbytes
                if _write_interceptor is not None:
                    _write_interceptor(name)
            total = pos
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        # a failed write must not leave the tmp file behind; the swap
        # either happened (tmp is gone) or never will
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - tmp dir vanished underneath us
            pass
    metrics.inc("repro.store.writes")
    metrics.set_gauge("repro.store.write_bytes", total)
    metrics.set_gauge("repro.store.generation", int(generation))
    return path
