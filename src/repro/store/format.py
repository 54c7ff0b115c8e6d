"""The versioned single-file binary container of a persisted index.

Layout
------
::

    offset 0   magic          b"EQTSIDX\\x00"            (8 bytes)
    offset 8   format version uint32 little-endian       (4 bytes)
    offset 12  header length  uint32 little-endian       (4 bytes)
    offset 16  header         UTF-8 JSON                 (header length bytes)
    ...        zero padding to the next 64-byte boundary
    data       section payloads, each 64-byte aligned

The JSON header carries everything needed to interpret the payload
without touching it: the schema-version table
(:func:`repro.obs.manifest.schema_versions`), the sha256 dataset
fingerprint of the indexed edge list, the store *generation* (the
journal protocol's epoch counter), the store-wide integer dtype
(``store_dtype``), an optional embedded provenance manifest, and the
**section directory** — for every array section its name, dtype string,
shape, payload-relative offset, byte length, and sha256 checksum.

Sections
--------
::

    graph.u, graph.v            canonical edge list (u < v, sorted)    [m]
    graph.indptr                CSR row offsets                        [n + 1]
    graph.indices               CSR neighbour ids                      [2m]
    graph.edge_ids              CSR slot -> edge id                    [2m]
    index.trussness             τ per edge                             [m]
    index.edge_supernode        supernode per edge, -1 for τ = 2       [m]
    index.supernode_trussness   τ per supernode, non-decreasing        [S]
    index.supernode_indptr      supernode -> member-edge offsets       [S + 1]
    index.supernode_edges       member edge ids                        [Σ]
    index.superedges            (lo, hi) supernode pairs               [SE, 2]
    serve.levels                distinct supernode τ, ascending        [L]      optional
    serve.label_offsets         label suffix bounds per level          [L + 1]  optional
    serve.level_labels          concatenated label suffixes            [Σ]      optional

A verified attach checksums every section in the directory, but
readers use only these names: a section they do not know (the
``graph.edge_order`` that earlier writers added) is ignored.

**One narrow dtype.** Every section holds one store-wide integer dtype
(:func:`store_dtype`): little-endian int32 when ``max(n, 2m)`` and the
label-section length fit int32 — those bound every value any section
holds — else int64. The header records it as ``store_dtype``, and a
section of any other dtype is a corrupt store. The in-memory index a
build returns stays int64; attach hands the narrow mapped views to the
serving stack as they are.

**Suffix labels.** Supernode ids ascend by trussness, so for each level
L the supernodes with τ ≥ L — the only ones with a component at L — are
the id suffix ``[first_L, S)``. ``serve.level_labels`` holds, level by
level in ``serve.levels`` order, the component label (minimum member
supernode id) of exactly that suffix; level i's labels are
``level_labels[label_offsets[i]:label_offsets[i + 1]]`` and
``first_L = S - (label_offsets[i + 1] - label_offsets[i])``. The lowest
level covers every supernode, so ``S = label_offsets[1]``.

Sections are raw C-contiguous array bytes. Payload-relative offsets are
multiples of 64 and the payload itself starts on a 64-byte file offset,
so every section is 64-byte aligned in the file and an attached
read-only map yields aligned zero-copy NumPy views.

This module owns the byte-level encoding (header build/parse, alignment,
checksums, the dtype rule); :mod:`repro.store.writer` and
:mod:`repro.store.reader` own the atomic-swap and mmap-attach protocols
on top of it.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time

import numpy as np

from repro.errors import CorruptStoreError
from repro.parallel.context import fits_int32

#: First 8 bytes of every store file.
STORE_MAGIC = b"EQTSIDX\x00"

#: Bumped whenever the container layout or the section set changes
#: incompatibly. Readers refuse other versions.
STORE_FORMAT_VERSION = 2

#: Section payload alignment: one cache line / the widest vector unit,
#: so memmap views are aligned for any dtype the store can hold.
STORE_ALIGN = 64

#: Fixed-size prelude before the JSON header: magic + version + length.
_PRELUDE = struct.Struct("<8sII")
PRELUDE_BYTES = _PRELUDE.size

#: Sections every store must contain (the graph + the seven index
#: arrays); ``serve.*`` component tables are optional extras.
REQUIRED_SECTIONS = (
    "graph.u",
    "graph.v",
    "graph.indptr",
    "graph.indices",
    "graph.edge_ids",
    "index.trussness",
    "index.edge_supernode",
    "index.supernode_trussness",
    "index.supernode_indptr",
    "index.supernode_edges",
    "index.superedges",
)

#: Optional precomputed serving tables (written when components are
#: supplied; their presence lets attach skip the union-find sweep):
#: the levels, then the per-level label-suffix offsets and labels.
COMPONENT_SECTIONS = ("serve.levels", "serve.label_offsets", "serve.level_labels")

#: The store dtypes the reader accepts: the format is little-endian.
STORE_DTYPES = ("<i4", "<i8")


def store_dtype(num_vertices: int, num_edges: int, label_entries: int = 0) -> np.dtype:
    """The one integer dtype of every section of a store.

    No section holds a value above ``max(n, 2m)`` — vertex ids, CSR
    offsets, edge and supernode ids, τ — except the label offsets, which
    reach the label-section length. So int32 when that maximum fits,
    else int64.
    """
    bound = max(int(num_vertices), 2 * int(num_edges), int(label_entries))
    return np.dtype(STORE_DTYPES[0] if fits_int32(bound) else STORE_DTYPES[1])


def align_up(n: int, align: int = STORE_ALIGN) -> int:
    """Smallest multiple of ``align`` that is >= ``n``."""
    return (n + align - 1) // align * align


def section_checksum(data) -> str:
    """sha256 hex digest of a section's raw bytes."""
    return hashlib.sha256(data).hexdigest()


def build_header(
    *,
    sections: dict[str, np.ndarray],
    dataset: dict,
    generation: int,
    num_vertices: int,
    manifest: dict | None = None,
) -> tuple[bytes, list[tuple[str, np.ndarray, int]]]:
    """Serialize the prelude + JSON header and lay out the payload.

    Every section must already hold the store dtype
    (:func:`store_dtype`). Returns the encoded header block (prelude +
    JSON + padding to the payload start) and the payload plan: ``(name,
    array, relative offset)`` triples in write order. Offsets are
    payload-relative, so the directory is independent of the header's
    own length.
    """
    from repro.obs.manifest import schema_versions

    directory: dict[str, dict] = {}
    plan: list[tuple[str, np.ndarray, int]] = []
    offset = end = 0
    dtypes = {np.dtype(arr.dtype).str for arr in sections.values()}
    if len(dtypes) != 1 or not dtypes <= set(STORE_DTYPES):
        raise ValueError(f"store sections must share one store dtype, got {dtypes}")
    (dtype,) = dtypes
    for name, arr in sections.items():
        arr = np.ascontiguousarray(arr)
        payload = arr.data if arr.size else b""
        directory[name] = {
            "offset": offset,
            "nbytes": int(arr.nbytes),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "sha256": section_checksum(payload),
        }
        plan.append((name, arr, offset))
        end = offset + arr.nbytes
        offset = align_up(end)
    header = {
        "format_version": STORE_FORMAT_VERSION,
        "created_unix": time.time(),
        "generation": int(generation),
        "num_vertices": int(num_vertices),
        "store_dtype": dtype,
        "dataset": dataset,
        "schema_versions": schema_versions(),
        # exact payload extent: the last section's end, no tail padding
        "payload_bytes": end,
        "sections": directory,
    }
    if manifest is not None:
        header["manifest"] = manifest
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    prelude = _PRELUDE.pack(STORE_MAGIC, STORE_FORMAT_VERSION, len(blob))
    block = prelude + blob
    block += b"\x00" * (align_up(len(block)) - len(block))
    return block, plan


def parse_prelude(raw: bytes, path=None) -> tuple[int, int]:
    """Validate the fixed prelude; returns (format version, header len)."""
    where = f"{path}: " if path is not None else ""
    if len(raw) < PRELUDE_BYTES:
        raise CorruptStoreError(f"{where}file too short for a store prelude")
    magic, version, header_len = _PRELUDE.unpack_from(raw)
    if magic != STORE_MAGIC:
        raise CorruptStoreError(f"{where}bad magic {magic!r}; not an index store")
    if version != STORE_FORMAT_VERSION:
        raise CorruptStoreError(
            f"{where}unsupported store format version {version} "
            f"(reader supports {STORE_FORMAT_VERSION})"
        )
    return version, header_len


def parse_header(blob: bytes, path=None) -> dict:
    """Decode and structurally validate the JSON header."""
    where = f"{path}: " if path is not None else ""
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptStoreError(f"{where}unreadable store header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptStoreError(f"{where}store header must be a JSON object")
    sections = header.get("sections")
    if not isinstance(sections, dict):
        raise CorruptStoreError(f"{where}store header lacks a section directory")
    for name in REQUIRED_SECTIONS:
        if name not in sections:
            raise CorruptStoreError(f"{where}store is missing section {name!r}")
    dtype = header.get("store_dtype")
    if dtype not in STORE_DTYPES:
        raise CorruptStoreError(
            f"{where}store dtype {dtype!r} is not one of {STORE_DTYPES}"
        )
    for name, entry in sections.items():
        if not isinstance(entry, dict):
            raise CorruptStoreError(f"{where}section {name!r} entry malformed")
        for field, typ in (
            ("offset", int), ("nbytes", int), ("dtype", str),
            ("shape", list), ("sha256", str),
        ):
            if not isinstance(entry.get(field), typ):
                raise CorruptStoreError(
                    f"{where}section {name!r} field {field!r} malformed"
                )
        if entry["offset"] % STORE_ALIGN:
            raise CorruptStoreError(
                f"{where}section {name!r} offset {entry['offset']} is not "
                f"{STORE_ALIGN}-byte aligned"
            )
        if entry["dtype"] != dtype:
            raise CorruptStoreError(
                f"{where}section {name!r} dtype {entry['dtype']} is not "
                f"the store dtype {dtype}"
            )
    for field, typ in (
        ("generation", int), ("num_vertices", int),
        ("payload_bytes", int), ("dataset", dict),
    ):
        if not isinstance(header.get(field), typ):
            raise CorruptStoreError(f"{where}store header field {field!r} malformed")
    return header


def data_start(header_len: int) -> int:
    """Absolute file offset of the (64-byte aligned) payload."""
    return align_up(PRELUDE_BYTES + header_len)


def section_view(buf: np.ndarray, entry: dict, start: int) -> np.ndarray:
    """Zero-copy view of one section inside the mapped file bytes."""
    off = start + entry["offset"]
    raw = buf[off : off + entry["nbytes"]]
    return raw.view(np.dtype(entry["dtype"])).reshape(entry["shape"])
