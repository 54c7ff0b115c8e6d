"""Run provenance manifests.

A manifest is the "where did this number come from" record written
alongside every exported trace: git revision, host, backend and worker
count, dtype policy, a content hash of the input dataset, the run's
peak workspace / shared-memory bytes, and the schema versions of every
sibling artifact. The CLI writes it next to ``--trace-out`` files,
the store writer embeds it in every ``.eqtsidx`` header, and the
benchmark trace dumps (``REPRO_TRACE_DIR``) write one per trace — so
any perf figure can be traced back to the exact code, data, and machine
that produced it.

All collectors degrade gracefully: no git checkout → ``git_sha: null``,
no context → the execution block is ``null``, and so on. Validation
(:func:`validate_manifest`) checks shape, not completeness.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.obs.trace import TRACE_SCHEMA_VERSION

MANIFEST_SCHEMA = "repro.manifest"
MANIFEST_SCHEMA_VERSION = 1


def git_sha(cwd=None) -> str | None:
    """The checked-out git revision, or ``None`` outside a work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else str(Path(__file__).resolve().parent),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - no git binary
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


#: Elements hashed per block by :func:`dataset_fingerprint`.
_FINGERPRINT_BLOCK = 1 << 20


def dataset_fingerprint(graph, name: str | None = None) -> dict:
    """Content identity of an input graph: sizes + edge-array sha256.

    Accepts a :class:`~repro.graph.csr.CSRGraph` (hashes its canonical
    edge list) or anything with ``u``/``v`` arrays. The hash covers both
    endpoint arrays as int64 little-endian values, whatever their dtype,
    so a re-generated dataset with identical edges fingerprints
    identically regardless of file path, and a narrow (int32) mapped
    graph matches the int64 one it was written from.
    """
    edges = getattr(graph, "edges", graph)
    digest = hashlib.sha256()
    for arr in (edges.u, edges.v):
        # bounded blocks: a narrow array is widened one block at a time
        for lo in range(0, arr.size, _FINGERPRINT_BLOCK):
            block = arr[lo : lo + _FINGERPRINT_BLOCK]
            digest.update(np.ascontiguousarray(block, dtype="<i8"))
    return {
        "name": name,
        "vertices": int(getattr(graph, "num_vertices", edges.num_vertices)),
        "edges": int(getattr(graph, "num_edges", edges.num_edges)),
        "sha256": digest.hexdigest(),
    }


def schema_versions() -> dict:
    """Schema versions of every artifact family a run can emit."""
    from repro.serve.protocol import PROTOCOL_VERSION
    from repro.store.format import STORE_FORMAT_VERSION
    from repro.store.journal import JOURNAL_SCHEMA_VERSION

    return {
        "trace": TRACE_SCHEMA_VERSION,
        "metrics": METRICS_SCHEMA_VERSION,
        "manifest": MANIFEST_SCHEMA_VERSION,
        "store": STORE_FORMAT_VERSION,
        "journal": JOURNAL_SCHEMA_VERSION,
        "wire": PROTOCOL_VERSION,
    }


def collect_manifest(
    ctx=None, graph=None, dataset: str | None = None, extra: dict | None = None
) -> dict:
    """Assemble a manifest document for one run.

    ``ctx`` (an :class:`~repro.parallel.context.ExecutionContext`)
    contributes the execution block — backend, workers, dtype policy,
    ``ws_peak`` and shared-memory high-water; ``graph`` + ``dataset``
    the input fingerprint; ``extra`` free-form caller facts (experiment
    name, CLI arguments, ...).
    """
    doc: dict = {
        "schema": MANIFEST_SCHEMA,
        "version": MANIFEST_SCHEMA_VERSION,
        "generated_unix": time.time(),
        "git_sha": git_sha(),
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            # the build's sort primitives lean on NumPy's sort kernels,
            # so build timings are only comparable at one NumPy version
            "numpy": np.__version__,
        },
        "execution": ctx.provenance() if ctx is not None else None,
        "dataset": (
            dataset_fingerprint(graph, name=dataset) if graph is not None else None
        ),
        "schema_versions": schema_versions(),
    }
    if extra:
        doc["extra"] = dict(extra)
    return doc


def validate_manifest(doc: dict) -> None:
    """Raise :class:`GraphFormatError` unless ``doc`` is a manifest."""
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        raise GraphFormatError(f"not a {MANIFEST_SCHEMA!r} document")
    if doc.get("version") != MANIFEST_SCHEMA_VERSION:
        raise GraphFormatError(
            f"manifest version must be {MANIFEST_SCHEMA_VERSION}, "
            f"got {doc.get('version')!r}"
        )
    host = doc.get("host")
    if not isinstance(host, dict) or not isinstance(host.get("cpu_count"), int):
        raise GraphFormatError("manifest host.cpu_count must be an integer")
    versions = doc.get("schema_versions")
    if not isinstance(versions, dict):
        raise GraphFormatError("manifest schema_versions must be an object")
    for field in ("trace", "metrics", "manifest"):
        if not isinstance(versions.get(field), int):
            raise GraphFormatError(f"manifest schema_versions.{field} must be an int")


def write_manifest(doc: dict, path) -> Path:
    """Validate and write a manifest document; returns the path."""
    validate_manifest(doc)
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_manifest(path) -> dict:
    """Load and validate a manifest file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc
    validate_manifest(doc)
    return doc
