"""Graph IO: SNAP-style edge-list text files and a binary ``.npz`` format.

The paper's datasets come from SNAP [26]; SNAP distributes whitespace-
separated edge lists with ``#`` comment lines. We read and write that
format, plus a compact NumPy archive for fast reload of generated
stand-in datasets.
"""

from __future__ import annotations

import io as _io
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import build_edgelist
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList


def read_snap_text(path: str | Path | _io.TextIOBase) -> EdgeList:
    """Read a SNAP-style whitespace-separated edge list.

    Lines starting with ``#`` (or ``%``, as used by KONECT) are ignored.
    The result is canonicalized (self loops dropped, duplicates merged).
    """
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return read_snap_text(fh)
            except UnicodeDecodeError as exc:
                raise GraphFormatError(f"{path}: not a text edge list ({exc})") from exc
    src: list[int] = []
    dst: list[int] = []
    for lineno, line in enumerate(path, start=1):
        s = line.strip()
        if not s or s.startswith("#") or s.startswith("%"):
            continue
        parts = s.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {s!r}")
        try:
            src.append(int(parts[0]))
            dst.append(int(parts[1]))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id in {s!r}") from exc
    return build_edgelist(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


def write_snap_text(edges: EdgeList, path: str | Path) -> None:
    """Write an edge list as SNAP-style text (one ``u v`` pair per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# Undirected graph: {edges.num_vertices} vertices, {edges.num_edges} edges\n")
        for a, b in zip(edges.u.tolist(), edges.v.tolist()):
            fh.write(f"{a} {b}\n")


def save_npz(edges: EdgeList, path: str | Path) -> None:
    """Save a canonical edge list as a compressed NumPy archive."""
    np.savez_compressed(
        path, u=edges.u, v=edges.v, num_vertices=np.int64(edges.num_vertices)
    )


def load_npz(path: str | Path) -> EdgeList:
    """Load an edge list previously stored with :func:`save_npz`."""
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise GraphFormatError(f"{path}: not a graph .npz archive ({exc})") from exc
    with archive as data:
        try:
            return EdgeList(data["u"], data["v"], int(data["num_vertices"]))
        except KeyError as exc:
            raise GraphFormatError(f"{path}: missing array {exc}") from exc


def load_graph(path: str | Path, ctx=None) -> CSRGraph:
    """Load a graph from ``.npz`` or text based on the file suffix.

    ``ctx`` (an :class:`~repro.parallel.context.ExecutionContext`)
    selects the CSR index dtype through its dtype policy.
    """
    p = Path(path)
    if p.suffix == ".npz":
        return CSRGraph.from_edgelist(load_npz(p), ctx=ctx)
    return CSRGraph.from_edgelist(read_snap_text(p), ctx=ctx)
