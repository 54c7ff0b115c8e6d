"""Crash atomicity + typed failure modes of the store.

A writer killed at any point — an exception between section writes or a
hard ``os._exit`` mid-write in a child process — must leave the old
readable generation untouched and no torn store. Corruption (flipped
payload bytes, truncation, foreign files) must surface as
:class:`CorruptStoreError`, never as garbage arrays; mismatched inputs
as :class:`StoreError`. Teardown is ordered: mappings registered with
an :class:`ExecutionContext` are released before the backend closes.
"""

import json
import os
import sys
import subprocess

import numpy as np
import pytest

import repro.store.writer as writer_mod
from repro.equitruss.pipeline import build_index
from repro.errors import CorruptStoreError, StaleStoreError, StoreError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm, rmat_graph
from repro.parallel.context import ExecutionContext
from repro.store import attach_store, inspect_store
from repro.store.format import (
    COMPONENT_SECTIONS,
    PRELUDE_BYTES,
    REQUIRED_SECTIONS,
    STORE_MAGIC,
    data_start,
    parse_header,
    parse_prelude,
)
from repro.store.reader import read_header, verify_store
from repro.store.writer import write_store

#: every section a store built with components carries
ALL_SECTIONS = REQUIRED_SECTIONS + COMPONENT_SECTIONS


@pytest.fixture
def built(tmp_path):
    g = CSRGraph.from_edgelist(erdos_renyi_gnm(150, 1000, seed=2))
    result = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx")
    return g, result


def _tmp_litter(path):
    return [p for p in path.parent.iterdir() if ".tmp-" in p.name]


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("die_at", ["graph.u", "index.trussness", *COMPONENT_SECTIONS])
def test_writer_exception_mid_write_preserves_old_store(built, die_at):
    g, result = built
    path = result.store_path
    before = path.read_bytes()

    def interceptor(section):
        if section == die_at:
            raise _Boom(section)

    writer_mod._write_interceptor = interceptor
    try:
        with pytest.raises(_Boom):
            build_index(g, "afforest", store_path=path, store_generation=2)
    finally:
        writer_mod._write_interceptor = None
    assert path.read_bytes() == before
    assert not _tmp_litter(path)
    with attach_store(path, verify=True) as store:
        assert store.generation == 1


_KILL_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
import repro.store.writer as writer_mod
from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm

g = CSRGraph.from_edgelist(erdos_renyi_gnm(150, 1000, seed=2))
result = build_index(g, "afforest")

def die(section):
    if section == "index.supernode_edges":
        os._exit(42)  # simulate SIGKILL mid-write: no cleanup, no flush

writer_mod._write_interceptor = die
writer_mod.write_store(result.index, {path!r}, generation=5)
os._exit(0)
"""


def test_writer_hard_killed_mid_write_old_generation_attaches(built):
    g, result = built
    path = result.store_path
    before = path.read_bytes()
    src = os.path.join(os.path.dirname(writer_mod.__file__), "..", "..")
    proc = subprocess.run(
        [sys.executable, "-c",
         _KILL_SCRIPT.format(src=os.path.abspath(src), path=str(path))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 42, proc.stderr
    # the kill leaves a tmp file (no cleanup ran) but never a torn store
    assert path.read_bytes() == before
    with attach_store(path, verify=True) as store:
        assert store.generation == 1
        assert store.engine().query(0, 3) is not None
    assert verify_store(path)["ok"]


def test_flipped_payload_byte_is_detected(built):
    _, result = built
    path = result.store_path
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0xFF  # flip one payload byte near the tail
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptStoreError, match="checksum mismatch"):
        attach_store(path, verify=True)
    with pytest.raises(CorruptStoreError):
        verify_store(path)
    # unverified attach maps fine — verification is what detects rot
    attach_store(path).close()


@pytest.mark.parametrize("section", ALL_SECTIONS)
def test_corrupt_section_is_named(built, section):
    _, result = built
    path = result.store_path
    header = read_header(path)
    entry = header["sections"][section]
    assert entry["nbytes"], section
    blob = bytearray(path.read_bytes())
    _, header_len = parse_prelude(bytes(blob[:PRELUDE_BYTES]))
    blob[data_start(header_len) + entry["offset"] + entry["nbytes"] - 1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptStoreError, match=f"section {section!r} checksum"):
        attach_store(path, verify=True)


def _flip_middle(path, section, mask=0xFF):
    """Flip the high-order byte of ``section``'s middle value."""
    entry = read_header(path)["sections"][section]
    itemsize = np.dtype(entry["dtype"]).itemsize
    middle = entry["nbytes"] // itemsize // 2
    blob = bytearray(path.read_bytes())
    _, header_len = parse_prelude(bytes(blob[:PRELUDE_BYTES]))
    blob[data_start(header_len) + entry["offset"] + (middle + 1) * itemsize - 1] ^= mask
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("mask", (0x40, 0xFF), ids=("large", "negative"))
@pytest.mark.parametrize(
    "section", ("graph.u", "serve.label_offsets", "index.supernode_indptr")
)
def test_flipped_value_fails_unverified_attach_typed(built, section, mask):
    """A flipped high-order byte fails the plain attach typed and at
    once, not in the first query (``supernode_indptr`` is bounded at
    attach), and the in-memory constructors' errors become
    :class:`CorruptStoreError`."""
    _, result = built
    _flip_middle(result.store_path, section, mask)
    with pytest.raises(CorruptStoreError, match=str(result.store_path)):
        attach_store(result.store_path)


def test_corrupt_swapped_store_keeps_the_old_generation(built):
    g, result = built
    path = result.store_path
    with attach_store(path) as store:
        engine = store.engine(cache_size=0)
        before = [engine.query(v, 3, record=False) for v in range(20)]
        # a rebuild swaps the file at the next generation
        build_index(g, "afforest", store_path=path, store_generation=2)
        _flip_middle(path, "index.supernode_indptr")
        with pytest.raises(CorruptStoreError, match="supernode_indptr"):
            store.refresh()
        assert store.generation == 1
        assert [engine.query(v, 3, record=False) for v in range(20)] == before


def test_section_off_the_store_dtype_is_rejected(built):
    _, result = built
    with open(result.store_path, "rb") as f:
        _, header_len = parse_prelude(f.read(PRELUDE_BYTES))
        blob = f.read(header_len)
    parse_header(blob)
    doc = json.loads(blob)
    doc["sections"]["serve.level_labels"]["dtype"] = "<i8"
    with pytest.raises(CorruptStoreError, match="not the store dtype"):
        parse_header(json.dumps(doc).encode())
    doc["store_dtype"] = "<f8"
    with pytest.raises(CorruptStoreError, match="store dtype"):
        parse_header(json.dumps(doc).encode())


def test_truncated_file_is_detected(built):
    _, result = built
    path = result.store_path
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 257])
    with pytest.raises(CorruptStoreError, match="truncated"):
        attach_store(path)


def test_foreign_and_garbage_files_are_rejected(tmp_path):
    bad_magic = tmp_path / "notastore"
    bad_magic.write_bytes(b"NOTASTOR" + b"\x00" * 64)
    with pytest.raises(CorruptStoreError, match="bad magic"):
        read_header(bad_magic)
    short = tmp_path / "short"
    short.write_bytes(STORE_MAGIC[:4])
    with pytest.raises(CorruptStoreError, match="too short"):
        read_header(short)
    missing = tmp_path / "missing"
    with pytest.raises(StoreError):
        attach_store(missing)


def test_unsupported_format_version_is_rejected(built):
    _, result = built
    path = result.store_path
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # format-version field of the prelude
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptStoreError, match="version"):
        attach_store(path)


def test_version_1_store_is_rejected_typed(built, capsys):
    from repro.cli import main

    _, result = built
    path = result.store_path
    blob = bytearray(path.read_bytes())
    blob[8:12] = (1).to_bytes(4, "little")  # a format-1 prelude
    path.write_bytes(bytes(blob))
    for call in (attach_store, inspect_store, verify_store):
        with pytest.raises(CorruptStoreError, match="format version 1"):
            call(path)
    assert main(["store", "inspect", str(path)]) == 1
    assert "unsupported store format version 1" in capsys.readouterr().err


def test_expect_graph_mismatch_raises_typed_error(built, tmp_path):
    _, result = built
    other = CSRGraph.from_edgelist(rmat_graph(6, 6, seed=9))
    with pytest.raises(StoreError, match="fingerprint"):
        attach_store(result.store_path, expect_graph=other)
    # matching graph passes
    attach_store(result.store_path, expect_graph=result.index.graph).close()


def test_error_taxonomy():
    assert issubclass(CorruptStoreError, StoreError)
    assert issubclass(StaleStoreError, StoreError)
    from repro.errors import ReproError

    assert issubclass(StoreError, ReproError)


def test_ctx_close_releases_mapping_before_backend(built):
    _, result = built
    ctx = ExecutionContext(backend="process", num_workers=2)
    store = attach_store(result.store_path, ctx=ctx)
    assert not store.closed
    ctx.close()  # closers run before backend teardown
    assert store.closed
    # double close is a no-op; a fresh attach still works
    store.close()
    attach_store(result.store_path).close()


def test_closed_store_refuses_refresh(built):
    _, result = built
    store = attach_store(result.store_path)
    store.close()
    with pytest.raises(StoreError, match="closed"):
        store.refresh()
