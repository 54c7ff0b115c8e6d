"""Persistent mmap-attach index store.

The paper's economics — build the EquiTruss index once, answer many
community queries cheaply — only pay off in production if *construction
cost is amortized across processes*. This package is that amortization:

* :mod:`repro.store.format` — a versioned single-file binary container
  (magic, format version, schema-version table, sha256 dataset
  fingerprint, checksummed 64-byte-aligned section directory) holding
  the CSR graph arrays, all seven index arrays, and the precomputed
  per-level component tables;
* :mod:`repro.store.writer` — crash-atomic persistence
  (tmpfile → fsync → rename swap);
* :mod:`repro.store.reader` — millisecond read-only mmap attach
  returning a fully usable index + query engine as zero-copy views
  that share the OS page cache across N serving processes;
* :mod:`repro.store.journal` — an append-only update journal fed by
  :class:`~repro.equitruss.dynamic.DynamicEquiTruss` so attached
  readers replay small deltas in place and re-attach after a swap.

The store is the one persisted form of the index: ``repro index
--out`` writes it and every other command attaches it::

    write_store(result.index, "graph.eqtsidx", components=components)
    with attach_store("graph.eqtsidx") as store:   # milliseconds
        engine = store.engine()
        engine.query(vertex, k)                    # ≡ built-from-scratch
        store.refresh()                            # journal replay / re-attach
"""

from repro.errors import CorruptStoreError, StaleStoreError, StoreError
from repro.store.format import STORE_ALIGN, STORE_FORMAT_VERSION, STORE_MAGIC
from repro.store.journal import (
    JournalEntry,
    JournalReader,
    StoreJournal,
    default_journal_path,
)
from repro.store.reader import (
    AttachedStore,
    RefreshReport,
    attach_store,
    inspect_store,
    read_header,
    verify_store,
)
from repro.store.writer import write_store

__all__ = [
    "AttachedStore",
    "CorruptStoreError",
    "JournalEntry",
    "JournalReader",
    "RefreshReport",
    "STORE_ALIGN",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "StaleStoreError",
    "StoreError",
    "StoreJournal",
    "attach_store",
    "default_journal_path",
    "inspect_store",
    "read_header",
    "verify_store",
    "write_store",
]
