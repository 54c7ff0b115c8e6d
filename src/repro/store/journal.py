"""Append-only update journal: how attached readers track a live index.

The store file is immutable between rebuilds; edge updates land in a
sidecar JSONL journal (``<store>.journal`` by default) instead:

* line 0 is an epoch header ``{"schema": "repro.journal", "base": G}``
  binding the journal to the store generation ``G`` it extends;
* every subsequent line is one update batch
  ``{"generation": G+i, "op": "insert"|"remove", "u": [...], "v": [...]}``
  with strictly increasing generation numbers.

Writers (:class:`StoreJournal`) are fed by
:meth:`~repro.equitruss.dynamic.DynamicEquiTruss.publish_to`: every
``insert_edges``/``remove_edges`` batch is appended and fsynced before
the update returns. Readers (:class:`JournalReader`) poll for complete
new lines and replay them; a journal whose epoch no longer matches the
reader's attached generation means the store was swapped underneath —
:class:`~repro.errors.StaleStoreError` — and the reader must re-attach
(:meth:`~repro.store.reader.AttachedStore.refresh` does both ends of
this automatically).

After a rebuild-and-swap the writer calls :meth:`StoreJournal.reset`
with the new base generation, truncating the journal to a fresh epoch
header in one atomic rename (same tmpfile+fsync+replace protocol as
the store itself).
"""

from __future__ import annotations

import json
import os
import secrets
import time
from pathlib import Path

import numpy as np

from repro.errors import CorruptStoreError, StaleStoreError, StoreError

JOURNAL_SCHEMA = "repro.journal"
JOURNAL_SCHEMA_VERSION = 1

#: Update batch operations a journal line may carry.
JOURNAL_OPS = ("insert", "remove")


def default_journal_path(store_path) -> Path:
    """The sidecar journal of a store file: ``<store>.journal``."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.name + ".journal")


class JournalEntry:
    """One decoded update batch."""

    __slots__ = ("generation", "op", "u", "v", "unix")

    def __init__(self, generation: int, op: str, u, v, unix: float = 0.0) -> None:
        if op not in JOURNAL_OPS:
            raise CorruptStoreError(f"unknown journal op {op!r}")
        self.generation = int(generation)
        self.op = op
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.unix = unix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JournalEntry(gen={self.generation}, op={self.op}, "
            f"edges={self.u.size})"
        )


def _epoch_line(base_generation: int) -> str:
    return json.dumps(
        {
            "schema": JOURNAL_SCHEMA,
            "version": JOURNAL_SCHEMA_VERSION,
            "base": int(base_generation),
            "unix": time.time(),
        },
        sort_keys=True,
    )


def _parse_epoch(line: str, path) -> int:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptStoreError(f"{path}: unreadable journal header: {exc}") from exc
    if (
        not isinstance(doc, dict)
        or doc.get("schema") != JOURNAL_SCHEMA
        or not isinstance(doc.get("base"), int)
    ):
        raise CorruptStoreError(f"{path}: not a {JOURNAL_SCHEMA} file")
    if doc.get("version") != JOURNAL_SCHEMA_VERSION:
        raise CorruptStoreError(
            f"{path}: unsupported journal version {doc.get('version')!r}"
        )
    return int(doc["base"])


class StoreJournal:
    """Writer half: append update batches with generation numbers.

    ``base_generation`` must equal the generation of the store file the
    journal extends; an existing journal with a different epoch is a
    protocol error (the caller should :meth:`reset` after a swap).
    """

    def __init__(self, path, base_generation: int) -> None:
        self.path = Path(path)
        self.base_generation = int(base_generation)
        self.generation = self.base_generation
        if self.path.exists():
            base, entries = _scan(self.path)
            if base != self.base_generation:
                raise StaleStoreError(
                    f"{self.path}: journal epoch {base} does not extend store "
                    f"generation {self.base_generation}; reset() after a swap"
                )
            self.generation = entries[-1].generation if entries else base
        else:
            self._write_epoch()

    @classmethod
    def for_store(cls, store_path, path=None) -> "StoreJournal":
        """Journal bound to a store file's current on-disk generation."""
        from repro.store.reader import read_header

        base = int(read_header(store_path)["generation"])
        return cls(path or default_journal_path(store_path), base)

    # ------------------------------------------------------------------
    def _write_epoch(self) -> None:
        tmp = self.path.with_name(
            f"{self.path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(_epoch_line(self.base_generation) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def append(self, op: str, us, vs) -> int:
        """Durably append one update batch; returns its generation."""
        if op not in JOURNAL_OPS:
            raise StoreError(f"journal op must be one of {JOURNAL_OPS}, got {op!r}")
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if us.shape != vs.shape:
            raise StoreError("journal endpoint arrays must align")
        self.generation += 1
        line = json.dumps(
            {
                "generation": self.generation,
                "op": op,
                "u": us.tolist(),
                "v": vs.tolist(),
                "unix": time.time(),
            },
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())
        return self.generation

    def reset(self, base_generation: int) -> None:
        """Start a fresh epoch after the store file was swapped."""
        self.base_generation = int(base_generation)
        self.generation = self.base_generation
        self._write_epoch()

    def __len__(self) -> int:
        return self.generation - self.base_generation


class JournalReader:
    """Reader half: poll a journal for batches newer than what's applied.

    ``base_generation`` is the generation of the store the reader
    attached; ``seen_generation`` the newest batch already applied
    (defaults to the base). :meth:`poll` returns only complete,
    newer-than-seen entries — a partially flushed trailing line is left
    for the next poll, so concurrent appends never tear a read.
    """

    def __init__(
        self, path, base_generation: int, seen_generation: int | None = None
    ) -> None:
        self.path = Path(path)
        self.base_generation = int(base_generation)
        self.seen_generation = int(
            seen_generation if seen_generation is not None else base_generation
        )

    def _entries(self) -> list[JournalEntry]:
        base, entries = _scan(self.path)
        if base != self.base_generation:
            raise StaleStoreError(
                f"{self.path}: journal epoch {base} does not extend attached "
                f"generation {self.base_generation}; re-attach the store"
            )
        return entries

    def pending(self) -> int:
        """How many unapplied batches the journal currently holds."""
        if not self.path.exists():
            return 0
        return sum(
            1 for e in self._entries() if e.generation > self.seen_generation
        )

    def poll(self, until: int | None = None) -> list[JournalEntry]:
        """New complete entries since the last poll (marks them seen);
        with ``until``, only those at generation ``until`` or older."""
        if not self.path.exists():
            return []
        fresh = [
            e for e in self._entries()
            if e.generation > self.seen_generation
            and (until is None or e.generation <= until)
        ]
        if fresh:
            self.seen_generation = fresh[-1].generation
        return fresh


def _scan(path: Path) -> tuple[int, list[JournalEntry]]:
    """Read a journal: (epoch base, complete entries in order)."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreError(f"cannot read journal {path}: {exc}") from exc
    if not raw:
        raise CorruptStoreError(f"{path}: empty journal (missing epoch header)")
    complete = raw.endswith("\n")
    lines = raw.splitlines()
    if not complete:
        lines = lines[:-1]  # a writer is mid-append; pick it up next poll
        if not lines:
            raise CorruptStoreError(f"{path}: empty journal (missing epoch header)")
    base = _parse_epoch(lines[0], path)
    entries: list[JournalEntry] = []
    prev = base
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorruptStoreError(
                f"{path}:{lineno}: unreadable journal entry: {exc}"
            ) from exc
        try:
            entry = JournalEntry(
                doc["generation"], doc["op"], doc["u"], doc["v"],
                doc.get("unix", 0.0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptStoreError(
                f"{path}:{lineno}: malformed journal entry: {exc}"
            ) from exc
        if entry.generation != prev + 1:
            raise CorruptStoreError(
                f"{path}:{lineno}: generation gap ({prev} -> {entry.generation})"
            )
        prev = entry.generation
        entries.append(entry)
    return base, entries
