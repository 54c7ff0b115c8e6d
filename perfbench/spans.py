"""In-memory spans recorded around the benchmark's own calls into each layer.

A span records name, start, end, parent and request id. With tracing off
``span()`` hands back one shared no-op context, so untraced runs pay a
method call and nothing else. At the end of a traced run the spans are
written in the repro trace schema (``repro.obs.export``), so

    python -m repro info --trace <file> --flame

renders them like any build trace.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

_NULL = nullcontext()


class _Open:
    """Context manager of one live span."""

    __slots__ = ("_spans", "rec")

    def __init__(self, spans: "Spans", rec: dict) -> None:
        self._spans = spans
        self.rec = rec

    def __enter__(self) -> dict:
        self._spans._stack().append(self.rec)
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec["end"] = time.perf_counter()
        self._spans._stack().pop()


class Spans:
    """Span store for one run; a no-op unless ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, parent: dict | None, rid, attrs: dict) -> dict:
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        rec = {
            "name": name, "start": 0.0, "end": 0.0, "rid": rid, "attrs": attrs,
            "parent": parent["id"] if parent is not None else None,
        }
        with self._lock:
            rec["id"] = len(self.records)
            self.records.append(rec)
        return rec

    def span(self, name: str, *, parent: dict | None = None, rid=None, **attrs):
        """Time the ``with`` body; ``parent`` links spans across threads."""
        if not self.enabled:
            return _NULL
        return _Open(self, self._new(name, parent, rid, attrs))

    def add(self, name: str, start: float, end: float, *,
            parent: dict | None = None, rid=None, **attrs) -> None:
        """Record a span whose interval was measured elsewhere."""
        if self.enabled:
            rec = self._new(name, parent, rid, attrs)
            rec["start"], rec["end"] = start, end

    # ------------------------------------------------------------------
    def view(self, root: dict) -> "Spans":
        """The spans under ``root`` (not ``root`` itself) as a store of
        their own; parents are always recorded before their children."""
        sub = Spans(True)
        sub.epoch = self.epoch
        keep = {root["id"]}
        for r in self.records:
            if r["parent"] in keep:
                keep.add(r["id"])
                sub.records.append(r)
        return sub

    def named(self, name: str) -> list[dict]:
        return [r for r in self.records if r["name"] == name]

    def seconds(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.named(name)]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total s, self s); self time excludes the part
        of a span's interval that its children cover."""
        children: dict = defaultdict(list)
        for r in self.records:
            if r["parent"] is not None:
                children[r["parent"]].append((r["start"], r["end"]))
        out: dict[str, list] = {}
        for r in self.records:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(r["id"], ())):
                lo, hi = max(lo, r["start"]), min(hi, r["end"])
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            dur = r["end"] - r["start"]
            entry = out.setdefault(r["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += max(dur - covered, 0.0)
        return {k: tuple(v) for k, v in out.items()}

    def write_jsonl(self, path: Path) -> Path:
        """Export depth-first in the ``repro.trace`` JSONL schema."""
        kids: dict = defaultdict(list)
        roots = []
        for r in self.records:
            (kids[r["parent"]] if r["parent"] is not None else roots).append(r)
        lines = [{"type": "meta", "schema": "repro.trace", "version": 1}]
        stack = [(r, None, 0) for r in sorted(roots, key=lambda r: -r["start"])]
        while stack:
            rec, parent_id, depth = stack.pop()
            sid = len(lines) - 1
            attrs = dict(rec["attrs"])
            if rec["rid"] is not None:
                attrs["rid"] = rec["rid"]
            lines.append({
                "type": "span", "id": sid, "parent": parent_id, "depth": depth,
                "name": rec["name"], "start": rec["start"] - self.epoch,
                "seconds": rec["end"] - rec["start"], "attrs": attrs,
            })
            for child in sorted(kids[rec["id"]], key=lambda r: -r["start"]):
                stack.append((child, sid, depth + 1))
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        return path
