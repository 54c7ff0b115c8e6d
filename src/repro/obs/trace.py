"""Hierarchical span tracer — the timing substrate of the repo.

A :class:`Tracer` records a tree of named :class:`Span` objects, each
carrying wall-clock ``seconds`` plus free-form ``attrs`` (kernel name,
level ``k``, work items, rounds, intensity, bytes touched, ...). It is
the only record of a run: every
:meth:`repro.parallel.context.ExecutionContext.region` is a span on the
context's tracer, and the per-kernel breakdown and the machine model
read those region spans back.

Span start times are seconds relative to the owning tracer's epoch
(``time.perf_counter`` at construction). Traces export to JSONL via
:mod:`repro.obs.export` and render via :mod:`repro.obs.report`.

An *ambient* tracer can be installed with :func:`use_tracer` and read
back with :func:`current_tracer`: :mod:`repro.obs.worker` runs each
worker task under a fresh one, and :mod:`repro.bench.workloads` grafts
each build's spans into the one a bench driver installed.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Schema version stamped into exported traces.
TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One timed, named section of a run.

    ``start`` is relative to the owning tracer's epoch; ``seconds`` is
    filled in when the span closes (0.0 while still open). ``attrs``
    holds JSON-serializable metadata only.
    """

    name: str
    start: float = 0.0
    seconds: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def self_seconds(self) -> float:
        """Seconds not accounted to any child span."""
        return max(self.seconds - sum(c.seconds for c in self.children), 0.0)

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first (pre-order) traversal yielding ``(span, depth)``."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


class Tracer:
    """Collects a forest of spans for one run."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str, **attrs) -> Span:
        """Open a span; it nests under the currently open span, if any."""
        sp = Span(name=name, start=time.perf_counter() - self.epoch, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, sp: Span) -> Span:
        """Close ``sp`` (and any still-open spans nested inside it)."""
        while self._stack:
            top = self._stack.pop()
            top.seconds = (time.perf_counter() - self.epoch) - top.start
            if top is sp:
                return sp
        raise RuntimeError(f"Tracer.end() for span {sp.name!r} that is not open")

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def add(self, name: str, seconds: float, **attrs) -> Span:
        """Record an already-measured span (no clock involved).

        It nests under the currently open span like :meth:`begin` and
        starts where the measurement was reported.
        """
        sp = Span(
            name=name,
            start=time.perf_counter() - self.epoch,
            seconds=float(seconds),
            attrs=dict(attrs),
        )
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        return sp

    def graft(self, other: "Tracer") -> None:
        """Adopt another tracer's root spans.

        Grafted spans keep their original epoch-relative start offsets.
        """
        self.roots.extend(other.roots)

    # ----------------------------------------------------------- inspection

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first traversal of every recorded span with its depth."""
        for root in self.roots:
            yield from root.walk(0)

    def by_name(self, names=None) -> dict[str, float]:
        """Seconds aggregated per span name, in first-seen order.

        Note: a parent's time includes its children's, so filtering with
        ``names`` (an iterable of span names to keep) is how callers
        avoid double counting structural wrapper spans.
        """
        keep = set(names) if names is not None else None
        out: dict[str, float] = {}
        for sp, _ in self.walk():
            if keep is not None and sp.name not in keep:
                continue
            out[sp.name] = out.get(sp.name, 0.0) + sp.seconds
        return out

    @property
    def total_seconds(self) -> float:
        """Sum of root span durations (children are included in parents)."""
        return sum(r.seconds for r in self.roots)

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())


# ----------------------------------------------------------------------
# Ambient tracer
# ----------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The ambient tracer installed by :func:`use_tracer`, or ``None``."""
    return _ACTIVE


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = prev
