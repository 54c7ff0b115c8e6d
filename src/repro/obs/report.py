"""ASCII renderings of a trace: per-kernel breakdown and flamegraph.

Accepts either a live :class:`~repro.obs.trace.Tracer` or the span
records loaded by :func:`repro.obs.export.read_trace_jsonl`, so the same
renderers serve ``equitruss index --breakdown`` output and
``equitruss info --trace run.jsonl`` on a saved file. Bar scaling
follows :mod:`repro.bench.ascii` conventions.
"""

from __future__ import annotations

from repro.obs.trace import Tracer


def _as_records(trace) -> list[dict]:
    if isinstance(trace, Tracer):
        from repro.obs.export import trace_records

        return [r for r in trace_records(trace) if r["type"] == "span"]
    return [r for r in trace if r.get("type", "span") == "span"]


def aggregate_spans(trace, include=None) -> dict[str, float]:
    """Seconds per span name in first-seen order.

    A parent span's time includes its children's; pass ``include`` (an
    iterable of names, e.g. the paper's kernel list) to keep only the
    rows that are meaningful side by side.
    """
    keep = set(include) if include is not None else None
    out: dict[str, float] = {}
    for rec in _as_records(trace):
        name = rec["name"]
        if keep is not None and name not in keep:
            continue
        out[name] = out.get(name, 0.0) + rec["seconds"]
    return out


def format_bytes(n: float) -> str:
    """Human-readable byte count (binary units)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - unreachable


def peak_memory_by_name(trace, include=None) -> dict[str, float]:
    """Peak ``ws_peak`` span attribute per name (workspace high-water).

    Regions record the execution context's workspace high-water mark at
    close; aggregating the maximum per kernel name gives the memory
    column of ``equitruss info --trace``. Names without the attribute
    are omitted.
    """
    keep = set(include) if include is not None else None
    out: dict[str, float] = {}
    for rec in _as_records(trace):
        if keep is not None and rec["name"] not in keep:
            continue
        attrs = rec.get("attrs") or {}
        if "ws_peak" in attrs:
            out[rec["name"]] = max(out.get(rec["name"], 0.0), float(attrs["ws_peak"]))
    return out


def breakdown_table(trace, include=None, width: int = 40, title=None) -> str:
    """Per-kernel seconds as a bar chart plus percentage column.

    When spans carry ``ws_peak`` attributes (runs under an
    ``ExecutionContext``), each row also shows the workspace high-water
    bytes observed by the end of that kernel.
    """
    from repro.bench.ascii import bar_chart

    agg = aggregate_spans(trace, include=include)
    if not agg:
        return "(no spans)"
    mem = peak_memory_by_name(trace, include=include)
    total = sum(agg.values()) or 1.0
    labels = []
    for name, secs in agg.items():
        label = f"{name} {100.0 * secs / total:5.1f}%"
        if name in mem:
            label += f" ws={format_bytes(mem[name])}"
        labels.append(label)
    chart = bar_chart(labels, list(agg.values()), width=width, title=title, unit="s")
    summary = f"\ntotal {total:.4f}s over {len(agg)} span names"
    if mem:
        summary += f", peak workspace {format_bytes(max(mem.values()))}"
    return chart + summary


def flamegraph(trace, width: int = 40) -> str:
    """Indented span tree with bars proportional to each span's share.

    The classic flamegraph turned sideways: depth is indentation, bar
    length is the span's fraction of the total root time.
    """
    records = _as_records(trace)
    if not records:
        return "(no spans)"
    total = sum(r["seconds"] for r in records if r["parent"] is None) or 1.0
    label_w = max(2 * r["depth"] + len(r["name"]) for r in records)
    lines = []
    for rec in records:
        label = "  " * rec["depth"] + rec["name"]
        frac = rec["seconds"] / total
        bar = "#" * min(max(int(round(width * frac)), 1 if rec["seconds"] > 0 else 0), width)
        attrs = rec.get("attrs") or {}
        suffix = ""
        if "k" in attrs:
            suffix = f" k={attrs['k']}"
        lines.append(
            f"{label.ljust(label_w)} | {rec['seconds']:9.4f}s {100 * frac:5.1f}% "
            f"{bar}{suffix}"
        )
    return "\n".join(lines)
