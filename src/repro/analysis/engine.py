"""AST contract-linter engine: file discovery, project index, baseline.

The kernel layer's correctness under the process backend rests on
conventions no general-purpose linter knows about — workers must be
picklable module-level functions, every kernel entry point must thread
the one ``ExecutionContext``, span/metric names must be greppable
literals, and ``u·N + v`` key arithmetic must be overflow-guarded. This
module is the machinery that makes those conventions machine-checked:

* :class:`ModuleInfo` — one parsed source file plus its suppression
  pragmas (``# repro: allow(REPnnn)`` on the offending line).
* :class:`ProjectIndex` — the cross-module facts rules need: which
  functions accept ``ctx``, which functions are process-pool workers,
  which module-level names are string constants, and each module's
  import aliases.
* :func:`run_lint` — discover, index, run every rule, drop suppressed
  findings.
* :class:`Baseline` — grandfathering with zero tolerance for *new*
  findings: entries match by a line-move-tolerant fingerprint
  (path + rule + stripped source line), and each entry carries a note
  explaining why it is allowed to stay.

Rules themselves live in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: ``# repro: allow(REP001)`` or ``# repro: allow(REP001, REP004)``.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\(\s*(REP\d{3}(?:\s*,\s*REP\d{3})*)\s*\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    hint: str
    snippet: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-move-tolerant identity used for baseline matching."""
        basis = f"{self.path}::{self.rule}::{self.snippet}"
        return hashlib.sha1(basis.encode("utf-8")).hexdigest()[:12]

    def format(self) -> str:
        out = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleInfo:
    """A parsed source module plus the metadata rules consume."""

    path: Path
    rel: str
    module: str  # dotted name, e.g. ``repro.truss.decompose``
    lines: list[str]
    tree: ast.Module
    suppressed: dict[int, set[str]]  # line number -> allowed rule ids

    @property
    def package(self) -> str:
        """First sub-package under ``repro`` ('' for top-level modules)."""
        parts = self.module.split(".")
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return ""

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: "object", node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,  # type: ignore[attr-defined]
            path=self.rel,
            line=line,
            col=col + 1,
            message=message,
            hint=hint if hint is not None else rule.hint,  # type: ignore[attr-defined]
            snippet=self.snippet(line),
        )


@dataclass(frozen=True)
class CtxCallable:
    """A function/constructor that accepts a ``ctx`` parameter."""

    module: str
    name: str
    ctx_pos: int  # positional index of ctx (excluding self), -1 if kw-only


@dataclass
class ProjectIndex:
    """Cross-module facts shared by every rule."""

    #: (module, name) -> ctx-aware callable info.
    ctx_aware: dict[tuple[str, str], CtxCallable] = field(default_factory=dict)
    #: (module, function name) pairs dispatched through ``map_tasks``.
    worker_fns: set[tuple[str, str]] = field(default_factory=set)
    #: module -> {name: literal str} for module-level string constants.
    str_constants: dict[str, dict[str, str]] = field(default_factory=dict)
    #: module -> {local alias: (source module, original name)}.
    imports: dict[str, dict[str, tuple[str, str]]] = field(default_factory=dict)

    def resolve(self, mod: ModuleInfo, name: str) -> tuple[str, str]:
        """Resolve a local name to its defining ``(module, name)``."""
        target = self.imports.get(mod.module, {}).get(name)
        return target if target is not None else (mod.module, name)

    def resolve_str(self, mod: ModuleInfo, name: str) -> str | None:
        module, orig = self.resolve(mod, name)
        return self.str_constants.get(module, {}).get(orig)

    def ctx_callable(self, mod: ModuleInfo, name: str) -> CtxCallable | None:
        return self.ctx_aware.get(self.resolve(mod, name))


def _ctx_param_pos(fn: ast.FunctionDef | ast.AsyncFunctionDef, skip_self: bool) -> int | None:
    """Positional index of a ``ctx`` parameter; -1 if keyword-only; None if absent."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if skip_self and names and names[0] in ("self", "cls"):
        names = names[1:]
    if "ctx" in names:
        return names.index("ctx")
    if any(a.arg == "ctx" for a in args.kwonlyargs):
        return -1
    return None


def _index_module(mod: ModuleInfo, index: ProjectIndex) -> None:
    consts: dict[str, str] = {}
    imports: dict[str, tuple[str, str]] = {}
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pos = _ctx_param_pos(stmt, skip_self=False)
            if pos is not None:
                index.ctx_aware[(mod.module, stmt.name)] = CtxCallable(
                    mod.module, stmt.name, pos
                )
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    pos = _ctx_param_pos(item, skip_self=True)
                    if pos is not None:
                        index.ctx_aware[(mod.module, stmt.name)] = CtxCallable(
                            mod.module, stmt.name, pos
                        )
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                consts[target.id] = stmt.value.value
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
            for alias in stmt.names:
                imports[alias.asname or alias.name] = (stmt.module, alias.name)
    index.str_constants[mod.module] = consts
    index.imports[mod.module] = imports

    # Worker functions: first positional argument of any ``*.map_tasks(...)``
    # call, resolved through this module's imports, plus the ``_w_*`` naming
    # convention for module-level worker kernels.
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_w_"):
            index.worker_fns.add((mod.module, stmt.name))
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_tasks"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            index.worker_fns.add(index.resolve(mod, node.args[0].id))


# ----------------------------------------------------------------------
# Discovery and loading
# ----------------------------------------------------------------------

def discover_files(paths: Sequence[Path]) -> list[Path]:
    """All ``.py`` files under the given paths (sorted, deduplicated)."""
    out: set[Path] = set()
    for p in paths:
        p = p.resolve()
        if p.is_dir():
            out.update(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name, anchored at the ``repro`` package when present."""
    try:
        rel_parts = path.relative_to(root).with_suffix("").parts
    except ValueError:
        rel_parts = path.with_suffix("").parts
    parts = list(rel_parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else path.stem


def load_module(path: Path, root: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    suppressed: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        m = PRAGMA_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            suppressed.setdefault(lineno, set()).update(rules)
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return ModuleInfo(
        path=path,
        rel=rel,
        module=_module_name(path, root),
        lines=lines,
        tree=tree,
        suppressed=suppressed,
    )


def find_repo_root(start: Path | None = None) -> Path:
    """Nearest ancestor holding ``pyproject.toml`` (else the start dir)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return here


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------

def run_lint(
    paths: Sequence[Path],
    rules: Iterable[object] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Run the contract rules over every module under ``paths``.

    Returns the surviving findings (suppression pragmas already applied),
    sorted by (path, line, rule).
    """
    from repro.analysis.rules import default_rules

    active = list(rules) if rules is not None else default_rules()
    root = root if root is not None else find_repo_root()
    modules = [load_module(f, root) for f in discover_files(paths)]
    index = ProjectIndex()
    for mod in modules:
        _index_module(mod, index)
    findings: list[Finding] = []
    for mod in modules:
        for rule in active:
            if getattr(rule, "project", False):
                continue  # project rules run once, below
            for finding in rule.check(mod, index):
                if finding.rule in mod.suppressed.get(finding.line, set()):
                    continue
                findings.append(finding)
    # Project rules see every module at once (cross-module conformance:
    # dispatch tables vs the protocol module, metric names vs the docs
    # catalogue, section names vs the store format table).
    by_rel = {mod.rel: mod for mod in modules}
    for rule in active:
        if not getattr(rule, "project", False):
            continue
        for finding in rule.check_project(modules, index, root):
            anchor = by_rel.get(finding.path)
            if anchor is not None and finding.rule in anchor.suppressed.get(
                finding.line, set()
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.col))
    return findings


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

DEFAULT_BASELINE_NAME = "analysis-baseline.json"


@dataclass
class Baseline:
    """Grandfathered findings: fingerprints plus a human note per entry."""

    entries: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = {e["fingerprint"]: e for e in doc.get("findings", [])}
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding], note: str = "") -> "Baseline":
        entries: dict[str, dict[str, str]] = {}
        for f in findings:
            entries[f.fingerprint] = {
                "fingerprint": f.fingerprint,
                "rule": f.rule,
                "path": f.path,
                "snippet": f.snippet,
                "note": note,
            }
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        doc = {
            "version": 1,
            "comment": (
                "Grandfathered repro.analysis findings. New findings are "
                "always errors; entries here must carry a note explaining "
                "why they cannot be fixed."
            ),
            "findings": sorted(
                self.entries.values(), key=lambda e: (e["path"], e["rule"])
            ),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    def split(self, findings: Sequence[Finding]) -> tuple[list[Finding], list[str]]:
        """(new findings not in the baseline, stale baseline fingerprints).

        Exact fingerprints (path + rule + snippet) are line-move
        tolerant but not rename tolerant. A second, one-to-one matching
        pass pairs each remaining new finding against a stale entry
        with the same ``(rule, snippet)`` content, so moving a
        grandfathered violation to a renamed file neither fails the run
        nor leaves a stale entry behind — while a *duplicated*
        violation (two copies, one baseline entry) still fails.
        """
        seen = {f.fingerprint for f in findings}
        new = [f for f in findings if f.fingerprint not in self.entries]
        stale_fps = {fp for fp in self.entries if fp not in seen}
        if new and stale_fps:
            by_content: dict[tuple[str, str], list[str]] = {}
            for fp in stale_fps:
                e = self.entries[fp]
                key = (str(e.get("rule", "")), str(e.get("snippet", "")))
                by_content.setdefault(key, []).append(fp)
            still_new: list[Finding] = []
            for f in new:
                bucket = by_content.get((f.rule, f.snippet))
                if bucket:
                    stale_fps.discard(bucket.pop(0))
                else:
                    still_new.append(f)
            new = still_new
        stale = [fp for fp in self.entries if fp in stale_fps]
        return new, stale


def iter_rule_docs() -> Iterator[tuple[str, str, str]]:
    """(id, title, hint) for every registered rule, in id order."""
    from repro.analysis.rules import default_rules

    for rule in default_rules():
        yield rule.id, rule.title, rule.hint
