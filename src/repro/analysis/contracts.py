"""Cross-layer contract rules for the serving and store subsystems.

PRs 6–9 added whole layers — the NDJSON wire protocol, the asyncio
frontend, shard workers, and the mmap store container — whose
invariants the kernel rules of :mod:`repro.analysis.rules` never see.
These rules close that gap by *parsing source as data* rather than
pattern-matching:

========  =============================================================
REP006    Async safety: no blocking call (``time.sleep``, sync file /
          socket I/O, ``subprocess.run``, ``fsync``, ``mmap``
          population, bare ``Lock.acquire``) may be reachable from an
          ``async def`` body in ``repro.serve`` — resolved
          interprocedurally through the project call graph, so a
          coroutine calling a sync helper that opens a file is flagged
          with the full witness chain.
REP007    No fire-and-forget handles: the result of ``create_task`` /
          ``ensure_future`` / ``call_later`` / ``call_at`` must be
          stored, awaited, or returned — a dropped handle cannot be
          cancelled on shutdown and its exceptions vanish.
REP008    Wire-protocol conformance: ``serve/protocol.py`` owns the op
          vocabulary (``FRONTEND_OPS`` / ``SHARD_OPS`` / ``OP_READY``)
          and the error taxonomy (``ERROR_TYPES``); the frontend and
          shard dispatch tables and the client's sent ops must agree
          with it exactly.
REP009    Metric-catalogue conformance: every literal ``repro.*``
          metric name emitted in the tree must appear in the
          ``docs/architecture.md`` catalogue and satisfy the registry
          name grammar; every catalogued name must still be emitted
          somewhere (no dead docs rows).
REP010    Store-section conformance: section-name literals in
          ``repro.store`` modules must come from the shared constant
          table in ``store/format.py`` (``REQUIRED_SECTIONS`` /
          ``COMPONENT_SECTIONS``) so format drift is a lint error, not a
          corrupt file.
========  =============================================================

REP006's premise is provable at runtime with the event-loop stall
detector (:mod:`repro.analysis.stall`, ``REPRO_LOOP_CHECK=1``) the
same way the write-set race detector backs REP001.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, ProjectIndex
from repro.analysis.rules import Rule, _dotted

# ----------------------------------------------------------------------
# REP006 — blocking calls reachable from async bodies
# ----------------------------------------------------------------------

#: Dotted call names that block the calling thread. ``asyncio`` offers a
#: non-blocking spelling for each (``asyncio.sleep``, ``to_thread``,
#: ``create_subprocess_exec``, stream APIs).
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.open",
        "os.read",
        "os.write",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "mmap.mmap",
    }
)

#: Attribute calls that are file I/O no matter the receiver.
BLOCKING_ATTRS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: The builtin that opens files.
BLOCKING_BUILTINS = frozenset({"open"})


@dataclass
class _FnFacts:
    """Per-function facts for the blocking-reachability analysis."""

    key: tuple[str, str]  # (module, qualname)
    is_async: bool
    #: direct blocking primitives: (node, human description)
    blocking: list[tuple[ast.AST, str]] = field(default_factory=list)
    #: resolved outgoing calls: (callee key, call node)
    calls: list[tuple[tuple[str, str], ast.AST]] = field(default_factory=list)


def _function_local_imports(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _awaited_values(fn: ast.AST) -> set[int]:
    """ids of Call nodes that are directly awaited."""
    return {
        id(node.value) for node in ast.walk(fn) if isinstance(node, ast.Await)
    }


def _iter_qualified_functions(
    mod: ModuleInfo,
) -> Iterator[tuple[str, str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(qualname, enclosing class or None, fn) for module/class-level defs."""
    for stmt in mod.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{stmt.name}.{item.name}", stmt.name, item


def _own_nodes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function body, skipping nested function definitions."""

    def visit(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            yield from visit(child)

    yield from visit(fn)


class _CallGraph:
    """Project-wide call graph keyed by ``(module, qualname)``."""

    def __init__(self, modules: list[ModuleInfo], index: ProjectIndex) -> None:
        self.index = index
        self.module_names = {m.module for m in modules}
        self.functions: dict[tuple[str, str], _FnFacts] = {}
        #: (module, ClassName) for every class definition seen
        self.classes: set[tuple[str, str]] = set()
        for mod in modules:
            for stmt in mod.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self.classes.add((mod.module, stmt.name))
        for mod in modules:
            for qualname, cls, fn in _iter_qualified_functions(mod):
                self.functions[(mod.module, qualname)] = self._facts(
                    mod, qualname, cls, fn
                )

    # -- resolution ----------------------------------------------------
    def _resolve_name(
        self,
        mod: ModuleInfo,
        name: str,
        local_imports: dict[str, tuple[str, str]],
    ) -> tuple[str, str]:
        target = local_imports.get(name)
        if target is None:
            target = self.index.imports.get(mod.module, {}).get(name)
        return target if target is not None else (mod.module, name)

    def resolve_call(
        self,
        mod: ModuleInfo,
        call: ast.Call,
        cls: str | None,
        local_imports: dict[str, tuple[str, str]],
    ) -> tuple[str, str] | None:
        """Callee key of a call, or None when it cannot be pinned down."""
        func = call.func
        if isinstance(func, ast.Name):
            module, name = self._resolve_name(mod, func.id, local_imports)
            if (module, name) in self.classes:
                return (module, f"{name}.__init__")
            return (module, name)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and cls is not None:
                    return (mod.module, f"{cls}.{func.attr}")
                module, name = self._resolve_name(mod, base.id, local_imports)
                candidate = f"{module}.{name}"
                if candidate in self.module_names:
                    return (candidate, func.attr)
        return None

    # -- facts ---------------------------------------------------------
    def _facts(
        self,
        mod: ModuleInfo,
        qualname: str,
        cls: str | None,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> _FnFacts:
        facts = _FnFacts(
            key=(mod.module, qualname),
            is_async=isinstance(fn, ast.AsyncFunctionDef),
        )
        local_imports = _function_local_imports(fn)
        awaited = _awaited_values(fn)
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            desc = self._blocking_desc(node, mod, local_imports, awaited)
            if desc is not None:
                facts.blocking.append((node, desc))
                continue
            callee = self.resolve_call(mod, node, cls, local_imports)
            if callee is not None:
                facts.calls.append((callee, node))
        return facts

    def _blocking_desc(
        self,
        call: ast.Call,
        mod: ModuleInfo,
        local_imports: dict[str, tuple[str, str]],
        awaited: set[int],
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in BLOCKING_BUILTINS:
                return f"{func.id}(...)"
            module, name = self._resolve_name(mod, func.id, local_imports)
            if f"{module}.{name}" in BLOCKING_CALLS:
                return f"{module}.{name}(...)"
            return None
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func)
            if dotted in BLOCKING_CALLS:
                return f"{dotted}(...)"
            if func.attr in BLOCKING_ATTRS:
                return f".{func.attr}(...)"
            if func.attr == "acquire" and id(call) not in awaited:
                return f"{dotted or '<expr>.acquire'}(...) without await"
        return None

    # -- reachability --------------------------------------------------
    def blocking_witness(
        self, key: tuple[str, str], _seen: set[tuple[str, str]] | None = None
    ) -> tuple[str, list[str]] | None:
        """(primitive description, call chain) if ``key`` can block.

        Only traverses *sync* functions: an awaited coroutine yields
        the loop, so async callees are the callee's own problem (they
        get their own findings).
        """
        seen = _seen if _seen is not None else set()
        if key in seen:
            return None
        seen.add(key)
        facts = self.functions.get(key)
        if facts is None or facts.is_async:
            return None
        if facts.blocking:
            return facts.blocking[0][1], [key[1]]
        for callee, _node in facts.calls:
            deeper = self.blocking_witness(callee, seen)
            if deeper is not None:
                desc, chain = deeper
                return desc, [key[1], *chain]
        return None


class AsyncBlockingCalls(Rule):
    id = "REP006"
    title = "no blocking calls reachable from async def bodies in repro.serve"
    hint = (
        "hop off the loop first: await asyncio.to_thread(...) for file/"
        "CPU work, asyncio.sleep for delays, create_subprocess_exec for "
        "processes — one blocked callback stalls every request in the "
        "house (verify at runtime with REPRO_LOOP_CHECK=1)"
    )
    project = True

    #: Only the serving layer runs an event loop.
    PACKAGES = frozenset({"serve"})

    def check_project(
        self, modules: list[ModuleInfo], index: ProjectIndex, root: object
    ) -> Iterator[Finding]:
        targets = [m for m in modules if m.package in self.PACKAGES]
        if not targets:
            return
        graph = _CallGraph(modules, index)
        for mod in targets:
            for qualname, cls, fn in _iter_qualified_functions(mod):
                if not isinstance(fn, ast.AsyncFunctionDef):
                    continue
                local_imports = _function_local_imports(fn)
                awaited = _awaited_values(fn)
                for node in _own_nodes(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    desc = graph._blocking_desc(node, mod, local_imports, awaited)
                    if desc is not None:
                        yield mod.finding(
                            self, node,
                            f"async `{qualname}` calls blocking {desc} on "
                            "the event loop",
                        )
                        continue
                    callee = graph.resolve_call(mod, node, cls, local_imports)
                    if callee is None:
                        continue
                    witness = graph.blocking_witness(callee)
                    if witness is not None:
                        desc, chain = witness
                        yield mod.finding(
                            self, node,
                            f"async `{qualname}` calls `{callee[1]}`, which "
                            f"reaches blocking {desc} "
                            f"(via {' -> '.join(chain)})",
                        )


# ----------------------------------------------------------------------
# REP007 — fire-and-forget task/timer handles
# ----------------------------------------------------------------------

class FireAndForgetHandles(Rule):
    id = "REP007"
    title = "task/timer handles must be stored, awaited, or returned"
    hint = (
        "keep the handle (self._tasks.add(task) + done-callback discard, "
        "or self._timers[k] = ...) so shutdown can cancel it and its "
        "exception has somewhere to go"
    )

    SPAWN_FNS = frozenset(
        {"create_task", "ensure_future", "call_later", "call_at"}
    )

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = None
            if isinstance(func, ast.Attribute) and func.attr in self.SPAWN_FNS:
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in self.SPAWN_FNS:
                name = func.id
            if name is not None:
                yield mod.finding(
                    self, node,
                    f"`{name}(...)` handle is dropped — the task/timer "
                    "cannot be cancelled on shutdown and its exception is "
                    "swallowed",
                )


# ----------------------------------------------------------------------
# REP008 — wire-protocol conformance
# ----------------------------------------------------------------------

def _tuple_of_strings(
    node: ast.AST, consts: dict[str, str]
) -> list[str] | None:
    """Elements of a tuple/list of string constants (or named constants)."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        elif isinstance(elt, ast.Name) and elt.id in consts:
            out.append(consts[elt.id])
        else:
            return None
    return out


class WireProtocolConformance(Rule):
    id = "REP008"
    title = "frontend/shard/client dispatch must match the protocol op tables"
    hint = (
        "serve/protocol.py owns the vocabulary: add the op to "
        "FRONTEND_OPS/SHARD_OPS (and a handler on every peer) instead of "
        "growing a dispatch table unilaterally"
    )
    project = True

    def _module(
        self, modules: list[ModuleInfo], suffix: str
    ) -> ModuleInfo | None:
        for mod in modules:
            if mod.module == f"repro.serve.{suffix}":
                return mod
        return None

    # -- extraction ----------------------------------------------------
    def _handled_ops(self, mod: ModuleInfo) -> list[tuple[str, ast.AST]]:
        """Ops an ``op == "..."``-style dispatch chain handles."""
        out: list[tuple[str, ast.AST]] = []
        for node in ast.walk(mod.tree):
            if not (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
                and len(node.comparators) == 1
            ):
                continue
            right = node.comparators[0]
            if not (isinstance(right, ast.Constant) and isinstance(right.value, str)):
                continue
            left = node.left
            is_op = (isinstance(left, ast.Name) and left.id == "op") or (
                isinstance(left, ast.Call)
                and isinstance(left.func, ast.Attribute)
                and left.func.attr == "get"
                and left.args
                and isinstance(left.args[0], ast.Constant)
                and left.args[0].value == "op"
            )
            if is_op:
                out.append((right.value, node))
        return out

    def _sent_ops(self, mod: ModuleInfo) -> list[tuple[str, ast.AST]]:
        """Op literals in request frames built as ``{"op": "...", ...}``."""
        out: list[tuple[str, ast.AST]] = []
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    out.append((value.value, node))
        return out

    def _client_ops(self, mod: ModuleInfo) -> list[tuple[str, ast.AST]]:
        """Literal first arguments of ``self.send(...)`` / ``self.call(...)``."""
        out: list[tuple[str, ast.AST]] = []
        for node in ast.walk(mod.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "call")
                and node.args
            ):
                continue
            arg0 = node.args[0]
            if isinstance(arg0, ast.Constant) and isinstance(arg0.value, str):
                out.append((arg0.value, node))
        return out

    def _protocol_tables(
        self, proto: ModuleInfo, index: ProjectIndex
    ) -> tuple[dict[str, list[str]], dict[str, ast.AST], dict[str, str]]:
        consts = index.str_constants.get(proto.module, {})
        tables: dict[str, list[str]] = {}
        anchors: dict[str, ast.AST] = {}
        for stmt in proto.tree.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name):
                continue
            if target.id in ("FRONTEND_OPS", "SHARD_OPS"):
                elems = _tuple_of_strings(value, consts)
                if elems is not None:
                    tables[target.id] = elems
                    anchors[target.id] = stmt
            elif target.id == "ERROR_TYPES" and isinstance(value, ast.Dict):
                keys: list[str] = []
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.append(key.value)
                    elif isinstance(key, ast.Name) and key.id in consts:
                        keys.append(consts[key.id])
                tables["ERROR_TYPES"] = keys
                anchors["ERROR_TYPES"] = stmt
            elif target.id == "_EXCEPTION_TYPES" and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                names: list[str] = []
                for elt in value.elts:
                    if isinstance(elt, ast.Tuple) and len(elt.elts) == 2:
                        second = elt.elts[1]
                        if isinstance(second, ast.Constant) and isinstance(
                            second.value, str
                        ):
                            names.append(second.value)
                        elif isinstance(second, ast.Name) and second.id in consts:
                            names.append(consts[second.id])
                tables["_EXCEPTION_TYPES"] = names
                anchors["_EXCEPTION_TYPES"] = stmt
        return tables, anchors, consts

    # -- the check -----------------------------------------------------
    def check_project(
        self, modules: list[ModuleInfo], index: ProjectIndex, root: object
    ) -> Iterator[Finding]:
        proto = self._module(modules, "protocol")
        if proto is None:
            return
        tables, anchors, consts = self._protocol_tables(proto, index)
        ready_op = consts.get("OP_READY")

        missing = [t for t in ("FRONTEND_OPS", "SHARD_OPS") if t not in tables]
        if missing:
            yield proto.finding(
                self, proto.tree.body[0] if proto.tree.body else proto.tree,
                f"protocol module defines no {'/'.join(missing)} op table — "
                "the dispatch vocabulary has no source of truth",
            )
            return

        frontend_ops = set(tables["FRONTEND_OPS"])
        shard_ops = set(tables["SHARD_OPS"])

        # error vocabulary self-consistency
        error_types = set(tables.get("ERROR_TYPES", []))
        for name in tables.get("_EXCEPTION_TYPES", []):
            if error_types and name not in error_types:
                yield proto.finding(
                    self, anchors["_EXCEPTION_TYPES"],
                    f"_EXCEPTION_TYPES maps to error type {name!r} that is "
                    "not in ERROR_TYPES — servers would emit a frame the "
                    "client cannot rehydrate",
                )

        frontend = self._module(modules, "frontend")
        if frontend is not None:
            handled = self._handled_ops(frontend)
            for op, node in handled:
                if op not in frontend_ops:
                    yield frontend.finding(
                        self, node,
                        f"frontend dispatches op {op!r} that is missing from "
                        "protocol.FRONTEND_OPS",
                    )
            handled_set = {op for op, _ in handled}
            for op in sorted(frontend_ops - handled_set):
                yield proto.finding(
                    self, anchors["FRONTEND_OPS"],
                    f"FRONTEND_OPS declares op {op!r} but the frontend "
                    "dispatch table never handles it",
                )
            for op, node in self._sent_ops(frontend):
                if op not in shard_ops and op != ready_op:
                    yield frontend.finding(
                        self, node,
                        f"frontend sends shard op {op!r} that is missing "
                        "from protocol.SHARD_OPS",
                    )

        shard = self._module(modules, "shard")
        if shard is not None:
            handled = self._handled_ops(shard)
            for op, node in handled:
                if op not in shard_ops:
                    yield shard.finding(
                        self, node,
                        f"shard handles op {op!r} that is missing from "
                        "protocol.SHARD_OPS",
                    )
            handled_set = {op for op, _ in handled}
            for op in sorted(shard_ops - handled_set):
                yield proto.finding(
                    self, anchors["SHARD_OPS"],
                    f"SHARD_OPS declares op {op!r} but the shard worker "
                    "never handles it",
                )
            for op, node in self._sent_ops(shard):
                if op != ready_op and op not in shard_ops:
                    yield shard.finding(
                        self, node,
                        f"shard emits frame op {op!r} that is neither "
                        "OP_READY nor in protocol.SHARD_OPS",
                    )

        client = self._module(modules, "client")
        if client is not None:
            for op, node in self._client_ops(client):
                if op not in frontend_ops:
                    yield client.finding(
                        self, node,
                        f"client sends op {op!r} that is missing from "
                        "protocol.FRONTEND_OPS — the frontend would answer "
                        "with a protocol error",
                    )

        # typed errors constructed anywhere in serve must use known types
        for mod in modules:
            if mod.package != "serve" or not error_types:
                continue
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "error_response"
                    and len(node.args) >= 2
                ):
                    continue
                arg = node.args[1]
                value = None
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    value = arg.value
                elif isinstance(arg, ast.Name):
                    value = index.resolve_str(mod, arg.id)
                if value is not None and value not in error_types:
                    yield mod.finding(
                        self, node,
                        f"error_response built with type {value!r} outside "
                        "protocol.ERROR_TYPES",
                    )


# ----------------------------------------------------------------------
# REP009 — metric names vs the docs catalogue and the exporter grammar
# ----------------------------------------------------------------------

#: The registry's name grammar (kept in sync with
#: ``repro.obs.metrics._NAME_RE`` — the exporter rejects anything else).
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Catalogue table rows: ``| `repro.x.y` / `.z` | kind | unit | module |``.
_ROW_RE = re.compile(r"^\|(?P<names>[^|]*)\|(?P<rest>.*)\|\s*$")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def parse_metric_catalogue(text: str) -> list[tuple[str, int, str, str]]:
    """(metric name, 1-based line, emitting module cell, row text).

    Only rows between the ``### Metric names`` heading and the next
    heading count; ``/``-joined alternation cells expand each ``.sfx``
    entry by replacing the last components of the row's first full name.
    """
    out: list[tuple[str, int, str, str]] = []
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("### "):
            in_section = line.strip() == "### Metric names"
            continue
        if not in_section:
            continue
        m = _ROW_RE.match(line.strip())
        if not m:
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        names_cell = cells[0]
        module_cell = cells[3] if len(cells) >= 4 else ""
        tokens = _BACKTICK_RE.findall(names_cell)
        base: str | None = None
        for token in tokens:
            token = token.strip()
            if token.startswith("repro."):
                base = token
                out.append((token, lineno, module_cell, line.strip()))
            elif token.startswith(".") and base is not None:
                suffix = token[1:].split(".")
                expanded = base.split(".")[: -len(suffix)] + suffix
                out.append((".".join(expanded), lineno, module_cell, line.strip()))
    return out


class MetricCatalogueConformance(Rule):
    id = "REP009"
    title = "emitted metric names and the docs catalogue must agree"
    hint = (
        "add the metric to the docs/architecture.md catalogue table "
        "(name, kind, unit, emitting module) — or delete the dead row; "
        "names must match the registry grammar ^[a-z][a-z0-9_]*(\\.\\w+)+$"
    )
    project = True

    METRIC_FNS = frozenset({"inc", "set_gauge", "set_gauge_max", "observe"})
    METRIC_RECEIVERS = frozenset({"metrics", "repro.obs.metrics", "obs.metrics"})
    CATALOGUE = Path("docs") / "architecture.md"

    def _emitted(
        self, modules: list[ModuleInfo], index: ProjectIndex
    ) -> list[tuple[str, ModuleInfo, ast.AST]]:
        out: list[tuple[str, ModuleInfo, ast.AST]] = []
        for mod in modules:
            if not mod.module.startswith("repro."):
                continue
            if mod.package in ("obs", "analysis"):
                continue  # registry/linter internals take names as params
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.METRIC_FNS
                    and _dotted(node.func.value) in self.METRIC_RECEIVERS
                    and node.args
                ):
                    continue
                arg0 = node.args[0]
                name: str | None = None
                if isinstance(arg0, ast.Constant) and isinstance(arg0.value, str):
                    name = arg0.value
                elif isinstance(arg0, ast.Name):
                    name = index.resolve_str(mod, arg0.id)
                if name is not None and name.startswith("repro."):
                    out.append((name, mod, node))
        return out

    def _mentioned(self, modules: list[ModuleInfo]) -> set[str]:
        """Every ``repro.*`` string literal in the tree (any position).

        Dynamic emit sites (pragma'd ``set_gauge(name, v)`` loops) keep
        their names in dict/constant literals — a catalogued name that
        appears *nowhere* as a literal is genuinely dead.
        """
        out: set[str] = set()
        for mod in modules:
            for node in ast.walk(mod.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("repro.")
                    and METRIC_NAME_RE.match(node.value)
                ):
                    out.add(node.value)
        return out

    def check_project(
        self, modules: list[ModuleInfo], index: ProjectIndex, root: object
    ) -> Iterator[Finding]:
        root_path = Path(str(root)) if root is not None else Path.cwd()
        catalogue_path = root_path / self.CATALOGUE
        if not catalogue_path.exists():
            return
        emitted = self._emitted(modules, index)
        if not emitted:
            return
        rows = parse_metric_catalogue(
            catalogue_path.read_text(encoding="utf-8")
        )
        documented = {name for name, _, _, _ in rows}
        rel_doc = self.CATALOGUE.as_posix()
        linted = {m.module for m in modules}

        for name, mod, node in emitted:
            if not METRIC_NAME_RE.match(name):
                yield mod.finding(
                    self, node,
                    f"metric name {name!r} violates the registry grammar — "
                    "the exporter would refuse it",
                )
            elif name not in documented:
                yield mod.finding(
                    self, node,
                    f"metric {name!r} is emitted but missing from the "
                    f"{rel_doc} catalogue",
                )

        mentioned = self._mentioned(modules)
        for name, lineno, module_cell, row in rows:
            if not METRIC_NAME_RE.match(name):
                yield Finding(
                    rule=self.id, path=rel_doc, line=lineno, col=1,
                    message=f"catalogued metric name {name!r} violates the "
                    "registry grammar",
                    hint=self.hint, snippet=row,
                )
                continue
            # Only judge a row dead when its emitting module is part of
            # this lint run (partial runs must not flag the whole docs).
            tokens = _BACKTICK_RE.findall(module_cell) or [name.split(".")[1]]
            prefix = tokens[0].replace(".*", "").strip()
            if not any(
                m == f"repro.{prefix}" or m.startswith(f"repro.{prefix}.")
                for m in linted
            ):
                continue
            if name not in mentioned:
                yield Finding(
                    rule=self.id, path=rel_doc, line=lineno, col=1,
                    message=f"catalogued metric {name!r} is emitted nowhere "
                    "in the linted tree (dead docs row)",
                    hint=self.hint, snippet=row,
                )


# ----------------------------------------------------------------------
# REP010 — store section names vs the format constant table
# ----------------------------------------------------------------------

#: Shape of a section name: ``graph.*`` / ``index.*`` / ``serve.*``.
SECTION_RE = re.compile(r"^(graph|index|serve)\.[a-z_][a-z0-9_.]*$")


class StoreSectionNames(Rule):
    id = "REP010"
    title = "store section names must come from the format.py constant table"
    hint = (
        "add the section to REQUIRED_SECTIONS / COMPONENT_SECTIONS in "
        "store/format.py and bump "
        "STORE_FORMAT_VERSION if the layout changed — ad-hoc section "
        "strings drift the on-disk format silently"
    )
    project = True

    def _known_sections(self, fmt: ModuleInfo) -> set[str]:
        known: set[str] = set()
        for stmt in fmt.tree.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id.endswith("_SECTIONS"):
                elems = _tuple_of_strings(value, {})
                if elems:
                    known.update(elems)
        return known

    def _docstrings(self, tree: ast.Module) -> set[int]:
        """ids of Constant nodes sitting in docstring position."""
        out: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    out.add(id(body[0].value))
        return out

    def check_project(
        self, modules: list[ModuleInfo], index: ProjectIndex, root: object
    ) -> Iterator[Finding]:
        fmt = next(
            (m for m in modules if m.module == "repro.store.format"), None
        )
        if fmt is None:
            return
        known = self._known_sections(fmt)
        if not known:
            return
        for mod in modules:
            if mod.package != "store" or mod is fmt:
                continue
            docstrings = self._docstrings(mod.tree)
            for node in ast.walk(mod.tree):
                if not (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and SECTION_RE.match(node.value)
                ):
                    continue
                if id(node) in docstrings:
                    continue
                if node.value not in known:
                    yield mod.finding(
                        self, node,
                        f"section name {node.value!r} is not in the "
                        "store/format.py constant table",
                    )
