"""The repo-specific contract rules (REP001, REP003–REP005).

Each rule encodes one invariant the process-backend speedup story
depends on — the conventions PR 4's kernels follow by hand, checked
here by AST inspection so a regression fails CI instead of corrupting
results on a many-core box:

========  =============================================================
REP001    Process-kernel purity: functions dispatched through
          ``ProcessBackend.map_tasks`` must be picklable module-level
          functions (no lambdas, no nested defs, no bound methods) and
          must not rebind or mutate module-global state.
REP003    Ctx-threading discipline: kernel entry points in ``graph/``,
          ``triangles/``, ``truss/``, ``cc/``, ``equitruss/`` and
          ``serve/`` must forward their ``ctx`` to every ctx-aware
          callee and must never construct a fresh ``ExecutionContext()``
          (that would fork the workspace, tracer, and worker pools).
REP004    Span/metric hygiene: ``repro.obs.metrics`` names must be
          literal strings under the ``repro.*`` namespace, and
          span/region names must be literal (greppable).
REP005    Dtype safety: ``u * n + v``-style key arithmetic must be
          routed through :class:`~repro.parallel.context.DtypePolicy`
          or an explicit int64 cast — the exact overflow class fixed in
          PR 2 (``CSRGraph`` key dtypes).
========  =============================================================

The serving/store contract rules (REP006–REP010: async safety, wire
protocol, metric catalogue, and store section conformance) live in
:mod:`repro.analysis.contracts`; :func:`default_rules` registers both
sets.

Suppress a deliberate violation inline with ``# repro: allow(REPnnn)``
on the offending line, or grandfather it in ``analysis-baseline.json``
with a note.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleInfo, ProjectIndex

#: Packages whose public functions are kernel entry points (REP003/REP005).
KERNEL_PACKAGES = frozenset(
    {"graph", "triangles", "truss", "cc", "equitruss", "serve", "store"}
)

#: Packages additionally scanned for unguarded key arithmetic (REP005).
DTYPE_PACKAGES = KERNEL_PACKAGES | frozenset(
    {"parallel", "community", "core_decomp"}
)


def _dotted(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Every function definition with a flag for 'module- or class-level'.

    Methods count as top-level (they are picklable by reference); defs
    nested inside another function do not.
    """

    def visit(node: ast.AST, depth_in_fn: int) -> Iterator[
        tuple[ast.FunctionDef | ast.AsyncFunctionDef, bool]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, depth_in_fn == 0
                yield from visit(child, depth_in_fn + 1)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, depth_in_fn)
            else:
                yield from visit(child, depth_in_fn)

    yield from visit(tree, 0)


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and locally-bound names of a function body."""
    args = fn.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        )
    }
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


class Rule:
    """Base class: rules yield findings for one module at a time.

    Rules with ``project = True`` are *project rules*: instead of
    per-module ``check`` calls they get one ``check_project`` call with
    every loaded module, for conformance checks that compare modules
    against each other (dispatch tables vs the protocol op vocabulary,
    emitted metric names vs the docs catalogue, section-name literals
    vs the store format table).
    """

    id: str = "REP000"
    title: str = ""
    hint: str = ""
    #: when True the engine calls ``check_project`` once instead of
    #: ``check`` per module
    project: bool = False

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover

    def check_project(
        self,
        modules: "list[ModuleInfo]",
        index: ProjectIndex,
        root: "object",
    ) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


# ----------------------------------------------------------------------
# REP001 — process-kernel purity
# ----------------------------------------------------------------------

class ProcessKernelPurity(Rule):
    id = "REP001"
    title = "process-pool workers must be pure module-level functions"
    hint = (
        "move the worker to a module-level `def` (picklable by reference) "
        "and pass all state through task arguments / SharedHandles"
    )

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        module_fns: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        nested_fns: set[str] = set()
        for fn, top in _walk_functions(mod.tree):
            if top and isinstance(fn, ast.FunctionDef):
                module_fns.setdefault(fn.name, fn)
            elif not top:
                nested_fns.add(fn.name)

        # Dispatch sites: the first argument of every ``*.map_tasks(...)``.
        for node in ast.walk(mod.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_tasks"
                and node.args
            ):
                continue
            fn_arg = node.args[0]
            if isinstance(fn_arg, ast.Lambda):
                yield mod.finding(
                    self, fn_arg,
                    "lambda passed to map_tasks cannot be pickled to a "
                    "worker process",
                )
            elif isinstance(fn_arg, ast.Attribute):
                yield mod.finding(
                    self, fn_arg,
                    f"`{_dotted(fn_arg)}` passed to map_tasks: bound methods "
                    "capture instance state that must not cross the process "
                    "boundary",
                )
            elif isinstance(fn_arg, ast.Name):
                name = fn_arg.id
                if name in nested_fns and name not in module_fns:
                    yield mod.finding(
                        self, fn_arg,
                        f"`{name}` passed to map_tasks is a nested function; "
                        "closures cannot be pickled by reference",
                    )

        # Worker bodies (dispatched anywhere in the project, or ``_w_*`` by
        # convention) must not rebind or mutate module-global state: worker
        # processes are forked copies, so such writes silently diverge from
        # the coordinator.
        module_globals = {
            t.id
            for stmt in mod.tree.body
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name)
        } | {
            stmt.target.id
            for stmt in mod.tree.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        for name, fn in module_fns.items():
            if (mod.module, name) not in index.worker_fns:
                continue
            locals_ = _local_names(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    yield mod.finding(
                        self, node,
                        f"worker `{name}` rebinds module globals "
                        f"({', '.join(node.names)}) — the write stays in the "
                        "forked worker and never reaches the coordinator",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        base = t
                        while isinstance(base, (ast.Subscript, ast.Attribute)):
                            base = base.value
                        if (
                            isinstance(base, ast.Name)
                            and base is not t  # only container mutation
                            and base.id in module_globals
                            and base.id not in locals_
                        ):
                            yield mod.finding(
                                self, node,
                                f"worker `{name}` mutates module-global "
                                f"`{base.id}` — per-process state diverges "
                                "across the pool",
                            )


# ----------------------------------------------------------------------
# REP003 — ctx-threading discipline
# ----------------------------------------------------------------------

class CtxThreading(Rule):
    id = "REP003"
    title = "kernel entry points must thread ctx=, never fork a fresh context"
    hint = (
        "normalize with ExecutionContext.ensure(ctx) and forward ctx= to "
        "every ctx-aware callee; a bare ExecutionContext() splits the "
        "workspace, tracer, and backend pools"
    )

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if mod.package not in KERNEL_PACKAGES:
            return
        # Local aliases bound to the ExecutionContext class.
        ec_aliases = {
            alias.asname or alias.name
            for stmt in ast.walk(mod.tree)
            if isinstance(stmt, ast.ImportFrom)
            and stmt.module == "repro.parallel.context"
            for alias in stmt.names
            if alias.name == "ExecutionContext"
        }
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ec_aliases
            ):
                yield mod.finding(
                    self, node,
                    "bare ExecutionContext() constructed inside a kernel "
                    "module; use ExecutionContext.ensure(ctx)",
                )

        for fn, top in _walk_functions(mod.tree):
            if not top:
                continue
            if _ctx_in_scope(fn) is None:
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                    continue
                info = index.ctx_callable(mod, call.func.id)
                if info is None:
                    continue
                if any(kw.arg == "ctx" for kw in call.keywords):
                    continue
                if any(kw.arg is None for kw in call.keywords):
                    continue  # **splat may carry ctx — cannot prove a drop
                if info.ctx_pos >= 0 and len(call.args) > info.ctx_pos:
                    continue  # passed positionally
                yield mod.finding(
                    self, call,
                    f"`{fn.name}` has ctx in scope but calls ctx-aware "
                    f"`{call.func.id}` without forwarding it — the callee "
                    "falls back to a fresh serial context",
                )


def _ctx_in_scope(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int | None:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return names.index("ctx") if "ctx" in names else None


# ----------------------------------------------------------------------
# REP004 — span/metric hygiene
# ----------------------------------------------------------------------

class SpanMetricHygiene(Rule):
    id = "REP004"
    title = "metric/span names must be literal"
    hint = (
        "use a literal 'repro.*' string (or a module-level constant) so "
        "names stay greppable and the registry namespace stays uniform"
    )

    METRIC_FNS = frozenset({"inc", "set_gauge", "set_gauge_max", "observe"})
    METRIC_RECEIVERS = frozenset({"metrics", "repro.obs.metrics", "obs.metrics"})

    def _literal(
        self, node: ast.AST | None, mod: ModuleInfo, index: ProjectIndex
    ) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return index.resolve_str(mod, node.id)
        return None

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if mod.package in ("obs", "analysis"):
            return  # the registry/linter internals take names as parameters
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not isinstance(f, ast.Attribute):
                continue
            recv = _dotted(f.value)
            if f.attr in self.METRIC_FNS and recv in self.METRIC_RECEIVERS:
                arg0 = node.args[0] if node.args else None
                name = self._literal(arg0, mod, index)
                if name is None:
                    yield mod.finding(
                        self, node,
                        f"metrics.{f.attr}() name is not a literal string "
                        "(or module-level constant)",
                    )
                elif not name.startswith("repro."):
                    yield mod.finding(
                        self, node,
                        f"metric name {name!r} is outside the repro.* "
                        "namespace",
                    )
            elif f.attr == "region" and recv is not None:
                arg0 = node.args[0] if node.args else None
                if self._literal(arg0, mod, index) is None:
                    yield mod.finding(
                        self, node,
                        "span/region name is not a literal string (or "
                        "module-level constant)",
                        hint="dynamic span names break trace diffing and "
                        "the per-kernel breakdown tables",
                    )


# ----------------------------------------------------------------------
# REP005 — dtype safety for key arithmetic
# ----------------------------------------------------------------------

class DtypeSafety(Rule):
    id = "REP005"
    title = "u*n+v key arithmetic must be overflow-guarded"
    hint = (
        "route the key through DtypePolicy.key_dtype / ctx.key_dtype or "
        "cast explicitly (np.int64(n), arr.astype(kd)); NEP 50 keeps "
        "int32_array * python_int at int32, so the product wraps once "
        "n**2 > 2**31"
    )

    #: A call with one of these function names anywhere inside the
    #: expression marks it as deliberately guarded.
    GUARD_CALL_NAMES = frozenset({"int64", "uint64"})
    GUARD_CALL_ATTRS = frozenset(
        {"astype", "type", "key_dtype", "edge_dtype", "index_dtype", "resolve"}
    )

    def _guarded_expr(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                f = sub.func
                if isinstance(f, ast.Attribute) and f.attr in (
                    self.GUARD_CALL_NAMES | self.GUARD_CALL_ATTRS
                ):
                    return True
                if isinstance(f, ast.Name) and f.id in self.GUARD_CALL_NAMES:
                    return True
        return False

    def _guarded_names(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        """Locals assigned from a guarded expression (e.g. span = np.int64(..))."""
        out: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self._guarded_expr(node.value):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
                and self._guarded_expr(node.value)
            ):
                out.add(node.target.id)
        return out

    def _offending_key_binop(self, node: ast.AST, guarded: set[str]) -> bool:
        """Whether ``node`` is an unguarded ``a * n + b`` key expression."""
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            return False
        if isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult):
            mult, other = node.left, node.right
        elif isinstance(node.right, ast.BinOp) and isinstance(
            node.right.op, ast.Mult
        ):
            mult, other = node.right, node.left
        else:
            return False
        operands = (mult.left, mult.right, other)
        # Plain numeric constants mean scalar arithmetic, not keys.
        if any(
            isinstance(o, ast.Constant)
            and isinstance(o.value, (int, float, complex))
            for o in operands
        ):
            return False
        if any(
            isinstance(o, ast.Constant) and isinstance(o.value, float)
            for sub in operands
            for o in ast.walk(sub)
        ):
            return False  # float math cannot be an integer key
        if self._guarded_expr(node):
            return False
        if any(isinstance(o, ast.Name) and o.id in guarded for o in operands):
            return False
        return True

    def _module_level_nodes(self, tree: ast.Module) -> Iterator[ast.AST]:
        """Every AST node outside any function body (class bodies count)."""

        def visit(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield child
                yield from visit(child)

        yield from visit(tree)

    MESSAGE = (
        "key-style arithmetic `a * n + b` without an int64/"
        "DtypePolicy guard — wraps at n**2 > 2**31 when the "
        "operands are int32"
    )

    def check(self, mod: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if mod.package not in DTYPE_PACKAGES:
            return
        for fn, _top in _walk_functions(mod.tree):
            guarded = self._guarded_names(fn)
            for node in ast.walk(fn):
                if self._offending_key_binop(node, guarded):
                    yield mod.finding(self, node, self.MESSAGE)
        # module- and class-level statements (constants, dataclass
        # defaults, comprehension one-liners) build keys too — the PR 2
        # overflow class is not confined to function bodies
        module_guarded = {
            t.id
            for stmt in mod.tree.body
            if isinstance(stmt, ast.Assign) and self._guarded_expr(stmt.value)
            for t in stmt.targets
            if isinstance(t, ast.Name)
        }
        for node in self._module_level_nodes(mod.tree):
            if self._offending_key_binop(node, module_guarded):
                yield mod.finding(self, node, self.MESSAGE)


def default_rules() -> list[Rule]:
    """All registered rules, in id order."""
    from repro.analysis.contracts import (
        AsyncBlockingCalls,
        FireAndForgetHandles,
        MetricCatalogueConformance,
        StoreSectionNames,
        WireProtocolConformance,
    )

    return [
        ProcessKernelPurity(),
        CtxThreading(),
        SpanMetricHygiene(),
        DtypeSafety(),
        AsyncBlockingCalls(),
        FireAndForgetHandles(),
        WireProtocolConformance(),
        MetricCatalogueConformance(),
        StoreSectionNames(),
    ]
