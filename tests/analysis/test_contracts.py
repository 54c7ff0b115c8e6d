"""Fixture tests for the cross-layer contract rules (REP006-REP010).

One positive (violating) and one negative (conforming) fixture per
rule, exercised through ``run_lint`` over a synthetic ``src/repro``
tree — the same path the CI job takes — so extraction, call-graph
resolution, catalogue parsing, and pragma suppression are all covered
end to end.
"""

import textwrap
from pathlib import Path

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_module(tmp_path, pkg, code, name="mod.py"):
    d = tmp_path / "src" / "repro" / pkg
    d.mkdir(parents=True, exist_ok=True)
    f = d / name
    f.write_text(textwrap.dedent(code))
    return f


def lint_tree(tmp_path):
    return run_lint([tmp_path / "src" / "repro"], root=tmp_path)


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# REP006 — blocking calls reachable from async bodies
# ----------------------------------------------------------------------

def test_rep006_direct_blocking_call_in_coroutine(tmp_path):
    write_module(tmp_path, "serve", """\
        import time

        async def handler(frame):
            time.sleep(0.01)
            return frame
    """)
    findings = by_rule(lint_tree(tmp_path), "REP006")
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message
    assert "handler" in findings[0].message


def test_rep006_blocking_reached_through_sync_helpers(tmp_path):
    """A coroutine calling a sync chain that opens a file is flagged
    with the witness chain, not just the leaf call."""
    write_module(tmp_path, "serve", """\
        def read_all(path):
            with open(path) as fh:
                return fh.read()

        def load(path):
            return read_all(path)

        async def handler(path):
            return load(path)
    """)
    findings = by_rule(lint_tree(tmp_path), "REP006")
    assert len(findings) == 1
    assert "open" in findings[0].message
    assert "load -> read_all" in findings[0].message


def test_rep006_bare_lock_acquire_flagged_awaited_is_not(tmp_path):
    write_module(tmp_path, "serve", """\
        async def bad(lock):
            lock.acquire()
            lock.release()

        async def good(lock):
            await lock.acquire()
            lock.release()
    """)
    findings = by_rule(lint_tree(tmp_path), "REP006")
    assert len(findings) == 1
    assert "acquire" in findings[0].message
    assert "bad" in findings[0].message


def test_rep006_negative_async_idioms_are_clean(tmp_path):
    write_module(tmp_path, "serve", """\
        import asyncio

        def work(x):
            return x + 1

        async def handler(x):
            await asyncio.sleep(0)
            return await asyncio.to_thread(work, x)
    """)
    assert by_rule(lint_tree(tmp_path), "REP006") == []


def test_rep006_scoped_to_the_serve_package(tmp_path):
    """Only the serving layer runs an event loop; async helpers
    elsewhere may block (they run under asyncio.run in scripts)."""
    write_module(tmp_path, "store", """\
        import time

        async def maintenance():
            time.sleep(0.01)
    """)
    assert by_rule(lint_tree(tmp_path), "REP006") == []


def test_rep006_pragma_suppresses(tmp_path):
    write_module(tmp_path, "serve", """\
        import time

        async def handler(frame):
            time.sleep(0.01)  # repro: allow(REP006)
            return frame
    """)
    assert by_rule(lint_tree(tmp_path), "REP006") == []


# ----------------------------------------------------------------------
# REP007 — fire-and-forget task/timer handles
# ----------------------------------------------------------------------

def test_rep007_dropped_handles_flagged(tmp_path):
    write_module(tmp_path, "serve", """\
        import asyncio

        async def kick(coro_fn):
            asyncio.create_task(coro_fn())

        def schedule(loop, cb):
            loop.call_later(0.1, cb)
    """)
    findings = by_rule(lint_tree(tmp_path), "REP007")
    assert len(findings) == 2
    messages = "\n".join(f.message for f in findings)
    assert "create_task" in messages and "call_later" in messages


def test_rep007_kept_handles_are_clean(tmp_path):
    write_module(tmp_path, "serve", """\
        import asyncio

        async def kick(tasks, coro_fn):
            task = asyncio.create_task(coro_fn())
            tasks.add(task)
            await task

        def schedule(loop, cb):
            return loop.call_later(0.1, cb)
    """)
    assert by_rule(lint_tree(tmp_path), "REP007") == []


# ----------------------------------------------------------------------
# REP008 — wire-protocol conformance
# ----------------------------------------------------------------------

PROTOCOL_OK = """\
    OP_READY = "ready"
    FRONTEND_OPS = ("query", "ping")
    SHARD_OPS = ("batch", "ping", "shutdown")
    ERROR_TYPES = {"bad_request": ValueError, "internal": RuntimeError}
"""


def test_rep008_shard_op_missing_from_protocol_table(tmp_path):
    """The seeded-violation scenario: an op added to the shard dispatch
    but not to protocol.SHARD_OPS fails the lint."""
    write_module(tmp_path, "serve", PROTOCOL_OK, name="protocol.py")
    write_module(tmp_path, "serve", """\
        def handle(op):
            if op == "batch":
                return 1
            if op == "ping":
                return 2
            if op == "snapshot":
                return 3

        def run(obj):
            if obj.get("op") == "shutdown":
                return None
    """, name="shard.py")
    findings = by_rule(lint_tree(tmp_path), "REP008")
    assert len(findings) == 1
    assert "'snapshot'" in findings[0].message
    assert findings[0].path.endswith("shard.py")


def test_rep008_declared_op_never_handled(tmp_path):
    write_module(tmp_path, "serve", PROTOCOL_OK, name="protocol.py")
    write_module(tmp_path, "serve", """\
        def handle(op):
            if op == "batch":
                return 1
            if op == "ping":
                return 2
    """, name="shard.py")
    findings = by_rule(lint_tree(tmp_path), "REP008")
    assert len(findings) == 1
    assert "'shutdown'" in findings[0].message
    # the anchor is the table declaration, so the fix lands in protocol.py
    assert findings[0].path.endswith("protocol.py")


def test_rep008_frontend_sends_unknown_shard_op(tmp_path):
    write_module(tmp_path, "serve", PROTOCOL_OK, name="protocol.py")
    write_module(tmp_path, "serve", """\
        def build(payload):
            return {"op": "mystery", "payload": payload}

        async def dispatch(op, frame):
            if op == "query":
                return frame
            if op == "ping":
                return frame
    """, name="frontend.py")
    findings = by_rule(lint_tree(tmp_path), "REP008")
    assert len(findings) == 1
    assert "'mystery'" in findings[0].message


def test_rep008_error_response_outside_taxonomy(tmp_path):
    write_module(tmp_path, "serve", PROTOCOL_OK, name="protocol.py")
    write_module(tmp_path, "serve", """\
        def fail(rid):
            return error_response(rid, "no_such_type")
    """, name="frontend_errors.py")
    findings = by_rule(lint_tree(tmp_path), "REP008")
    assert len(findings) == 1
    assert "'no_such_type'" in findings[0].message


def test_rep008_missing_tables_is_itself_a_finding(tmp_path):
    write_module(tmp_path, "serve", """\
        MAX_FRAME_BYTES = 1 << 20
    """, name="protocol.py")
    findings = by_rule(lint_tree(tmp_path), "REP008")
    assert len(findings) == 1
    assert "source of truth" in findings[0].message


def test_rep008_conforming_peers_are_clean(tmp_path):
    write_module(tmp_path, "serve", PROTOCOL_OK, name="protocol.py")
    write_module(tmp_path, "serve", """\
        def handle(op):
            if op == "batch":
                return 1
            if op == "ping":
                return 2

        def run(obj):
            if obj.get("op") == "shutdown":
                return None

        def ready_frame():
            return {"op": "ready"}
    """, name="shard.py")
    write_module(tmp_path, "serve", """\
        def forward(payload):
            return {"op": "batch", "payload": payload}

        async def dispatch(op, frame):
            if op == "query":
                return frame
            if op == "ping":
                return frame
    """, name="frontend.py")
    write_module(tmp_path, "serve", """\
        class Client:
            def ask(self, vertex):
                return self.call("query", vertex=vertex)

            def ping(self):
                return self.send("ping")
    """, name="client.py")
    assert by_rule(lint_tree(tmp_path), "REP008") == []


# ----------------------------------------------------------------------
# REP009 — metric names vs the docs catalogue
# ----------------------------------------------------------------------

def write_catalogue(tmp_path, rows):
    doc = tmp_path / "docs"
    doc.mkdir(exist_ok=True)
    lines = [
        "### Metric names",
        "",
        "| name | kind | unit | emitting module |",
        "| --- | --- | --- | --- |",
        *rows,
        "",
        "### Trace file schema",
        "",
    ]
    (doc / "architecture.md").write_text("\n".join(lines))


def test_rep009_undocumented_and_dead_and_grammar(tmp_path):
    write_catalogue(tmp_path, [
        "| `repro.serve.good` | counter | events | `serve` |",
        "| `repro.serve.dead` | counter | events | `serve` |",
    ])
    write_module(tmp_path, "serve", """\
        from repro.obs import metrics

        def run():
            metrics.inc("repro.serve.good")
            metrics.inc("repro.serve.undocumented")
            metrics.observe("repro.serve.BadName", 1.0)
    """)
    findings = by_rule(lint_tree(tmp_path), "REP009")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3
    assert "repro.serve.undocumented" in messages
    assert "repro.serve.dead" in messages and "dead docs row" in messages
    assert "repro.serve.BadName" in messages and "grammar" in messages
    # the dead-row finding points into the docs, not the source
    dead = [f for f in findings if "dead docs row" in f.message]
    assert dead[0].path == "docs/architecture.md"


def test_rep009_alternation_rows_and_dynamic_mentions(tmp_path):
    """`/`-joined rows expand; a name reachable only through a constant
    table (dynamic emit) still counts as alive."""
    write_catalogue(tmp_path, [
        "| `repro.serve.hits` / `.misses` | counter | events | `serve` |",
        "| `repro.serve.dyn` | gauge | bytes | `serve` |",
    ])
    write_module(tmp_path, "serve", """\
        from repro.obs import metrics

        SIZES = {"repro.serve.dyn": 0}

        def run():
            metrics.inc("repro.serve.hits")
            metrics.inc("repro.serve.misses")
    """)
    assert by_rule(lint_tree(tmp_path), "REP009") == []


def test_rep009_dead_rows_gated_on_linted_modules(tmp_path):
    """A partial lint (serve only) must not flag rows owned by modules
    outside the run — only full-tree runs see the whole catalogue."""
    write_catalogue(tmp_path, [
        "| `repro.serve.good` | counter | events | `serve` |",
        "| `repro.truss.ghost` | counter | rounds | `truss.decompose` |",
    ])
    write_module(tmp_path, "serve", """\
        from repro.obs import metrics

        def run():
            metrics.inc("repro.serve.good")
    """)
    assert by_rule(lint_tree(tmp_path), "REP009") == []


# ----------------------------------------------------------------------
# REP010 — store section names vs the format constant table
# ----------------------------------------------------------------------

FORMAT_OK = """\
    STORE_FORMAT_VERSION = 3

    REQUIRED_SECTIONS = (
        "graph.nodes",
        "graph.edges",
    )
"""


def test_rep010_ad_hoc_section_literal_flagged(tmp_path):
    write_module(tmp_path, "store", FORMAT_OK, name="format.py")
    write_module(tmp_path, "store", """\
        def sections():
            return ["graph.nodes", "graph.rogue"]
    """, name="writer.py")
    findings = by_rule(lint_tree(tmp_path), "REP010")
    assert len(findings) == 1
    assert "'graph.rogue'" in findings[0].message


def test_rep010_docstrings_and_known_names_are_clean(tmp_path):
    write_module(tmp_path, "store", FORMAT_OK, name="format.py")
    write_module(tmp_path, "store", """\
        def doc():
            \"\"\"graph.sections\"\"\"
            return ("graph.nodes", "graph.edges")
    """, name="writer.py")
    assert by_rule(lint_tree(tmp_path), "REP010") == []


def test_rep010_scoped_to_the_store_package(tmp_path):
    write_module(tmp_path, "store", FORMAT_OK, name="format.py")
    write_module(tmp_path, "serve", """\
        def label():
            return "graph.rogue"
    """)
    assert by_rule(lint_tree(tmp_path), "REP010") == []
