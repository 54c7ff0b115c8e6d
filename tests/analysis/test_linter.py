"""Unit tests for the AST contract linter (repro.analysis).

One positive (violating) and one negative (conforming) fixture per rule
REP001-REP005, plus suppression pragmas, the baseline mechanism, and the
CLI exit codes. Fixture modules are written under a synthetic
``src/repro/<pkg>/`` tree so package-scoped rules see the right package.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis import Baseline, run_lint
from repro.analysis.__main__ import main as lint_main
from repro.analysis.engine import DEFAULT_BASELINE_NAME

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_module(tmp_path, pkg, code, name="mod.py"):
    d = tmp_path / "src" / "repro" / pkg
    d.mkdir(parents=True, exist_ok=True)
    f = d / name
    f.write_text(textwrap.dedent(code))
    return f


def lint(tmp_path, pkg, code):
    f = write_module(tmp_path, pkg, code)
    return run_lint([f], root=tmp_path)


def rule_ids(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# REP001 — process-kernel purity
# ----------------------------------------------------------------------

def test_rep001_flags_lambda_and_global_mutation(tmp_path):
    findings = lint(tmp_path, "truss", """\
        CACHE = {}

        def _w_bad(h):
            CACHE[h] = 1
            return h

        def run(be, tasks):
            return be.map_tasks(lambda t: t, tasks)
    """)
    assert rule_ids(findings).count("REP001") == 2
    messages = " ".join(f.message for f in findings)
    assert "lambda" in messages and "CACHE" in messages


def test_rep001_flags_bound_method_and_nested_def(tmp_path):
    findings = lint(tmp_path, "truss", """\
        def run(be, tasks):
            def inner(t):
                return t
            be.map_tasks(inner, tasks)
            return be.map_tasks(be.helper, tasks)
    """)
    assert rule_ids(findings).count("REP001") == 2


def test_rep001_clean_module_level_worker(tmp_path):
    findings = lint(tmp_path, "truss", """\
        from repro.parallel.shm import attach

        def _w_ok(h, lo, hi):
            out = attach(h)
            out[lo:hi] = 0
            return hi - lo

        def run(be, tasks):
            return be.map_tasks(_w_ok, tasks)
    """)
    assert "REP001" not in rule_ids(findings)


# ----------------------------------------------------------------------
# REP003 — ctx threading
# ----------------------------------------------------------------------

def test_rep003_flags_dropped_ctx_and_bare_context(tmp_path):
    findings = lint(tmp_path, "cc", """\
        from repro.parallel.context import ExecutionContext

        def helper(x, ctx=None):
            return x

        def entry(g, ctx=None):
            bad = ExecutionContext()
            return helper(g)
    """)
    ids = rule_ids(findings)
    assert ids.count("REP003") == 2


def test_rep003_clean_when_ctx_forwarded(tmp_path):
    findings = lint(tmp_path, "cc", """\
        def helper(x, ctx=None):
            return x

        def entry(g, ctx=None):
            return helper(g, ctx=ctx)

        def positional(g, ctx=None):
            return helper(g, ctx)
    """)
    assert "REP003" not in rule_ids(findings)


def test_rep003_ignores_non_kernel_packages(tmp_path):
    findings = lint(tmp_path, "utils", """\
        from repro.parallel.context import ExecutionContext

        def make():
            return ExecutionContext()
    """)
    assert "REP003" not in rule_ids(findings)


# ----------------------------------------------------------------------
# REP004 — span/metric hygiene
# ----------------------------------------------------------------------

def test_rep004_flags_dynamic_and_offnamespace_names(tmp_path):
    findings = lint(tmp_path, "serve", """\
        from repro.obs import metrics

        def publish(name):
            metrics.inc(name, 1)
            metrics.set_gauge("wrong.namespace", 2)
    """)
    assert rule_ids(findings).count("REP004") == 2


def test_rep004_accepts_literals_and_module_constants(tmp_path):
    findings = lint(tmp_path, "serve", """\
        from repro.obs import metrics

        GAUGE = "repro.serve.depth"

        def publish(ctx):
            metrics.inc("repro.serve.hits", 1)
            metrics.set_gauge(GAUGE, 2)
            with ctx.region("repro.serve.query"):
                pass
    """)
    assert "REP004" not in rule_ids(findings)


# ----------------------------------------------------------------------
# REP005 — key-dtype safety
# ----------------------------------------------------------------------

def test_rep005_flags_unguarded_key_arithmetic(tmp_path):
    findings = lint(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    assert "REP005" in rule_ids(findings)


def test_rep005_accepts_guarded_forms(tmp_path):
    findings = lint(tmp_path, "equitruss", """\
        import numpy as np

        def cast_inline(u, v, n):
            return u.astype(np.int64) * n + v

        def cast_scalar(u, v, n):
            return u * np.int64(n) + v

        def guarded_local(u, v, n):
            span = np.int64(n)
            return u * span + v

        def policy(u, v, n, kd):
            return kd.type(u) * n + v

        def scalar_math(x):
            return x * 2 + 1
    """)
    assert "REP005" not in rule_ids(findings)


def test_rep005_flags_module_level_key_arithmetic(tmp_path):
    """Key builds outside any function body (constants, class-level
    expressions) are scanned too — the graph/ ingest path builds keys in
    module scope in places."""
    findings = lint(tmp_path, "graph", """\
        import numpy as np

        U = np.arange(4)
        V = np.arange(4)
        N_V = 70000
        KEYS = U * N_V + V
    """)
    assert "REP005" in rule_ids(findings)


def test_rep005_module_level_guards_accepted(tmp_path):
    findings = lint(tmp_path, "graph", """\
        import numpy as np

        U = np.arange(4)
        V = np.arange(4)
        SPAN = np.int64(70000)
        KEYS = U * SPAN + V
        INLINE = U * np.int64(70000) + V
    """)
    assert "REP005" not in rule_ids(findings)


def test_scanned_packages_exist():
    """Every package the kernel and dtype rules scan is a real package,
    so deleting one cannot leave a stale scan target behind."""
    from repro.analysis.rules import DTYPE_PACKAGES, KERNEL_PACKAGES

    src = REPO_ROOT / "src" / "repro"
    missing = sorted(
        name for name in KERNEL_PACKAGES | DTYPE_PACKAGES
        if not (src / name / "__init__.py").is_file()
    )
    assert not missing


# ----------------------------------------------------------------------
# Suppression pragmas and baseline
# ----------------------------------------------------------------------

def test_pragma_suppresses_on_the_offending_line(tmp_path):
    findings = lint(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v  # repro: allow(REP005)
    """)
    assert findings == []


def test_pragma_only_covers_named_rules(tmp_path):
    findings = lint(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v  # repro: allow(REP004)
    """)
    assert "REP005" in rule_ids(findings)


def test_baseline_grandfathers_and_survives_line_moves(tmp_path):
    f = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    findings = run_lint([f], root=tmp_path)
    baseline = Baseline.from_findings(findings, note="legacy")

    # same violation, moved two lines down: fingerprint still matches
    f.write_text("X = 1\nY = 2\n" + f.read_text())
    moved = run_lint([f], root=tmp_path)
    new, stale = baseline.split(moved)
    assert new == [] and stale == []

    # a second, different violation is new
    f.write_text(f.read_text() + "\ndef more(a, b, m):\n    return a * m + b\n")
    new, _stale = baseline.split(run_lint([f], root=tmp_path))
    assert len(new) == 1


def test_baseline_survives_file_rename(tmp_path):
    """A grandfathered finding stays grandfathered when its file moves.

    The exact fingerprint embeds the repo-relative path, so a rename
    misses it — the content fallback (rule + snippet, matched
    one-to-one) must pick it up instead of resurfacing the finding.
    """
    f = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    baseline = Baseline.from_findings(run_lint([f], root=tmp_path))

    renamed = f.with_name("keys.py")
    f.rename(renamed)
    new, stale = baseline.split(run_lint([renamed], root=tmp_path))
    assert new == [] and stale == []


def test_baseline_rename_fallback_is_one_to_one(tmp_path):
    """Content matching consumes one stale entry per finding, no more.

    One baseline entry must absorb exactly one of two identical
    violations in the renamed file — the duplicate is a real new
    finding, not grandfathered by association.
    """
    f = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    baseline = Baseline.from_findings(run_lint([f], root=tmp_path))

    renamed = f.with_name("keys.py")
    f.rename(renamed)
    renamed.write_text(
        renamed.read_text()
        + "\n\ndef pair_keys2(u, v, n):\n    return u * n + v\n"
    )
    new, stale = baseline.split(run_lint([renamed], root=tmp_path))
    assert len(new) == 1 and stale == []


def test_baseline_reports_stale_entries(tmp_path):
    f = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    baseline = Baseline.from_findings(run_lint([f], root=tmp_path))
    f.write_text("def pair_keys(u, v, n):\n    return (u, v, n)\n")
    new, stale = baseline.split(run_lint([f], root=tmp_path))
    assert new == [] and len(stale) == 1


# ----------------------------------------------------------------------
# CLI (python -m repro.analysis)
# ----------------------------------------------------------------------

def test_cli_exit_codes_on_fixture_tree(tmp_path, capsys):
    bad = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    assert lint_main([str(bad)]) == 1
    assert "REP005" in capsys.readouterr().out

    good = write_module(tmp_path, "serve", "def f():\n    return 1\n")
    assert lint_main([str(good)]) == 0


def test_cli_write_then_compare_baseline(tmp_path, capsys):
    bad = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    bpath = tmp_path / DEFAULT_BASELINE_NAME
    assert lint_main([str(bad), "--write-baseline", str(bpath)]) == 0
    doc = json.loads(bpath.read_text())
    assert doc["version"] == 1 and len(doc["findings"]) == 1

    # grandfathered: exit 0; without the baseline: exit 1
    assert lint_main([str(bad), "--baseline", str(bpath)]) == 0
    assert lint_main([str(bad)]) == 1
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    bad = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    assert lint_main([str(bad), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"][0]["rule"] == "REP005"
    assert doc["findings"][0]["fingerprint"]


def test_cli_rule_selection_and_listing(tmp_path, capsys):
    bad = write_module(tmp_path, "equitruss", """\
        def pair_keys(u, v, n):
            return u * n + v
    """)
    assert lint_main([str(bad), "--rules", "REP003"]) == 0
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in (
        "REP001", "REP003", "REP004", "REP005",
        "REP006", "REP007", "REP008", "REP009", "REP010",
    ):
        assert rid in out
    # unknown / empty rule specs are usage errors (exit 2), and the
    # message names every valid id so the caller can self-correct
    assert lint_main([str(bad), "--rules", "REP999"]) == 2
    err = capsys.readouterr().err
    assert "REP999" in err
    assert "REP001" in err and "REP010" in err
    assert lint_main([str(bad), "--rules", ",,,"]) == 2


def test_real_tree_is_clean():
    """The shipped sources must lint clean (the CI contract)."""
    src = REPO_ROOT / "src" / "repro"
    assert run_lint([src], root=REPO_ROOT) == []
