"""``python -m repro.analysis`` — run the kernel-contract linter.

Exit codes: 0 clean (or every finding grandfathered), 1 new findings,
2 usage error. ``repro lint`` (the CLI subcommand) is a thin alias.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.engine import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    find_repo_root,
    iter_rule_docs,
    run_lint,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST contract linter for the repro kernel and serving "
        "layers (REP001, REP003-REP010)",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro under the "
        "repo root)",
    )
    parser.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE_NAME, default=None,
        metavar="PATH",
        help="compare against a baseline file; only findings absent from "
        f"it fail the run (default path: {DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline", nargs="?", const=DEFAULT_BASELINE_NAME,
        default=None, metavar="PATH",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--rules", default=None, metavar="REP001,REP003",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="finding output format",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its contract and exit",
    )
    return parser


def _select_rules(spec: str | None):
    """Rules matching a ``--rules`` spec; ValueError on a bad spec."""
    from repro.analysis.rules import default_rules

    rules = default_rules()
    if spec is None:
        return rules
    valid = ", ".join(r.id for r in rules)
    wanted = {r.strip().upper() for r in spec.split(",") if r.strip()}
    if not wanted:
        raise ValueError(f"--rules selected no rules; valid ids: {valid}")
    unknown = wanted - {r.id for r in rules}
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"valid ids: {valid}"
        )
    return [r for r in rules if r.id in wanted]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, title, hint in iter_rule_docs():
            print(f"{rule_id}  {title}")
            print(f"        fix: {hint}")
        return 0

    try:
        rules = _select_rules(args.rules)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    root = find_repo_root()
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        default = root / "src" / "repro"
        if not default.exists():
            print(
                "no paths given and no src/repro under the repo root; "
                "pass explicit paths",
                file=sys.stderr,
            )
            return 2
        paths = [default]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    try:
        findings = run_lint(paths, rules=rules, root=root)
    except SyntaxError as exc:
        print(f"syntax error while parsing: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        path = Path(args.write_baseline)
        if not path.is_absolute():
            path = root / path
        Baseline.from_findings(
            findings, note="grandfathered at baseline creation"
        ).save(path)
        print(f"wrote baseline with {len(findings)} finding(s) -> {path}")
        return 0

    new = findings
    stale: list[str] = []
    if args.baseline is not None:
        bpath = Path(args.baseline)
        if not bpath.is_absolute():
            bpath = root / bpath
        baseline = Baseline.load(bpath)
        new, stale = baseline.split(findings)

    if args.format == "json":
        print(json.dumps(
            {
                "findings": [f.to_json() for f in new],
                "grandfathered": len(findings) - len(new),
                "stale_baseline_entries": stale,
            },
            indent=2,
        ))
    else:
        for f in new:
            print(f.format())
        for fp in stale:
            print(
                f"note: baseline entry {fp} no longer matches any finding "
                "(consider rewriting the baseline)",
                file=sys.stderr,
            )
        grandfathered = len(findings) - len(new)
        status = "clean" if not new else f"{len(new)} new finding(s)"
        extra = f", {grandfathered} grandfathered" if grandfathered else ""
        print(f"repro.analysis: {status}{extra}")
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
