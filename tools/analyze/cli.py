"""The analyzer's command line, run from the repository root as
``python tools/analyze [paths] [--rule ID] [--format json]
[--list-rules]``.  Exit codes: 0 clean, 1 findings, 2 usage error."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from analyze.engine import analyze_paths
from analyze.registry import UnknownRuleError, all_rules


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/analyze",
        description="static analysis: enforce the repo's invariants "
                    "(determinism, dtype, fork-safety, layering, ...)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to scan "
                             "(default: src)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="RULE_ID",
                        help="run only this rule (repeatable; "
                             "default: every registered rule)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}: {rule.summary}")
            print(f"    why: {rule.rationale}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        report = analyze_paths(args.paths, rule_ids=args.rule)
    except UnknownRuleError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code()
