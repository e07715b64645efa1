"""Static analysis for the repro codebase: ``python tools/analyze``.

An AST-based invariant checker enforcing the contracts the test
suite cannot see from outputs alone: determinism of the result path,
dtype/shift discipline in the packed kernels, fork/pool safety of
worker code, the package layer order, and exception hygiene.  See
``python tools/analyze --list-rules`` for the registered rules and
why each is load-bearing.

Findings carry ``path:line:col`` anchors and a rule id; a finding is
suppressed in-tree with a ``# repro: allow[<rule-id>]`` comment on (or
immediately above) the offending statement — always with the reason
alongside, and only for deliberate, documented exceptions.
"""

from analyze.engine import (
    JSON_FORMAT_VERSION,
    AnalysisReport,
    Module,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from analyze.findings import Finding
from analyze.registry import (
    Rule,
    UnknownRuleError,
    all_rules,
    get_rule,
    resolve_rules,
)
from analyze.suppressions import Suppressions

__all__ = [
    "JSON_FORMAT_VERSION",
    "AnalysisReport",
    "Finding",
    "Module",
    "Rule",
    "Suppressions",
    "UnknownRuleError",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "iter_python_files",
    "resolve_rules",
]
