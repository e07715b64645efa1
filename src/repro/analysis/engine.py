"""The analysis engine: parse once, run every rule, filter
suppressions, report.

The engine is the only layer that touches the filesystem.  Each
``.py`` file is parsed into one :class:`Module` (source, AST, dotted
module name, suppression table); every selected rule's ``check`` runs
over it, and findings whose window carries a matching ``# repro:
allow[rule-id]`` comment are marked suppressed rather than dropped —
``--format json`` reports them for auditability, the exit code
ignores them.

Module identity matters: several rules are scoped by dotted module
name (the dtype rules fire only in kernel modules, the layering rule
maps names to layers).  :meth:`Module.load` infers the name from the
path's trailing ``repro/...`` segment; :func:`analyze_source` accepts
an explicit override so fixture snippets can impersonate any module
(that is how ``tests/test_analysis.py`` exercises the scoped rules).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, resolve_rules
from repro.analysis.suppressions import Suppressions

#: Schema version of the ``--format json`` payload.
JSON_FORMAT_VERSION = 1


@dataclass
class Module:
    """One parsed source file, as the rules see it."""

    path: str
    name: str | None
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def load(cls, path: Path, name: str | None = None) -> "Module":
        source = path.read_text()
        return cls.from_source(source, path=str(path), name=name)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>",
                    name: str | None = None) -> "Module":
        if name is None:
            name = _infer_module_name(Path(path))
        tree = ast.parse(source, filename=path)
        return cls(path=path, name=name, source=source, tree=tree,
                   suppressions=Suppressions(source))

    def finding(self, rule_id: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
            severity=severity,
            end_line=getattr(node, "end_lineno", None) or line,
        )


def _infer_module_name(path: Path) -> str | None:
    """Dotted module name from the trailing ``repro/...`` segment.

    ``src/repro/align/genasm.py`` -> ``repro.align.genasm``; paths
    without a ``repro`` component (fixture snippets) have no inferred
    identity and the module-scoped rules skip them.
    """
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    # The *last* occurrence: src layouts nest repro only once, but a
    # checkout under a directory itself called repro must not confuse
    # the inference.
    start = len(parts) - 1 - parts[::-1].index("repro")
    segments = parts[start:]
    segments[-1] = Path(segments[-1]).stem
    if segments[-1] == "__init__":
        segments.pop()
    return ".".join(segments)


@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` run produced."""

    rules: tuple[Rule, ...]
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self) -> int:
        """The CLI gate: 0 when clean, 1 when findings remain."""
        return 0 if self.clean else 1

    def to_json(self) -> str:
        payload = {
            "version": JSON_FORMAT_VERSION,
            "rules": [rule.id for rule in self.rules],
            "files_scanned": self.files_scanned,
            "findings": (
                [dict(f.to_dict(), suppressed=False)
                 for f in self.findings]
                + [dict(f.to_dict(), suppressed=True)
                   for f in self.suppressed]
            ),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = [finding.format_text()
                 for finding in sorted(self.findings)]
        lines.append(
            f"{len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'} "
            f"({len(self.suppressed)} suppressed) in "
            f"{self.files_scanned} file"
            f"{'' if self.files_scanned == 1 else 's'}; "
            f"rules: {', '.join(rule.id for rule in self.rules)}"
        )
        return "\n".join(lines)


def analyze_module(module: Module,
                   rules: Sequence[Rule]) -> tuple[list[Finding],
                                                   list[Finding]]:
    """Run ``rules`` over one module: ``(findings, suppressed)``."""
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        for finding in rule.check(module):
            if module.suppressions.is_suppressed(
                    rule.id, finding.line, finding.end_line):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def analyze_source(source: str, path: str = "<string>",
                   name: str | None = None,
                   rule_ids: Iterable[str] | None = None,
                   ) -> AnalysisReport:
    """Analyze one source string (the fixture-test entry point)."""
    rules = resolve_rules(rule_ids)
    report = AnalysisReport(rules=rules, files_scanned=1)
    module = Module.from_source(source, path=path, name=name)
    report.findings, report.suppressed = analyze_module(module, rules)
    return report


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, sorted, deduplicated."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def analyze_paths(paths: Sequence[str | Path],
                  rule_ids: Iterable[str] | None = None,
                  ) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths``.

    Unreadable or syntactically invalid files produce a synthetic
    ``parse-error`` finding (never suppressed): a file the analyzer
    cannot check must fail the gate, not silently pass it.
    """
    rules = resolve_rules(rule_ids)
    report = AnalysisReport(rules=rules)
    for file_path in iter_python_files([Path(p) for p in paths]):
        report.files_scanned += 1
        try:
            module = Module.load(file_path)
        except (OSError, SyntaxError, ValueError) as exc:
            report.findings.append(Finding(
                path=str(file_path), line=1, col=0,
                rule="parse-error",
                message=f"cannot analyze: {exc}",
            ))
            continue
        findings, suppressed = analyze_module(module, rules)
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)
    return report
