"""The ``# repro: allow[<rule-id>]`` suppression mechanism.

A finding is *suppressed* when a suppression comment naming its rule
appears within the finding's window: the line above the flagged
statement, the flagged line itself, or any continuation line of the
statement (multi-line calls put the comment wherever it reads best).
Several rules can share one comment::

    handle = POOL_REGISTRY  # repro: allow[fork-safety]
    # repro: allow[dtype, shift-mask]
    table = np.zeros(256)

Suppressions are for *documented* exceptions — per-process worker
initializers, deliberate layering debt — never a substitute for
fixing a genuine defect; the README table states the policy per rule.
Suppressed findings still appear in ``--format json`` (flagged
``"suppressed": true``) so an audit can list every exception in the
tree, but they do not fail the gate.
"""

from __future__ import annotations

import re

#: One suppression comment: ``# repro: allow[<id>]``, or several ids
#: separated by commas.  Rule ids are kebab-case.
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*([a-z0-9][a-z0-9_\-]*"
    r"(?:\s*,\s*[a-z0-9][a-z0-9_\-]*)*)\s*\]"
)


class Suppressions:
    """Per-file map of source line -> suppressed rule ids."""

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, frozenset[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            ids: set[str] = set()
            for match in _ALLOW_RE.finditer(text):
                ids.update(part.strip()
                           for part in match.group(1).split(","))
            if ids:
                self._by_line[lineno] = frozenset(ids)

    def __len__(self) -> int:
        return len(self._by_line)

    def rule_ids(self) -> frozenset[str]:
        """Every rule id named by any suppression in the file."""
        ids: set[str] = set()
        for line_ids in self._by_line.values():
            ids.update(line_ids)
        return frozenset(ids)

    def is_suppressed(self, rule: str, line: int,
                      end_line: int | None = None) -> bool:
        """Whether ``rule`` is suppressed in ``[line - 1, end_line]``."""
        last = end_line if end_line is not None else line
        return any(
            rule in self._by_line.get(candidate, ())
            for candidate in range(line - 1, max(last, line) + 1)
        )
