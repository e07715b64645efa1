"""Finding records: what a rule reports and how it serializes.

A :class:`Finding` is one rule violation at one source location.  The
record is deliberately flat and JSON-friendly: ``python tools/analyze
--format json`` emits exactly :meth:`Finding.to_dict` per finding, and
:meth:`Finding.from_dict` round-trips it (tested in
``tests/test_analysis.py``), so CI consumers can parse the output
without reverse-engineering the text format.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

#: Finding severities, most severe first.  Every shipped rule reports
#: ``error`` (the gate is blocking); ``warning`` exists so future
#: advisory rules can ride the same machinery without failing CI.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one ``file:line:col`` location.

    The dataclass orders by ``(path, line, col, rule, ...)`` so report
    output is deterministic for any rule evaluation order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"
    #: Last source line of the flagged statement: the suppression
    #: window of the finding is ``[line - 1, end_line]`` (a ``# repro:
    #: allow[rule]`` comment on the line above, on the flagged line,
    #: or on any continuation line of the statement).
    end_line: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity {self.severity!r} not in {SEVERITIES}"
            )
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-output shape of the finding."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict` (JSON round-trip)."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            rule=str(payload["rule"]),
            message=str(payload["message"]),
            severity=str(payload.get("severity", "error")),
            end_line=int(payload.get("end_line", 0)),
        )

    def format_text(self) -> str:
        """The one-line text-format rendering."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}] {self.message}")
