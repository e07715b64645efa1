"""The rule registry: one :class:`Rule` per enforced invariant.

Rules register themselves at import time via the :func:`rule`
decorator (importing :mod:`analyze.rules` pulls every rule
module in): a plain dict, explicit registration, and lookup errors
that list what *is* registered.

A rule's ``check`` receives one parsed :class:`~analyze.engine.
Module` and returns its findings; the engine owns file walking,
suppression filtering, and output, so rule modules stay pure
AST-walking logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - only for hints
    from analyze.engine import Module
    from analyze.findings import Finding

CheckFn = Callable[["Module"], "list[Finding]"]


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    Attributes:
        id: kebab-case identifier, the name used by ``--rule`` and by
            ``# repro: allow[<id>]`` suppressions.
        summary: one-line statement of what the rule enforces.
        rationale: why the invariant is load-bearing for this repo
            (surfaced by ``python tools/analyze --list-rules``).
        check: the AST check itself.
    """

    id: str
    summary: str
    rationale: str
    check: CheckFn = field(repr=False)


_REGISTRY: dict[str, Rule] = {}


def rule(rule_id: str, summary: str,
         rationale: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` as the rule ``rule_id`` (decorator)."""

    def decorate(check: CheckFn) -> CheckFn:
        if not rule_id or rule_id.strip() != rule_id:
            raise ValueError(f"invalid rule id {rule_id!r}")
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(id=rule_id, summary=summary,
                                  rationale=rationale, check=check)
        return check

    return decorate


class UnknownRuleError(KeyError):
    """Raised when a requested rule id is not registered."""


def get_rule(rule_id: str) -> Rule:
    """Look up one registered rule by id."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise UnknownRuleError(
            f"unknown rule {rule_id!r}; registered: {known}"
        ) from None


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id."""
    _load_builtin_rules()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def resolve_rules(rule_ids: Iterable[str] | None) -> tuple[Rule, ...]:
    """Resolve ``--rule`` selections (None = every rule)."""
    if rule_ids is None:
        return all_rules()
    return tuple(get_rule(rule_id) for rule_id in rule_ids)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration side effect)."""
    from analyze import rules  # noqa: F401  (side effect)
