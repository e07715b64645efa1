"""Rule ``except-hygiene``: no bare or silently swallowed excepts.

A mapper that swallows an exception emits *wrong output* instead of
no output: a half-written SAM file, a shard whose statistics silently
vanished, an index whose checksum failure was ignored.  The io layer
deliberately raises typed errors (``ArtifactError``,
``SamFormatError``, ...) precisely so callers can be exact about what
they handle; a ``except:`` or an ``except Exception: pass`` undoes
that design at one stroke (and bare ``except:`` also eats
``KeyboardInterrupt`` / ``SystemExit``, wedging worker pools instead
of letting them die).

Flagged:

* ``except:`` — always;
* ``except Exception:`` / ``except BaseException:`` whose body does
  nothing (only ``pass`` / ``...``) — catching broadly *and*
  discarding silently.

Broad handlers that re-raise, log, or translate are fine: the rule
only fires when the handler provably discards the error.
"""

from __future__ import annotations

import ast

from analyze.astutils import dotted_name
from analyze.engine import Module
from analyze.findings import Finding
from analyze.registry import rule

_BROAD = frozenset({"Exception", "BaseException"})


def _is_silent(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        return False
    return True


@rule(
    "except-hygiene",
    "no bare `except:`; no `except Exception: pass`",
    "swallowed exceptions turn crashes into silently wrong mapping "
    "output, and bare excepts eat KeyboardInterrupt/SystemExit, "
    "wedging forked worker pools",
)
def check_except_hygiene(module: Module) -> list[Finding]:
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(module.finding(
                "except-hygiene", node,
                "bare `except:` also catches KeyboardInterrupt/"
                "SystemExit; name the exception types",
            ))
            continue
        caught = dotted_name(node.type)
        if caught in _BROAD and _is_silent(node.body):
            findings.append(module.finding(
                "except-hygiene", node,
                f"`except {caught}:` with an empty body silently "
                "swallows every error; handle, log, or re-raise",
            ))
    return findings
