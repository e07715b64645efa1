"""Every test id that ``.github/workflows/ci.yml`` names exists.

CI steps select tests by id (``tests/test_x.py::TestClass::test_y``).
A renamed file, class or function turns such a step into a run that
fails on a missing id, which a red CI no one reads would hide; this
check fails tier-1 instead.  It reads the test files with :mod:`ast`
and runs nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"
TEST_ID = re.compile(r"\btests/[\w/.-]+?\.py(?:::\w+)*")


def _ci_test_ids() -> list[str]:
    return sorted(set(TEST_ID.findall(CI.read_text())))


def _resolves(test_id: str) -> bool:
    """Whether the file of ``test_id`` exists and defines its classes
    and function, each inside the one before."""
    path, *names = test_id.split("::")
    source = REPO_ROOT / path
    if not source.is_file():
        return False
    scope = ast.parse(source.read_text()).body
    for name in names:
        node = next((node for node in scope
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        scope = node.body
    return True


def test_every_ci_test_id_exists():
    ids = _ci_test_ids()
    # The deep-profile step alone names six by class or function.
    assert len([i for i in ids if "::" in i]) >= 6
    assert [i for i in ids if not _resolves(i)] == []


def test_a_missing_id_is_caught():
    assert _resolves("tests/test_windows.py::TestExactWindows"
                     "::test_rung_equals_kernel")
    assert not _resolves("tests/test_windows.py::TestExactWindows"
                         "::test_no_such_test")
    assert not _resolves("tests/test_windows.py::NoSuchClass")
    assert not _resolves("tests/test_no_such_file.py")
    # A method is found in its class only, not at module level.
    assert not _resolves("tests/test_windows.py::test_rung_equals_kernel")
