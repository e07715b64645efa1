#!/usr/bin/env python
"""Documentation checker: runnable examples, intra-repo links, and
CLI flags.

Three guarantees, so the documentation cannot silently rot:

* every fenced code block in ``docs/*.md`` whose first line contains
  the ``# runnable`` marker executes cleanly (``python`` blocks via
  the current interpreter with ``src`` on ``PYTHONPATH``; ``bash``
  blocks via ``bash -euo pipefail``);
* every intra-repository markdown link in ``docs/*.md`` and
  ``README.md`` resolves to an existing file (external ``http(s)``
  / ``mailto`` links and same-page ``#anchors`` are skipped; a
  link's ``#fragment`` is stripped before the existence check);
* every ``--flag`` on a ``repro <command> [<subcommand>]``
  invocation in ``docs/*.md`` and ``README.md`` — in a fenced block
  (backslash-continued lines joined) or an inline code span — is an
  option of that (sub)command's parser in :mod:`repro.cli`, and in a
  fenced block ``<command>`` is one of its subcommands.

Run from the repository root::

    python tools/check_docs.py [--verbose]

Exit codes: 0 clean, 1 findings.  CI's ``docs-check`` job blocks on
it; ``tests/test_docs.py`` runs the same checks in the tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

RUNNABLE_MARKER = "# runnable"


def _rel(path: Path) -> Path:
    """Repo-relative when possible (readable CI logs), else as-is."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path

#: ``[text](target)`` — good enough for the hand-written docs tree;
#: image links (``![...]``) share the shape and are checked too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_FENCE = re.compile(r"^```(\w*)\s*$")

_CODE_SPAN = re.compile(r"`([^`]+)`")

#: Shell tokens that end a command line's argument list.
_COMMAND_END = ("|", "&", ";", ">", "<", "#", "2>")


@dataclass
class CodeBlock:
    """One fenced code block: language tag, body, and location."""

    path: Path
    line: int          # 1-based line of the opening fence
    language: str
    code: str

    @property
    def runnable(self) -> bool:
        first = self.code.splitlines()[0] if self.code else ""
        return RUNNABLE_MARKER in first

    @property
    def where(self) -> str:
        return f"{_rel(self.path)}:{self.line}"


def extract_blocks(path: Path) -> list[CodeBlock]:
    """Fenced code blocks of one markdown file, in document order."""
    blocks: list[CodeBlock] = []
    language: str | None = None
    body: list[str] = []
    start = 0
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        fence = _FENCE.match(raw)
        if language is None:
            if fence:
                language, body, start = fence.group(1), [], number
        elif raw.strip() == "```":
            blocks.append(CodeBlock(path, start, language,
                                    "\n".join(body)))
            language = None
        else:
            body.append(raw)
    return blocks


def extract_links(path: Path) -> list[tuple[int, str]]:
    """``(line, target)`` for every intra-repo link in the file.

    External links (``http://``, ``https://``, ``mailto:``) and
    pure same-page anchors (``#...``) are not returned.
    """
    links: list[tuple[int, str]] = []
    in_fence = False
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(raw) or raw.strip() == "```":
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in _LINK.findall(raw):
            if target.startswith(("http://", "https://", "mailto:",
                                  "#")):
                continue
            links.append((number, target))
    return links


def _invocation_words(text: str) -> list[list[str]]:
    """The argument words after each ``repro`` token in one command
    line, up to the first shell separator or comment."""
    tokens = text.split()
    invocations = []
    for at, token in enumerate(tokens):
        if token != "repro":
            continue
        words = []
        for word in tokens[at + 1:]:
            if word.startswith(_COMMAND_END):
                break
            words.append(word)
        if words:
            invocations.append(words)
    return invocations


def extract_invocations(path: Path) -> list[tuple[int, list[str]]]:
    """``(line, words)`` for every ``repro ...`` command line in the
    file: fenced-block lines (backslash continuations joined,
    reported at their first line) and inline code spans elsewhere."""
    found: list[tuple[int, list[str]]] = []
    in_fence = False
    pending: list[str] = []
    start = 0
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        if _FENCE.match(raw) or raw.strip() == "```":
            in_fence = not in_fence
            pending = []
            continue
        if not in_fence:
            for span in _CODE_SPAN.findall(raw):
                found.extend((number, words)
                             for words in _invocation_words(span))
            continue
        if not pending:
            start = number
        pending.append(raw.rstrip().removesuffix("\\"))
        if raw.rstrip().endswith("\\"):
            continue
        found.extend((start, words)
                     for words in _invocation_words(" ".join(pending)))
        pending = []
    return found


def cli_parser() -> argparse.ArgumentParser:
    """The ``repro`` command's real argument parser."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.cli import build_parser

    return build_parser()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def check_flags(path: Path,
                parser: argparse.ArgumentParser) -> list[str]:
    """Every ``--flag`` of a documented invocation must be defined
    by the (sub)command parser it is given to.  In a fenced block the
    first word after ``repro`` must be a subcommand; in an inline
    code span a word that names no command (``repro`` in prose) is
    not an invocation."""
    fenced = {block.line + offset for block in extract_blocks(path)
              for offset in range(1, block.code.count("\n") + 2)}
    problems = []
    for line, words in extract_invocations(path):
        command: list[str] = []
        current = parser
        for word in words:
            choices = _subcommands(current)
            if word not in choices:
                break
            command.append(word)
            current = choices[word]
        if not command:
            if line in fenced and not words[0].startswith("-"):
                problems.append(f"{_rel(path)}:{line}: "
                                f"'repro {words[0]}': no such subcommand")
            continue
        for word in words:
            if not word.startswith("--") or word == "--":
                continue
            flag = word.split("=", 1)[0]
            if flag not in current._option_string_actions:
                problems.append(
                    f"{_rel(path)}:{line}: 'repro {' '.join(command)}'"
                    f" has no option {flag}")
    return problems


def run_block(block: CodeBlock) -> str | None:
    """Execute one runnable block; returns an error string or None."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}"
                         if existing else src)
    if block.language in ("python", "py", ""):
        argv = [sys.executable, "-c", block.code]
    elif block.language in ("bash", "sh", "shell"):
        argv = ["bash", "-euo", "pipefail", "-c", block.code]
    else:
        return (f"{block.where}: runnable block has unsupported "
                f"language {block.language!r}")
    proc = subprocess.run(argv, cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()
        detail = "\n    ".join(tail[-8:]) if tail else "(no output)"
        return (f"{block.where}: runnable {block.language or 'python'}"
                f" block exited {proc.returncode}:\n    {detail}")
    return None


def check_links(path: Path) -> list[str]:
    problems = []
    for line, target in extract_links(path):
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            problems.append(
                f"{_rel(path)}:{line}: broken link -> {target}")
    return problems


def doc_files() -> list[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    return docs + ([readme] if readme.exists() else [])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="print every block/link checked")
    args = parser.parse_args(argv)

    problems: list[str] = []
    runnable = 0
    parser = cli_parser()
    for path in doc_files():
        problems.extend(check_links(path))
        problems.extend(check_flags(path, parser))
        for block in extract_blocks(path):
            if not block.runnable:
                continue
            runnable += 1
            if args.verbose:
                print(f"running {block.where} "
                      f"({block.language or 'python'})")
            error = run_block(block)
            if error:
                problems.append(error)

    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"docs-check: {len(doc_files())} files, {runnable} runnable "
          f"blocks, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
