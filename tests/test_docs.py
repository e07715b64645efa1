"""The documentation checker (``tools/check_docs.py``).

Unit-tests the markdown block/link/invocation extraction on
synthetic files, then runs the real check over the repo's ``docs/``
tree — executing every ``# runnable`` example, resolving every
intra-repo link and checking every documented ``repro`` flag against
the CLI's parser — so documentation rot fails tier-1, not just the
CI ``docs-check`` job.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
# dataclass field resolution looks the module up in sys.modules.
sys.modules["check_docs"] = check_docs
_spec.loader.exec_module(check_docs)


def _write(tmp_path, text):
    path = tmp_path / "doc.md"
    path.write_text(textwrap.dedent(text))
    return path


class TestBlockExtraction:
    def test_blocks_language_body_and_location(self, tmp_path):
        path = _write(tmp_path, """\
            # Title

            ```python
            # runnable
            print("hi")
            ```

            prose

            ```bash
            echo untagged
            ```
        """)
        blocks = check_docs.extract_blocks(path)
        assert [(b.language, b.line) for b in blocks] == [
            ("python", 3), ("bash", 10)]
        assert blocks[0].runnable and not blocks[1].runnable
        assert blocks[0].code == '# runnable\nprint("hi")'

    def test_marker_only_counts_on_first_line(self, tmp_path):
        path = _write(tmp_path, """\
            ```python
            print("x")
            # runnable
            ```
        """)
        (block,) = check_docs.extract_blocks(path)
        assert not block.runnable

    def test_runnable_python_block_executes(self, tmp_path):
        path = _write(tmp_path, """\
            ```python
            # runnable
            import repro.api
            ```
        """)
        (block,) = check_docs.extract_blocks(path)
        assert check_docs.run_block(block) is None

    def test_failing_block_reports_location(self, tmp_path):
        path = _write(tmp_path, """\
            ```python
            # runnable
            raise SystemExit(3)
            ```
        """)
        (block,) = check_docs.extract_blocks(path)
        error = check_docs.run_block(block)
        assert error is not None and "doc.md:1" in error
        assert "exited 3" in error

    def test_runnable_bash_block_executes(self, tmp_path):
        path = _write(tmp_path, """\
            ```bash
            # runnable
            true
            ```
        """)
        (block,) = check_docs.extract_blocks(path)
        assert check_docs.run_block(block) is None


class TestLinkExtraction:
    def test_skips_external_anchor_and_fenced_links(self, tmp_path):
        path = _write(tmp_path, """\
            [api](api.md) and [web](https://example.com) and
            [here](#section) and [mail](mailto:x@y.z)

            ```text
            [not a link check](inside_fence.md)
            ```

            [frag](other.md#anchor)
        """)
        assert check_docs.extract_links(path) == [
            (1, "api.md"), (8, "other.md#anchor")]

    def test_check_links_flags_missing_target(self, tmp_path):
        (tmp_path / "other.md").write_text("x")
        path = _write(tmp_path, """\
            [ok](other.md) [ok-frag](other.md#part)
            [broken](missing.md)
        """)
        problems = check_docs.check_links(path)
        assert len(problems) == 1
        assert "missing.md" in problems[0] and "doc.md:2" in problems[0]


class TestFlagExtraction:
    def test_invocations_in_fences_and_code_spans(self, tmp_path):
        path = _write(tmp_path, """\
            Run `repro map --reads r.fq --jobs 2` or `repro.api`.

            ```bash
            python -m repro index build ref.fa \\
                -o ref.sgidx --jobs 2  # comment --ignored
            repro stats --graph g.gfa | grep hops --count
            from repro.api import Mapper
            ```

            Prose about repro map --not-in-a-span.
        """)
        assert check_docs.extract_invocations(path) == [
            (1, ["map", "--reads", "r.fq", "--jobs", "2"]),
            (4, ["index", "build", "ref.fa", "-o", "ref.sgidx",
                 "--jobs", "2"]),
            (6, ["stats", "--graph", "g.gfa"]),
        ]

    def test_check_flags_resolves_subcommands(self, tmp_path):
        path = _write(tmp_path, """\
            `repro index build ref.fa -o x.sgidx --jobs 2`
            `repro index --graph g.gfa`
            `repro analyze src/repro --format=json`
            `repro analyze src/repro --json`
            `repro client map --window 1 --batch`
            `repro is not a command --here`
        """)
        problems = check_docs.check_flags(path, check_docs.cli_parser())
        assert [problem.split("/")[-1] for problem in problems] == [
            "doc.md:2: 'repro index' has no option --graph",
            "doc.md:4: 'repro analyze' has no option --json",
            "doc.md:5: 'repro client map' has no option --batch",
        ]


class TestRepoDocs:
    def test_docs_tree_is_listed(self):
        names = [p.name for p in check_docs.doc_files()]
        for expected in ("architecture.md", "api.md", "service.md",
                         "README.md"):
            assert expected in names

    def test_repo_docs_clean(self, capsys):
        """The real gate: runnable blocks execute, links resolve,
        documented flags exist."""
        assert check_docs.main([]) == 0
        out = capsys.readouterr().out
        assert "0 problem(s)" in out
