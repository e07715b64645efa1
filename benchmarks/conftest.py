"""Benchmark harness configuration.

Every benchmark regenerates one table or figure of the paper
(README.md, "Tests and benchmarks") and prints its rows via
``repro.eval.report.format_table`` so the output can be compared to
the paper side by side.  pytest-benchmark wraps the row-producing
driver so each artifact also gets a timing entry.
"""

from __future__ import annotations

import pytest

from repro.eval.report import format_table


@pytest.fixture
def show():
    """Print a result table beneath the benchmark output."""

    def _show(rows, title):
        print()
        print(format_table(rows, title=title))

    return _show
