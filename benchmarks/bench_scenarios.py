"""Scenario matrix — the cases.json sweep through pytest-benchmark.

Not a single paper figure: this wraps the scenario runner
(``benchmarks/scenarios/run_scenarios.py``) so the whole read-type x
error x graph-density x jobs x input-mode matrix gets (a)
a timing entry in the CI benchmark JSON, gated by the calibrated
baseline, and (b) acceptance assertions on the deterministic metric
columns.

Quick mode (``REPRO_BENCH_QUICK=1``, the scenario-smoke CI job) runs
the cases marked ``quick`` in ``cases.json``; the full matrix runs
otherwise.  Determinism is asserted by executing the matrix twice
and comparing every deterministic column — the volatile timing
columns (``elapsed_s``/``reads_per_s``/``peak_rss_kb``) are exempt
by design.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from pathlib import Path

_RUNNER = Path(__file__).parent / "scenarios" / "run_scenarios.py"
_spec = importlib.util.spec_from_file_location("run_scenarios",
                                               _RUNNER)
run_scenarios = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("run_scenarios", run_scenarios)
_spec.loader.exec_module(run_scenarios)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _selected_cases():
    defaults, cases = run_scenarios.load_cases()
    if QUICK:
        cases = [case for case in cases if case.get("quick")]
    return defaults, cases


def _run_matrix(timing: bool = True):
    defaults, cases = _selected_cases()
    with tempfile.TemporaryDirectory(prefix="benchscen-") as tmp:
        return run_scenarios.run_cases(cases, defaults, Path(tmp),
                                       timing=timing)


def test_scenario_matrix(benchmark, show):
    rows = benchmark.pedantic(_run_matrix, rounds=1, iterations=1)
    show(rows, "scenario matrix — read type x error x density x "
               "jobs x input mode")

    assert len(rows) == len(_selected_cases()[1])
    for row in rows:
        # Every case maps the large majority of its reads and places
        # them accurately — the workloads are scaled but not trivial.
        assert row["mapped"] >= 0.8 * row["reads"], row["id"]
        assert row["accuracy"] >= 0.8, row["id"]
        assert row["align_calls"] > 0, row["id"]
        if row["read_type"] == "short_pe":
            assert row["proper_rate"] >= 0.8, row["id"]


def test_scenario_matrix_deterministic():
    """Two runs at the fixed seed produce identical deterministic
    columns (the ISSUE acceptance criterion); input-mode and jobs
    never leak into the metrics."""
    first = _run_matrix(timing=False)
    second = _run_matrix(timing=False)

    def pinned(rows):
        return [{key: row[key]
                 for key in run_scenarios.DETERMINISTIC_COLUMNS}
                for row in rows]

    assert pinned(first) == pinned(second)
    # --no-timing zeroes the volatile columns entirely, so the full
    # row dicts (CSV bytes) also match.
    assert first == second
