"""Tests for the scenario benchmark runner
(benchmarks/scenarios/run_scenarios.py): case-matrix hygiene, row
determinism at a fixed seed, and the CSV/artifact output schema.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_RUNNER = Path(__file__).parent.parent / "benchmarks" \
    / "scenarios" / "run_scenarios.py"
_SPEC = importlib.util.spec_from_file_location("run_scenarios",
                                               _RUNNER)
runner = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("run_scenarios", runner)
_SPEC.loader.exec_module(runner)


@pytest.fixture(scope="module")
def matrix():
    return runner.load_cases()


class TestCaseMatrix:
    def test_ids_unique(self, matrix):
        _, cases = matrix
        ids = [case["id"] for case in cases]
        assert len(ids) == len(set(ids))

    def test_quick_subset_nonempty(self, matrix):
        _, cases = matrix
        assert any(case.get("quick") for case in cases)

    def test_axes_valid(self, matrix):
        _, cases = matrix
        for case in cases:
            assert case["read_type"] in ("short_pe", "long_hifi",
                                         "long_ont"), case["id"]
            assert case["density"] in runner.DENSITY_PROFILES, \
                case["id"]
            assert case["input_mode"] in ("mem", "stream",
                                          "stream_gzip"), case["id"]
            assert case["jobs"] >= 1 and case["count"] >= 1, \
                case["id"]

    def test_axes_covered(self, matrix):
        """The matrix genuinely sweeps every axis at least once."""
        _, cases = matrix
        seen = {key: {case[key] for case in cases}
                for key in ("read_type", "density", "jobs",
                            "input_mode")}
        assert seen["read_type"] == {"short_pe", "long_hifi",
                                     "long_ont"}
        assert seen["density"] == {"none", "sparse", "dense"}
        assert {1, 2} <= seen["jobs"]
        assert seen["input_mode"] == {"mem", "stream",
                                      "stream_gzip"}


def _small_cases(matrix):
    """Two fast cases covering both read shapes and both streaming
    directions, scaled down for unit-test latency."""
    defaults, cases = matrix
    by_id = {case["id"]: case for case in cases}
    pe = dict(by_id["pe_clean_sparse_py_j1_mem"], count=6)
    long_case = dict(by_id["ont_dense_np_j1_gzip"], count=3,
                     read_length=400)
    return defaults, [pe, long_case]


class TestRunner:
    def test_rows_deterministic_across_runs(self, matrix, tmp_path):
        defaults, cases = _small_cases(matrix)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        first = runner.run_cases(cases, defaults,
                                 tmp_path / "a", timing=False)
        second = runner.run_cases(cases, defaults,
                                  tmp_path / "b", timing=False)
        assert first == second
        for row in first:
            assert row["elapsed_s"] == 0
            assert row["reads_per_s"] == 0
            assert row["peak_rss_kb"] == 0

    def test_row_schema_and_metrics(self, matrix, tmp_path):
        defaults, cases = _small_cases(matrix)
        rows = runner.run_cases(cases, defaults, tmp_path,
                                timing=True)
        assert [row["id"] for row in rows] == \
            [case["id"] for case in cases]
        for row in rows:
            assert set(row) == set(runner.CSV_COLUMNS)
            assert row["reads"] > 0
            assert 0 <= row["mapped"] <= row["reads"]
            assert row["align_calls"] > 0
            assert row["elapsed_s"] > 0
            assert row["peak_rss_kb"] > 0
        pe_row = rows[0]
        assert pe_row["read_type"] == "short_pe"
        assert pe_row["proper_rate"] != ""
        long_row = rows[1]
        assert long_row["proper_rate"] == ""

    def test_outputs_csv_and_artifacts(self, matrix, tmp_path):
        defaults, cases = _small_cases(matrix)
        workdir = tmp_path / "work"
        workdir.mkdir()
        rows = runner.run_cases(cases, defaults, workdir,
                                timing=False)
        outdir = tmp_path / "out"
        csv_path = runner.write_outputs(rows, cases, outdir)

        with open(csv_path, encoding="ascii", newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert [tuple(row) for row in parsed] == \
            [runner.CSV_COLUMNS] * len(rows)
        assert [row["id"] for row in parsed] == \
            [case["id"] for case in cases]

        for case in cases:
            artifact_path = outdir / "artifacts" \
                / f"{case['id']}.json"
            artifact = json.loads(
                artifact_path.read_text(encoding="ascii"))
            assert set(artifact) == {"case", "metrics", "timing"}
            assert artifact["case"]["id"] == case["id"]
            assert set(artifact["metrics"]) == \
                set(runner.DETERMINISTIC_COLUMNS)
            assert set(artifact["timing"]) == \
                set(runner.VOLATILE_COLUMNS)

    def test_main_only_and_unknown_case(self, matrix, tmp_path,
                                        capsys):
        rc = runner.main(["--outdir", str(tmp_path / "o"),
                          "--only", "no_such_case"])
        assert rc == 2
        assert "unknown case" in capsys.readouterr().err
