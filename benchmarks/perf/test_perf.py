"""Tests of the perf-spine harness itself (not in tier-1 testpaths).

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q

Everything maps in ``--smoke`` mode (100 kb reference, ~1.5 s runs),
so the file checks the harness's contract — names, units, failure
handling, determinism — and no performance number.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("ascii"))
WORKLOAD_NAMES = [spec["name"] for spec in BENCHMARK["workloads"]]


def _drive(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    """Invoke the benchmark as the driver does: the command of
    ``BENCHMARK.json`` from the root of a checkout."""
    return subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *arguments],
        cwd=cwd, capture_output=True, text=True, timeout=180,
        check=False)


def test_benchmark_json_names_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    setup = [m for m in BENCHMARK["end_to_end"]
             if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in BENCHMARK[group]]
    assert len(names) == len(set(names))
    assert run.EXACT <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = _drive(ROOT, "--workload", workload, "--seed", "5",
                  "--seconds", "1.5", "--trace", str(trace),
                  "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed",
                           "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for metric in group:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        # Each also appears by name, with its unit, in the text.
        assert f"{workload} {metric['name']} = " in done.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_record_is_counted_and_fails_the_run(
        monkeypatch, capsys):
    real = run.run_worker

    def corrupting(*args, **kwargs):
        report = real(*args, **kwargs)
        output = Path(report["passes"][0]["output"])
        lines = output.read_text("ascii").splitlines()
        fields = lines[0].split("\t")
        fields[9] = str(int(fields[9]) + 1)  # GAF matches column
        lines[0] = "\t".join(fields)
        output.write_text("\n".join(lines) + "\n", "ascii")
        return report

    monkeypatch.setattr(run, "run_worker", corrupting)
    code = run.main(["--workload", "short-graph", "--seed", "5",
                     "--seconds", "1.5", "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip()
                        .splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_missing_shim_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(shims, "SHIMS", (
        *shims.SHIMS,
        ("traceback", "repro.core.bitalign", "traceback_renamed")))
    tracer = shims.Tracer()
    try:
        with pytest.raises(shims.ShimError,
                           match="bitalign.traceback_renamed"):
            tracer.install()
    finally:
        tracer.uninstall()
    import importlib
    windows = importlib.import_module("repro.core.windows")
    assert not hasattr(windows.traceback, "__wrapped__")


def test_generators_are_deterministic(tmp_path):
    digests = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        digests[label] = {}
        for name, workload in workloads.WORKLOADS.items():
            workdir = tmp_path / label / name
            workdir.mkdir(parents=True)
            digests[label][name] = workloads.generate(
                workload, seed, 1.0, workdir, smoke=True).sha256
    assert digests["a"] == digests["b"]
    for name in workloads.WORKLOADS:
        assert digests["a"][name] != digests["c"][name]
    assert digests["a"]["long-graph"] != digests["a"]["short-graph"]
    # serve-short maps short-graph's very reads (its pool is longer).
    short, served = (tmp_path / "a" / name
                     for name in ("short-graph", "serve-short"))
    for name in ("ref.fa", "ref.vcf"):
        assert (short / name).read_bytes() \
            == (served / name).read_bytes()
    assert (served / "reads.fq").read_bytes().startswith(
        (short / "reads.fq").read_bytes())


def test_smoke_suite_result_and_compare(tmp_path):
    out = tmp_path / "smoke.json"
    done = _drive(ROOT, "--seed", "5", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text("ascii"))
    assert result["smoke"] is True
    assert list(result["workloads"]) == WORKLOAD_NAMES
    for name, row in result["workloads"].items():
        assert row["correct"] and row["failed"] == 0, name
        assert row["inputs_sha256"] and row["output_sha256"]
        assert set(row["end_to_end"]) == {
            m["name"] for m in BENCHMARK["end_to_end"]}
        assert set(row["per_layer"]) == {
            m["name"] for m in BENCHMARK["per_layer"]}
    assert result["workloads"]["long-graph"]["trace"]["traceback"][
        "calls"] > 0
    with pytest.raises(SystemExit, match="smoke"):
        compare.main([str(out), str(out)])
    # The same result as a real one: it agrees with itself.
    result["smoke"] = False
    out.write_text(json.dumps(result), "ascii")
    assert compare.main([str(out), str(out), "--same-commit"]) == 0
    slower = json.loads(json.dumps(result))
    rate = slower["workloads"]["pe-linear"]["end_to_end"][
        "reads_per_s"]
    rate["median"] *= 0.5
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower), "ascii")
    assert compare.main([str(out), str(worse)]) == 1


def test_verdicts():
    metric = {"better": "higher", "bound": 0.1}

    def row(median, spread=0.01):
        return {"median": median, "spread": spread}

    assert compare.verdict(metric, row(100), row(85)) == "regressed"
    assert compare.verdict(metric, row(100), row(95)) \
        == "within-bound"
    assert compare.verdict(metric, row(100), row(120)) == "improved"
    assert compare.verdict(metric, row(100), row(85, 0.2)) \
        == "unresolved"
    lower = {"better": "lower", "bound": 0.1}
    assert compare.verdict(lower, row(100), row(120, None)) \
        == "regressed"


def test_exits_nonzero_without_the_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(
                        ".work", "__pycache__", ".pytest_cache"))
    done = _drive(tmp_path, "--workload", "short-graph", "--seed",
                  "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
