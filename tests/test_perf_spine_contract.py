"""The perf spine's hold on ``src/``, checked in tier-1.

``benchmarks/perf`` measures from outside: ``shims.py`` rebinds
callables of the align layer by name and ``run.py`` reads counters by
key from ``PipelineStats`` / ``PairStats`` dicts.  A commit that drops
one of those names breaks the benchmark pipeline, which otherwise only
the out-of-tier-1 ``perf-smoke`` job would notice.  The names are
taken from the harness itself (loaded by path, read-only), so this
file needs no edit when the harness renames a span.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

from repro.core.pairing import PairStats
from repro.core.pipeline import PipelineStats

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_perf_spine_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # ``@dataclass`` resolves string annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_shimmed_callable_exists():
    tracer = _load("shims").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer._restore


def _ones(value):
    """Zero counters become 1, so no ``x / n if n else 0.0`` in the
    harness skips reading ``x``."""
    if isinstance(value, dict):
        return {key: _ones(item) for key, item in value.items()}
    return 1 if value == 0 else value


def test_every_stats_key_the_harness_reads_exists():
    run = _load("run")
    stats = _ones(dataclasses.asdict(PipelineStats.empty()))
    assert all(isinstance(stage, dict)
               for stage in stats["stages"].values())
    assert run.stage_values(stats, reads=1)
    assert run.pair_values({"stats": stats, "pair_stats": _ones(
        dataclasses.asdict(PairStats()))})
