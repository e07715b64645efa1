"""The perf spine's hold on ``src/``, checked in tier-1.

``benchmarks/perf`` measures from outside: ``shims.py`` rebinds
callables of the align layer by name, ``run.py`` reads counters by
key from ``PipelineStats`` / ``PairStats`` dicts, and ``run.py`` /
``worker.py`` call public functions and classes of ``repro``.  A
commit that drops one of those names, or a parameter one of those
calls passes, breaks the benchmark pipeline, which otherwise only the
out-of-tier-1 ``perf-smoke`` job would notice.  The names and call
shapes are taken from the harness itself (loaded or parsed by path,
read-only), so this file needs no edit when the harness changes.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def test_harness_engine_surface_constructs(tmp_path):
    """The engine the harness builds, offline and as a daemon: its
    configs construct and the ``repro serve`` argv parses into the
    same flags ``map`` takes.  Flags and fields the harness still
    passes (``--align-backend``, ``align_backend``,
    ``region_cache_size``) stay accepted until it stops passing
    them."""
    from repro import cli

    workloads = _load("workloads")
    assert workloads.engine_config()
    assert workloads.pair_config()
    daemon = _load("serve").Daemon(
        tmp_path / "ref.sgidx", "perf.sock",
        Path(__file__).resolve().parents[1] / "src",
        tmp_path / "serve.log")
    command = daemon._command
    assert command[1:3] == ["-m", "repro"]
    args = cli.build_parser().parse_args(command[3:])
    assert args.command == "serve"
    assert cli._engine_config(args).both_strands


def _repro_calls(name: str):
    """``(line, callee, target, positional, keywords)`` for every call
    in ``benchmarks/perf/<name>.py`` of a name the file imports from
    ``repro`` (or of an attribute of one, ``Mapper.from_artifact``).
    Calls that splat ``*`` / ``**`` have no fixed shape and are
    skipped; raising an exception class takes any arguments."""
    tree = ast.parse((PERF / f"{name}.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = \
                    getattr(module, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in imported:
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords) \
                or isinstance(target, type) \
                and issubclass(target, BaseException):
            continue
        yield (node.lineno, ast.unparse(func), target, len(node.args),
               [kw.arg for kw in node.keywords])


def test_every_harness_call_into_repro_binds():
    """Each call the harness makes into ``repro`` binds against the
    callee's current signature — dropping ``result_to_sam``'s third
    parameter, say, fails here and not in the benchmark."""
    checked = set()
    for name in ("run", "worker"):
        for line, callee, target, positional, keywords in \
                _repro_calls(name):
            try:
                inspect.signature(target).bind(
                    *[None] * positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                raise AssertionError(
                    f"benchmarks/perf/{name}.py:{line}: {callee}(...) "
                    f"no longer binds: {exc}") from None
            checked.add(callee)
    assert {"Mapper.from_artifact", "SamWriter", "pair_to_sam",
            "result_to_sam", "result_to_gaf"} <= checked
