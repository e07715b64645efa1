"""Timing shims around the public callables of the align layer.

The benchmark measures layers *from outside*: a traced pass wraps
each callable below in a wrapper that records a span, keeps a span
stack so a nested call's time is subtracted from its caller (self
time), and keeps everything in memory until the pass ends.  Nothing
under ``src/`` is edited; :meth:`Tracer.install` rebinds the names
and :meth:`Tracer.uninstall` restores them.

A shimmed callable that is missing or renamed makes ``install`` raise
:class:`ShimError` naming it, so a refactor cannot silently zero a
layer metric.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

#: ``(span name, module, attribute path)``.  Functions are rebound in
#: every ``repro`` module that imported them by name; methods are
#: patched on their class.  ``align`` is the root span — sub-phase
#: time only counts below it, so mate-rescue alignments (which call
#: the backend outside the align stage) stay out of the align split.
SHIMS = (
    ("align", "repro.core.windows", "WindowedAligner.align_many"),
    ("align", "repro.core.windows", "WindowedAligner.align"),
    ("slice", "repro.graph.linearize", "LinearizedGraph.slice"),
    ("mask", "repro.align.genasm", "pattern_bitmasks"),
    ("sweep_batched", "repro.align.backends",
     "NumpyBackend.chain_bitvectors_many"),
    ("sweep_batched", "repro.align.backends",
     "NumpyBackend.chain_bitvectors"),
    # importlib below, not ``import repro.core.bitalign``: the
    # package re-exports a *function* called ``bitalign`` that
    # shadows the submodule attribute.
    ("sweep_scalar", "repro.core.bitalign", "generate_bitvectors"),
    ("traceback", "repro.core.bitalign", "traceback"),
)

ROOT = "align"
SUB_PHASES = ("slice", "mask", "sweep_batched", "sweep_scalar",
              "traceback")


class ShimError(RuntimeError):
    """A callable the benchmark shims no longer exists."""


@dataclass
class SpanTotals:
    """Aggregate of every span of one name below the root span."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span recorder; one instance per traced pass."""

    totals: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def _wrap(self, name: str, func):
        stack = self._stack
        totals = self.totals.setdefault(name, SpanTotals())
        clock = time.perf_counter

        def shim(*args, **kwargs):
            # [name, time spent in child spans]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if name == ROOT or (stack and stack[0][0] == ROOT):
                    totals.calls += 1
                    totals.total_s += elapsed
                    totals.self_s += elapsed - frame[1]

        shim.__wrapped__ = func
        return shim

    def install(self) -> None:
        for name, module_name, path in SHIMS:
            qualified = f"{module_name}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attribute] \
                    if isinstance(owner, type) \
                    else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError) as exc:
                raise ShimError(
                    f"shimmed callable {qualified} is missing "
                    f"({type(exc).__name__}: {exc}); update "
                    f"benchmarks/perf/shims.py with its new name"
                ) from None
            if not callable(original):
                raise ShimError(f"{qualified} is not callable")
            shim = self._wrap(name, original)
            if isinstance(owner, type):
                targets = [owner]
            else:
                # Every module that did ``from x import f`` holds
                # its own reference to ``f``.
                targets = [
                    candidate
                    for key, candidate in list(sys.modules.items())
                    if key.split(".")[0] == "repro"
                    and candidate is not None
                    and candidate.__dict__.get(attribute) is original
                ]
            for target in targets:
                self._restore.append((target, attribute, original))
                setattr(target, attribute, shim)

    def uninstall(self) -> None:
        while self._restore:
            target, attribute, original = self._restore.pop()
            setattr(target, attribute, original)

    def report(self) -> dict:
        """``{span name: {calls, total_s, self_s}}`` below the root."""
        return {name: vars(totals).copy()
                for name, totals in sorted(self.totals.items())}
