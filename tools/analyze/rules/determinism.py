"""Rule ``determinism``: no unseeded or wall-clock entropy in the
result path.

Every parity claim in this repo — ``--jobs`` sharding, fork vs
:class:`~repro.core.pipeline.PersistentPool`, chunking and batching —
is a *bit-for-bit* claim, and bit-for-bit dies the moment any value
feeding a result depends on process-global RNG state or the wall
clock.  Simulation code therefore threads explicit ``random.Random(seed)``
instances end to end; this rule makes that convention mechanical:

* module-level RNG draws (``random.random()``, ``random.shuffle``,
  ``np.random.randint`` and friends) are flagged — they read hidden
  global state that differs across processes and runs;
* unseeded constructors (``random.Random()``,
  ``np.random.default_rng()`` / ``RandomState()`` with no arguments,
  ``random.SystemRandom``) are flagged — seedable APIs must actually
  be seeded;
* wall-clock and OS entropy (``time.time``, ``time.time_ns``,
  ``datetime.now`` / ``utcnow`` / ``today``, ``os.urandom``,
  ``uuid.uuid1`` / ``uuid4``, anything in ``secrets``) is flagged.

The measurement clocks — ``time.perf_counter``, ``time.monotonic``,
``time.process_time``, ``time.thread_time`` and their ``_ns``
variants — are explicitly allowed: the pipeline's stage statistics
time themselves with ``perf_counter`` and timings are reporting, not
results.
"""

from __future__ import annotations

import ast

from analyze.astutils import expand_path, import_aliases
from analyze.engine import Module
from analyze.findings import Finding
from analyze.registry import rule

#: ``random`` module functions that draw from (or reset) the hidden
#: process-global generator.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` names that are fine *when given a seed argument*.
_SEEDABLE_NUMPY = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
})

#: Fully qualified callables whose return value is wall-clock or OS
#: entropy — nondeterministic by construction.
_ENTROPY_CALLS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})


def _check_call(module: Module, node: ast.Call,
                aliases: dict[str, str]) -> Finding | None:
    path = expand_path(node.func, aliases)
    if path is None:
        return None
    has_args = bool(node.args or node.keywords)
    if path == "random.Random":
        if has_args:
            return None
        return module.finding(
            "determinism", node,
            "random.Random() without a seed falls back to OS "
            "entropy; thread an explicit seed",
        )
    if path == "random.SystemRandom" or path.startswith("secrets."):
        return module.finding(
            "determinism", node,
            f"{path} draws OS entropy and can never reproduce; "
            "results must come from seeded generators",
        )
    if path.startswith("random."):
        func = path.partition(".")[2]
        if func in _GLOBAL_RANDOM_FUNCS:
            return module.finding(
                "determinism", node,
                f"module-level {path}() uses the hidden global RNG; "
                "thread an explicit random.Random(seed) instance",
            )
        return None
    if path.startswith("numpy.random."):
        func = path.partition("numpy.random.")[2]
        if func in _SEEDABLE_NUMPY:
            if has_args:
                return None
            return module.finding(
                "determinism", node,
                f"numpy.random.{func}() without a seed falls back "
                "to OS entropy; pass an explicit seed",
            )
        return module.finding(
            "determinism", node,
            f"legacy numpy.random.{func}() draws from global state; "
            "use a seeded numpy.random.default_rng(seed)",
        )
    if path in _ENTROPY_CALLS:
        return module.finding(
            "determinism", node,
            f"{path}() is wall-clock/OS entropy; results may not "
            "depend on it (perf_counter/monotonic are fine for "
            "timing statistics)",
        )
    return None


@rule(
    "determinism",
    "no unseeded RNG or wall-clock entropy may feed results",
    "every jobs/pool/chunking parity guarantee is bit-for-bit; "
    "one hidden-global RNG draw or time.time()-derived value makes "
    "results differ across runs and across worker processes",
)
def check_determinism(module: Module) -> list[Finding]:
    aliases = import_aliases(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            finding = _check_call(module, node, aliases)
            if finding is not None:
                findings.append(finding)
    return findings
