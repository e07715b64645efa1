"""Rule ``layering``: imports must respect the package's layer order.

The dependency order of this repo is::

    layer 0   repro.seq, repro.core.alignment   (vocabulary: encodings,
                                                 Alignment/CIGAR types)
    layer 1   repro.graph, repro.index, repro.align
    layer 2   repro.io, repro.refs, repro.sim
    layer 3   repro.core, repro.hw              (orchestration, models)
    layer 4   repro.api, repro.cli, repro.eval, repro.analysis,
              repro.service

A module may import from its own layer or below; importing *upward*
creates the cycles that previously forced function-level import
workarounds and makes kernels untestable without dragging in the
orchestrator.  ``repro.core.alignment`` is deliberately layer 0: it
defines the ``Alignment``/CIGAR vocabulary that kernels, io and refs
all speak, and carries no pipeline machinery.

Imports inside ``if TYPE_CHECKING:`` are exempt — annotation-only
references (the io writers naming core result types) do not create a
runtime dependency.  The handful of genuine upward edges kept for
good reason (e.g. the graph builder normalizing raw
:class:`~repro.io.vcf.VcfRecord` rows) carry
``# repro: allow[layering]`` with the justification at the site.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import type_checking_nodes
from repro.analysis.engine import Module
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Longest-segment-prefix layer table.  Deeper keys win: the
#: ``repro.core.alignment`` entry overrides ``repro.core``.
_LAYERS: dict[str, int] = {
    "repro.seq": 0,
    "repro.core.alignment": 0,
    "repro.graph": 1,
    "repro.index": 1,
    "repro.align": 1,
    "repro.io": 2,
    # Explicit entry for the streaming input front-end: it chunks
    # the layer-2 format parsers and must never import upward into
    # the mapper it feeds (docs/architecture.md "Package layout").
    "repro.io.stream": 2,
    "repro.refs": 2,
    "repro.sim": 2,
    "repro.core": 3,
    "repro.hw": 3,
    "repro.eval": 4,
    "repro.api": 4,
    "repro.cli": 4,
    "repro.analysis": 4,
    "repro.service": 4,
    "repro": 4,
}


def _layer_match(name: str) -> tuple[int, int] | None:
    """``(layer, matched_depth)`` for the deepest table key that is a
    segment-prefix of ``name``; None for names outside the table."""
    parts = name.split(".")
    for depth in range(len(parts), 0, -1):
        key = ".".join(parts[:depth])
        if key in _LAYERS:
            return _LAYERS[key], depth
    return None


def _resolve_relative(module: Module, level: int,
                      target: str | None) -> str | None:
    if module.name is None:
        return None
    parts = module.name.split(".")
    is_package = module.path.endswith("__init__.py")
    base = parts if is_package else parts[:-1]
    drop = level - 1
    if drop > len(base):
        return None
    base = base[:len(base) - drop]
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


def _dependency_layer(module_target: str,
                      alias_name: str | None) -> tuple[str, int] | None:
    """Layer of an import, preferring the alias-qualified candidate
    when it matches a *deeper* table key (``from repro.core import
    alignment`` is a layer-0 dependency, not layer 3)."""
    base = _layer_match(module_target)
    if alias_name is not None:
        candidate = f"{module_target}.{alias_name}"
        deeper = _layer_match(candidate)
        if deeper is not None and (base is None
                                   or deeper[1] > base[1]):
            return candidate, deeper[0]
    if base is None:
        return None
    return module_target, base[0]


@rule(
    "layering",
    "imports follow seq/core.alignment -> graph/index/align -> "
    "io/refs/sim -> core/hw -> api/cli",
    "upward imports recreate the cycles that forced function-level "
    "import hacks and make kernels untestable without the "
    "orchestrator; the layer table is the architecture",
)
def check_layering(module: Module) -> list[Finding]:
    if module.name is None or not module.name.startswith("repro"):
        return []
    own = _layer_match(module.name)
    if own is None:
        return []
    own_layer = own[0]
    guarded = type_checking_nodes(module.tree)
    findings: list[Finding] = []
    reported: set[tuple[int, str]] = set()

    def _check(node: ast.AST, target: str,
               alias_name: str | None) -> None:
        resolved = _dependency_layer(target, alias_name)
        if resolved is None:
            return
        dep_name, dep_layer = resolved
        if dep_layer <= own_layer:
            return
        key = (getattr(node, "lineno", 0), dep_name)
        if key in reported:
            # `from repro.core import mapper, windows` resolving to
            # the same offending target reports once per statement.
            return
        reported.add(key)
        findings.append(module.finding(
            "layering", node,
            f"{module.name} (layer {own_layer}) imports {dep_name} "
            f"(layer {dep_layer}); dependencies must point down "
            "the seq -> kernels -> io/refs -> core -> api order",
        ))

    for node in ast.walk(module.tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    _check(node, alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                target = _resolve_relative(module, node.level,
                                           node.module)
            else:
                target = node.module
            if target is None or target.split(".")[0] != "repro":
                continue
            for alias in node.names:
                _check(node, target,
                       None if alias.name == "*" else alias.name)
    return findings

