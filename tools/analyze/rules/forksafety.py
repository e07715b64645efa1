"""Rule ``fork-safety``: worker code must not share mutable state
with the parent process, and pool payloads must pickle.

The pipeline runs in two process models — in-process, and the
engine's standing forked :class:`~repro.core.pipeline.PersistentPool`
(``run_sharded``) — with a bit-for-bit parity contract between them.
That contract survives only if worker code obeys the copy-on-write
rules:

* a forked worker that *writes* module-level state mutates its own
  copy; the parent (and every sibling) never sees the write, so any
  logic that later reads that state diverges silently between the
  in-process and sharded runs;
* pool payloads cross the pickle boundary, and lambdas and
  generators do not pickle.

Checked:

* functions reachable from a worker root must not write ``global``
  names, nor mutate module-level bindings through subscript/attribute
  assignment or mutating method calls (``append``/``update``/...).
  A root is a module-level function whose name contains ``worker``
  (the standing pool's ``_pool_worker_*`` in
  :mod:`repro.core.pipeline`) or any method of a ``*Batcher`` class
  (the service's dispatch plumbing feeds pool workers);
* arguments to ``PersistentPool(...)`` / ``run_sharded(...)`` must
  not be lambdas or generator expressions (unpicklable payloads).

Per-process caches that are *designed* to be populated worker-side
(e.g. the pool-initializer globals in :mod:`repro.core.pipeline`)
carry an explicit ``# repro: allow[fork-safety]`` with the reason.
"""

from __future__ import annotations

import ast

from analyze.astutils import dotted_name, module_level_bindings
from analyze.engine import Module
from analyze.findings import Finding
from analyze.registry import rule

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "insert", "discard",
})

#: Constructors/functions whose arguments cross the fork boundary.
_POOL_ENTRYPOINTS = ("PersistentPool", "run_sharded")


def _functions_by_name(
        tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {stmt.name: stmt for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)}


def _worker_roots(tree: ast.Module) -> list[ast.FunctionDef]:
    roots: list[ast.FunctionDef] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) \
                and "worker" in stmt.name.lower():
            roots.append(stmt)
        elif isinstance(stmt, ast.ClassDef) \
                and stmt.name.endswith("Batcher"):
            roots.extend(item for item in stmt.body
                         if isinstance(item, ast.FunctionDef))
    return roots


def _worker_closure(tree: ast.Module) -> list[ast.FunctionDef]:
    """Worker roots plus module-level functions they (transitively)
    call — a worker that delegates its global write to a helper is
    still writing worker-side."""
    by_name = _functions_by_name(tree)
    closure: dict[str, ast.FunctionDef] = {}
    pending = list(_worker_roots(tree))
    seen_ids: set[int] = set()
    while pending:
        func = pending.pop()
        if id(func) in seen_ids:
            continue
        seen_ids.add(id(func))
        closure[func.name] = func
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name):
                callee = by_name.get(node.func.id)
                if callee is not None and id(callee) not in seen_ids:
                    pending.append(callee)
    return list(closure.values())


def _local_names(func: ast.FunctionDef) -> set[str]:
    locals_: set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        locals_.add(arg.arg)
    if args.vararg:
        locals_.add(args.vararg.arg)
    if args.kwarg:
        locals_.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Store):
            locals_.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    locals_.add(sub.id)
        elif isinstance(node, ast.withitem) \
                and node.optional_vars is not None:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    locals_.add(sub.id)
    return locals_


def _attr_or_subscript_base(target: ast.expr) -> str | None:
    current = target
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _check_worker_writes(module: Module, func: ast.FunctionDef,
                         module_names: frozenset[str],
                         ) -> list[Finding]:
    findings: list[Finding] = []
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    locals_ = _local_names(func) - declared_global

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id in declared_global:
                    findings.append(module.finding(
                        "fork-safety", node,
                        f"worker-side write to global "
                        f"`{target.id}`; a forked worker mutates "
                        "its own copy and the parent never sees it",
                    ))
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _attr_or_subscript_base(target)
                    if base and base != "self" \
                            and base in module_names \
                            and base not in locals_:
                        findings.append(module.finding(
                            "fork-safety", node,
                            f"worker-side mutation of module-level "
                            f"`{base}`; copy-on-write makes the "
                            "write invisible outside this worker",
                        ))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            base = _attr_or_subscript_base(node.func.value)
            if base and base != "self" and base in module_names \
                    and base not in locals_:
                findings.append(module.finding(
                    "fork-safety", node,
                    f"worker-side `{base}.{node.func.attr}(...)` "
                    "mutates module-level state; the parent and "
                    "sibling workers never observe it",
                ))
    return findings


def _check_pool_payloads(module: Module) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or \
                name.split(".")[-1] not in _POOL_ENTRYPOINTS:
            continue
        payloads = list(node.args) + [kw.value for kw in node.keywords]
        for payload in payloads:
            if isinstance(payload, ast.Lambda):
                findings.append(module.finding(
                    "fork-safety", payload,
                    f"lambda passed to {name.split('.')[-1]}(...); "
                    "pool payloads must be picklable top-level "
                    "callables",
                ))
            elif isinstance(payload, ast.GeneratorExp):
                findings.append(module.finding(
                    "fork-safety", payload,
                    f"generator passed to {name.split('.')[-1]}"
                    "(...); generators neither pickle nor survive "
                    "a fork with sane state",
                ))
    return findings


@rule(
    "fork-safety",
    "workers must not mutate shared globals, and pool payloads "
    "must be picklable",
    "in-process and standing-pool (run_sharded) execution are "
    "bit-for-bit interchangeable only while workers touch no "
    "copy-on-write state and payloads stay picklable",
)
def check_fork_safety(module: Module) -> list[Finding]:
    module_names = module_level_bindings(module.tree)
    findings: list[Finding] = []
    for func in _worker_closure(module.tree):
        findings.extend(
            _check_worker_writes(module, func, module_names))
    findings.extend(_check_pool_payloads(module))
    return findings
