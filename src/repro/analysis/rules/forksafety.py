"""Rule ``fork-safety``: worker code must not share mutable state or
unpicklable resources with the parent process.

The pipeline runs in two process models — in-process, and the
engine's standing forked :class:`~repro.core.pipeline.PersistentPool`
(``run_sharded``) — with a bit-for-bit parity contract between them.
That contract survives only if worker code obeys the copy-on-write
rules:

* a forked worker that *writes* module-level state mutates its own
  copy; the parent (and every sibling) never sees the write, so any
  logic that later reads that state diverges silently between the
  in-process and sharded runs;
* worker factories and payloads cross the fork/pickle boundary, so
  they must not carry file handles, ``mmap`` objects, locks, or
  generators — handles share an OS file offset with the parent after
  fork, locks may be held mid-fork and deadlock the child, and
  generators/lambdas do not pickle.

Checked:

* functions reachable from a worker root — a module-level function
  whose name contains ``worker``, any method of a ``*ShardContext``
  or ``*Batcher`` class (the service's dispatch plumbing feeds pool
  workers), or ``__call__`` of a ``*Factory`` class — must not write
  ``global`` names, nor mutate module-level bindings through
  subscript/attribute assignment or mutating method calls
  (``append``/``update``/...);
* ``*Factory.__init__`` must not store open files, mmaps, locks, or
  generator expressions on ``self``;
* arguments to ``PersistentPool(...)`` / ``run_sharded(...)`` must
  not be lambdas or generator expressions (unpicklable payloads).

Per-process caches that are *designed* to be populated worker-side
(e.g. the pool-initializer globals in :mod:`repro.core.pipeline`)
carry an explicit ``# repro: allow[fork-safety]`` with the reason.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import (
    dotted_name,
    expand_path,
    import_aliases,
    module_level_bindings,
)
from repro.analysis.engine import Module
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "insert", "discard",
})

#: Calls whose result must never be stored on a factory: the object
#: cannot safely cross a fork or a pickle boundary.
_RESOURCE_CALLS = frozenset({
    "open", "io.open", "mmap.mmap", "gzip.open", "bz2.open",
    "lzma.open", "tempfile.NamedTemporaryFile", "tempfile.TemporaryFile",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Event", "multiprocessing.Lock", "multiprocessing.RLock",
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
        elif isinstance(stmt, ast.ClassDef):
            class_is_context = ("shardcontext" in stmt.name.lower()
                                or stmt.name.endswith("Batcher"))
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if class_is_context or (
                        stmt.name.endswith("Factory")
                        and item.name == "__call__"):
                    roots.append(item)
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


def _check_factory_init(module: Module, cls: ast.ClassDef,
                        aliases: dict[str, str]) -> list[Finding]:
    findings: list[Finding] = []
    init = next((item for item in cls.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)
    if init is None:
        return findings
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        stores_self = any(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self" for t in node.targets)
        if not stores_self:
            continue
        if isinstance(node.value, ast.GeneratorExp):
            findings.append(module.finding(
                "fork-safety", node,
                f"{cls.name}.__init__ stores a generator on self; "
                "generators do not pickle across the pool boundary",
            ))
            continue
        if isinstance(node.value, ast.Call):
            path = expand_path(node.value.func, aliases)
            if path in _RESOURCE_CALLS:
                findings.append(module.finding(
                    "fork-safety", node,
                    f"{cls.name}.__init__ stores {path}(...) on "
                    "self; open handles/locks must be created "
                    "worker-side, not carried across the fork",
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
    "workers must not mutate shared globals or carry unpicklable "
    "resources across the fork/pool boundary",
    "in-process and standing-pool (run_sharded) execution are "
    "bit-for-bit interchangeable only while workers touch no "
    "copy-on-write state and payloads stay picklable",
)
def check_fork_safety(module: Module) -> list[Finding]:
    aliases = import_aliases(module.tree)
    module_names = module_level_bindings(module.tree)
    findings: list[Finding] = []
    for func in _worker_closure(module.tree):
        findings.extend(
            _check_worker_writes(module, func, module_names))
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef) \
                and stmt.name.endswith("Factory"):
            findings.extend(_check_factory_init(module, stmt, aliases))
    findings.extend(_check_pool_payloads(module))
    return findings
