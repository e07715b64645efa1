"""Rules ``dtype`` and ``shift-mask``: numeric discipline in kernel
modules.

Scope: the vectorized minimizer scan (``repro.index.minimizer``), the
flat minimizer index (``repro.index.flat_index``) and the on-disk
artifact codec (``repro.io.artifact``).  These modules pack k-mer
hashes and index tables into fixed-width integer arrays, so two
classes of silent breakage live here and nowhere else:

* ``dtype``: an array constructor without an explicit ``dtype=``
  inherits platform defaults (``np.array([...])`` of Python ints is
  int64 on Linux but int32 on Windows) or value-dependent inference.
  A table that changes width changes packing, changes artifact
  bytes, and breaks the mmap zero-copy contract.
* ``shift-mask``: NumPy's ``<<``/``>>`` on uint64 arrays does not
  wrap the way a rolling 2k-bit k-mer code assumes a w-bit machine
  does — bits walk past the word boundary.  Every shift of a
  uint64-typed array must be masked (``&``), wrapped back through
  ``np.uint64``, or feed a mask-building expression; the masked-shift
  idiom (``(raw >> bit) & ONE``) is the contract.

Both rules are scoped by dotted module name; fixture tests exercise
them by impersonating a kernel module via
:func:`analyze.engine.analyze_source`'s ``name=`` override.
"""

from __future__ import annotations

import ast
import fnmatch

from analyze.astutils import (
    assign_target_names,
    contains_bitand,
    expand_path,
    import_aliases,
    statement_blocks,
)
from analyze.engine import Module
from analyze.findings import Finding
from analyze.registry import rule

#: Module-name patterns this pair of rules applies to.
KERNEL_MODULES = (
    "repro.index.minimizer",
    "repro.index.flat_index",
    "repro.io.artifact",
)

#: numpy constructors that must carry an explicit dtype, mapped to the
#: positional index at which dtype may legally appear.
_CONSTRUCTORS = {
    "numpy.array": 1,
    "numpy.asarray": 1,
    "numpy.zeros": 1,
    "numpy.ones": 1,
    "numpy.empty": 1,
    "numpy.full": 2,
    "numpy.arange": None,  # dtype is keyword-only in practice here
}

#: Name fragments that mark a value as a mask or all-ones constant —
#: shifts *building* masks are the idiom, not a violation.
_MASK_NAME_FRAGMENTS = ("mask", "full", "ones", "msb", "top_bit")


def _in_kernel_scope(module: Module) -> bool:
    if module.name is None:
        return False
    return any(fnmatch.fnmatch(module.name, pattern)
               for pattern in KERNEL_MODULES)


def _has_dtype(node: ast.Call, positional_index: int | None) -> bool:
    if any(kw.arg == "dtype" for kw in node.keywords):
        return True
    if positional_index is not None \
            and len(node.args) > positional_index:
        return True
    return False


@rule(
    "dtype",
    "kernel-module numpy constructors must pass an explicit dtype",
    "packed bitvectors, index tables and artifact buffers are laid "
    "out by integer width; platform-dependent dtype inference "
    "changes packing, artifact bytes, and the mmap zero-copy "
    "contract",
)
def check_dtype(module: Module) -> list[Finding]:
    if not _in_kernel_scope(module):
        return []
    aliases = import_aliases(module.tree)
    findings = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        path = expand_path(node.func, aliases)
        if path not in _CONSTRUCTORS:
            continue
        if _has_dtype(node, _CONSTRUCTORS[path]):
            continue
        short = path.replace("numpy.", "np.")
        findings.append(module.finding(
            "dtype", node,
            f"{short}(...) without an explicit dtype in a kernel "
            "module; inferred widths vary by platform and silently "
            "change packing",
        ))
    return findings


def _uint64_names(tree: ast.Module,
                  aliases: dict[str, str]) -> set[str]:
    """Names assigned from expressions that are uint64 by
    construction: ``dtype=np.uint64`` constructor calls,
    ``np.uint64(...)`` wraps, or pure bitwise expressions over
    already-tracked names.  Iterates to a fixed point so chains like
    ``a = np.zeros(n, dtype=np.uint64); b = a; c = b | x`` all track.
    """

    def _is_uint64_expr(expr: ast.expr, known: set[str]) -> bool:
        if isinstance(expr, ast.Call):
            path = expand_path(expr.func, aliases)
            if path == "numpy.uint64":
                return True
            if path in _CONSTRUCTORS or path in (
                    "numpy.frombuffer", "numpy.packbits"):
                for kw in expr.keywords:
                    if kw.arg == "dtype":
                        dtype_path = expand_path(kw.value, aliases)
                        return dtype_path == "numpy.uint64"
            return False
        if isinstance(expr, ast.Name):
            return expr.id in known
        if isinstance(expr, ast.Subscript):
            return _is_uint64_expr(expr.value, known)
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (_is_uint64_expr(expr.left, known)
                    or _is_uint64_expr(expr.right, known))
        return False

    known: set[str] = set()
    for _ in range(4):  # fixed point; kernel chains are shallow
        added = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            if not _is_uint64_expr(node.value, known):
                continue
            for name in assign_target_names(node):
                base = name.split(".")[0]
                if base not in known:
                    known.add(base)
                    added = True
        if not added:
            break
    return known


def _is_mask_name(name: str | None) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _MASK_NAME_FRAGMENTS)


def _shift_operand_base(expr: ast.expr) -> str | None:
    current = expr
    while isinstance(current, ast.Subscript):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    if isinstance(current, ast.Attribute):
        return current.attr
    return None


def _masked_nearby(block: list[ast.stmt], index: int,
                   stmt: ast.stmt) -> bool:
    """Masked in-statement, or the assigned target is masked /
    uint64-rewrapped within the next two sibling statements."""
    if contains_bitand(stmt):
        return True
    if "uint64" in ast.dump(stmt):
        # np.uint64(x << s) wraps modulo 2**64 — the other sanctioned
        # idiom besides an explicit mask.
        return True
    targets = {name.split(".")[0]
               for name in assign_target_names(stmt)}
    if not targets:
        return False
    for follower in block[index + 1:index + 3]:
        follower_names = {name.split(".")[0]
                          for name in assign_target_names(follower)}
        if targets & follower_names and (
                contains_bitand(follower)
                or "uint64" in ast.dump(follower)):
            return True
    return False


@rule(
    "shift-mask",
    "uint64-array shifts in kernel modules must be masked or wrapped",
    "the GenASM recurrences assume a w-bit machine; an unmasked "
    "`<<`/`>>` on a uint64 bitvector lets pattern bits walk across "
    "the word boundary and corrupts every downstream traceback",
)
def check_shift_mask(module: Module) -> list[Finding]:
    if not _in_kernel_scope(module):
        return []
    aliases = import_aliases(module.tree)
    tracked = _uint64_names(module.tree, aliases)
    if not tracked:
        return []
    findings = []
    for block, index, stmt in statement_blocks(module.tree):
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.LShift, ast.RShift))):
                continue
            base = _shift_operand_base(node.left)
            if base is None or base not in tracked:
                continue
            if _is_mask_name(base):
                continue
            target_names = assign_target_names(stmt)
            if any(_is_mask_name(name) for name in target_names):
                continue  # building a mask constant is the idiom
            if _masked_nearby(block, index, stmt):
                continue
            op = "<<" if isinstance(node.op, ast.LShift) else ">>"
            findings.append(module.finding(
                "shift-mask", node,
                f"`{base} {op} ...` on a uint64 array without a "
                "mask (`& ...`) or np.uint64 wrap; shifted bits "
                "cross the word boundary",
            ))
    return findings
