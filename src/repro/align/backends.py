"""Pluggable alignment-backend registry.

SeGraM's BitAlign units owe their throughput to fixed-width bitvector
datapaths; this reproduction grows the same seam in software.  A
*backend* is one implementation of the GenASM/BitAlign bitvector
recurrence behind a uniform contract::

    backend.align(text, pattern, k)    -> BackendAlignment | None
    backend.distance(text, pattern, k) -> (distance, start) | None

with fitting-alignment semantics (the whole pattern consumed, both
text flanks free) and a shared tie-break: smallest distance first,
then leftmost start.  All registered backends are bit-for-bit
interchangeable — identical ``(distance, start)`` everywhere and
identical CIGARs from ``align`` — which the randomized parity harness
in ``tests/test_align_backends.py`` enforces against independent
oracles (:mod:`repro.align.bitap`, :mod:`repro.align.dp_linear`).

A batch entry rides on the same contract::

    backend.align_many(jobs, k)        -> [BackendAlignment | None]

``align_many`` is a plain loop over ``align``, implemented once in the
base class; mate rescue hands its one or two windows per pair to it.

Two backends ship by default:

* ``"python"`` — the existing pure-Python BitAlign machinery
  (:mod:`repro.align.genasm`), bitvectors as unbounded Python ints;
* ``"numpy"`` — the word-packed wavefront kernel of
  :mod:`repro.align.bitalign_packed`, bitvectors as uint64 word
  arrays swept in the paper's systolic-array order.

The graph pipeline's windows do not run on these backends: every
window, with or without hops, goes through the systolic-diagonal
kernel of :mod:`repro.core.bitalign` (layout documented there).  The
one remaining hook is :meth:`AlignmentBackend.chain_bitvectors`:
:func:`repro.core.bitalign.bitalign` asks the selected backend for
packed rows when a window is a plain chain *and* its pattern is at
least ``chain_kernel_min_bits`` wide (512 for numpy, four times the
default window), where the word-packed sweep overtakes the diagonal
ints.  Results never depend on the backend choice.

The default backend is ``"python"``, overridable per process with the
``REPRO_ALIGN_BACKEND`` environment variable (the CI matrix runs the
whole suite under ``REPRO_ALIGN_BACKEND=numpy``) and per mapper with
``SeGraMConfig.align_backend`` / the ``map --align-backend`` flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.align.bitalign_packed import (
    DEFAULT_MAX_WORDS,
    PackedChainRows,
    packed_chain_rows,
    packed_distance,
    packed_generate,
    words_for,
)
from repro.align.genasm import (
    GenasmAlignment,
    genasm_align,
    pattern_bitmasks,
    traceback_alignment,
    virtual_row,
)
from repro.core.alignment import Cigar

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_ALIGN_BACKEND"


@dataclass(frozen=True)
class BackendAlignment:
    """A backend alignment: the uniform ``align`` return value.

    Attributes:
        distance: edit distance of the reported alignment.
        cigar: traceback operations (read vs. consumed text span).
        start: first consumed text position (-1 when the degenerate
            all-insertion alignment consumed no text at all).
    """

    distance: int
    cigar: Cigar
    start: int


class AlignmentBackend:
    """Base class / contract for alignment backends."""

    #: Registry name; subclasses must override.
    name: str = "?"

    #: Whether :meth:`chain_bitvectors` returns packed rows (lets the
    #: graph aligner skip the chain probe for reference backends).
    provides_chain_kernel: bool = False

    #: Pattern width (bits) below which :meth:`chain_bitvectors`
    #: declines — lets the graph aligner skip the chain probe, and the
    #: call, for windows the backend would turn down anyway.
    chain_kernel_min_bits: int = 0

    def distance(self, text: str, pattern: str,
                 k: int) -> tuple[int, int] | None:
        """Best fitting distance: ``(distance, start)`` or None.

        ``start`` may equal ``len(text)`` in the degenerate
        pure-insertion case, mirroring :func:`repro.align.genasm.
        genasm_distance`.
        """
        raise NotImplementedError

    def align(self, text: str, pattern: str, k: int,
              max_words: int = DEFAULT_MAX_WORDS) -> BackendAlignment | None:
        """Full fitting alignment with traceback, or None.

        ``max_words`` bounds the traceback storage (in 64-bit words of
        bitvector payload, however the backend represents it);
        exceeding it raises :class:`~repro.align.dp_linear.
        AlignmentSizeError` — long reads belong in the windowed
        aligner, exactly as in hardware (paper Section 7).
        """
        raise NotImplementedError

    def align_many(self, jobs: "list[tuple[str, str]]", k: int,
                   max_words: int = DEFAULT_MAX_WORDS,
                   ) -> "list[BackendAlignment | None]":
        """Align a batch of ``(text, pattern)`` jobs.

        Exactly ``[self.align(t, p, k) for t, p in jobs]``;
        ``max_words`` is a *per-job* traceback budget, as in
        :meth:`align`.
        """
        return [self.align(text, pattern, k, max_words=max_words)
                for text, pattern in jobs]

    def chain_bitvectors(self, chars: str, pattern: str,
                         k: int) -> Any:
        """Optional packed ``all_r`` rows for a chain graph window.

        Returns an object interchangeable with the output of
        :func:`repro.core.bitalign.generate_bitvectors` (``rows[i][d]``
        plus a ``best_start`` method), or None to leave the window to
        that kernel.  The base implementation opts out.
        """
        return None


def _check_inputs(pattern: str, k: int) -> None:
    if not pattern:
        raise ValueError("pattern must not be empty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def align_storage_words(text_length: int, pattern_length: int,
                        k: int) -> int:
    """Traceback storage of one ``align`` call, in packed-word units.

    One bitvector row per diagonal cell — ``(n + k + 1)`` positions
    times ``k + 1`` budgets times the packed word count.  This is the
    quantity every backend's ``align`` compares against its
    ``max_words`` budget (and the benchmark uses to pick the timed
    contract), whatever the backend's internal representation.
    """
    return (text_length + k + 1) * (k + 1) * words_for(pattern_length)


def _budget_check(text: str, pattern: str, k: int,
                  max_words: int) -> None:
    needed = align_storage_words(len(text), len(pattern), k)
    if needed > max_words:
        from repro.align.dp_linear import AlignmentSizeError

        raise AlignmentSizeError(
            f"traceback storage of {needed} words exceeds the "
            f"{max_words}-word budget; use distance() or a windowed "
            "aligner"
        )


class PythonBackend(AlignmentBackend):
    """The existing pure-Python BitAlign recurrence.

    ``align`` is :func:`repro.align.genasm.genasm_align` verbatim;
    ``distance`` is the same recurrence in streaming form (two rolling
    rows instead of the full ``allR`` store), so arbitrarily long
    texts stay within O(k) bitvectors of memory.
    """

    name = "python"

    def distance(self, text: str, pattern: str,
                 k: int) -> tuple[int, int] | None:
        _check_inputs(pattern, k)
        m = len(pattern)
        n = len(text)
        mask = (1 << m) - 1
        masks = pattern_bitmasks(pattern)
        accept = 1 << (m - 1)
        row = virtual_row(m, k)
        # best_i[d]: leftmost accepting position seen at budget d.  The
        # virtual row accepts iff the whole pattern fits in d edits.
        best_i: list[int | None] = [
            n if not row[d] & accept else None for d in range(k + 1)
        ]
        for i in range(n - 1, -1, -1):
            cur_pm = masks.get(text[i], mask)
            succ = row
            row = [0] * (k + 1)
            value = ((succ[0] << 1) | cur_pm) & mask
            row[0] = value
            if not value & accept:
                best_i[0] = i
            for d in range(1, k + 1):
                insertion = (row[d - 1] << 1) & mask
                deletion = succ[d - 1]
                substitution = (succ[d - 1] << 1) & mask
                match = ((succ[d] << 1) | cur_pm) & mask
                value = insertion & deletion & substitution & match
                row[d] = value
                if not value & accept:
                    best_i[d] = i
        for d in range(k + 1):
            if best_i[d] is not None:
                return d, best_i[d]
        return None

    def align(self, text: str, pattern: str, k: int,
              max_words: int = DEFAULT_MAX_WORDS) -> BackendAlignment | None:
        _check_inputs(pattern, k)
        _budget_check(text, pattern, k, max_words)
        result = genasm_align(text, pattern, k)
        if result is None:
            return None
        return BackendAlignment(distance=result.distance,
                                cigar=result.cigar,
                                start=result.text_start)


class NumpyBackend(AlignmentBackend):
    """The word-packed wavefront kernel.

    ``distance`` runs the rolling-diagonal sweep (O(k * m / 64) words
    live); ``align`` keeps the diagonals, locates the best start from
    the packed accept bits, and reuses the shared GenASM traceback
    over lazily unpacked rows — so its CIGARs are identical to the
    python backend's by construction.
    """

    name = "numpy"
    provides_chain_kernel = True

    #: Pattern width (bits) below which the packed chain kernel defers
    #: to the diagonal kernel of :mod:`repro.core.bitalign`.  At the
    #: pipeline's 128-bit windows Python's bigints beat numpy's
    #: dispatch overhead (see the crossover in
    #: ``benchmarks/bench_align_backends.py``), and since results are
    #: bit-for-bit identical either way, falling back costs nothing
    #: but time saved.
    CHAIN_KERNEL_MIN_BITS: int = 512

    def __init__(self,
                 chain_kernel_min_bits: int | None = None) -> None:
        if chain_kernel_min_bits is not None:
            self.chain_kernel_min_bits = chain_kernel_min_bits
        else:
            self.chain_kernel_min_bits = self.CHAIN_KERNEL_MIN_BITS

    def distance(self, text: str, pattern: str,
                 k: int) -> tuple[int, int] | None:
        _check_inputs(pattern, k)
        return packed_distance(text, pattern, k)

    def align(self, text: str, pattern: str, k: int,
              max_words: int = DEFAULT_MAX_WORDS) -> BackendAlignment | None:
        _check_inputs(pattern, k)
        rows = packed_generate(text, pattern, k, max_words=max_words)
        located = rows.best()
        if located is None:
            return None
        distance, start = located
        if start >= len(text):
            # Zero-consumption alignment, as in genasm_align.
            return BackendAlignment(
                distance=len(pattern),
                cigar=Cigar((("I", len(pattern)),)),
                start=-1,
            )
        result: GenasmAlignment = traceback_alignment(
            rows, text, pattern, start, distance,
        )
        return BackendAlignment(distance=result.distance,
                                cigar=result.cigar,
                                start=result.text_start)

    def chain_bitvectors(self, chars: str, pattern: str,
                         k: int) -> "PackedChainRows | None":
        """Packed rows for a chain window, or None to fall back.

        Opts out (returning None keeps results identical, via the
        diagonal kernel) below the packed kernel's crossover width
        and when the window would blow the word budget.
        """
        if len(pattern) < self.chain_kernel_min_bits:
            return None
        from repro.align.dp_linear import AlignmentSizeError

        try:
            return packed_chain_rows(chars, pattern, k)
        except AlignmentSizeError:
            return None

    # Held by the ``sweep_batched`` row of benchmarks/perf/shims.py,
    # which looks this name up in ``NumpyBackend.__dict__``.
    def chain_bitvectors_many(self, jobs: "list[tuple[str, str]]",
                              k: int) -> "list[PackedChainRows | None]":
        return [self.chain_bitvectors(chars, pattern, k)
                for chars, pattern in jobs]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, AlignmentBackend] = {}


def register_backend(backend: AlignmentBackend,
                     name: str | None = None) -> AlignmentBackend:
    """Register a backend under ``name`` (default: ``backend.name``).

    Re-registering a name replaces the previous backend — tests use
    this to inject instrumented doubles.  Returns the backend so the
    call can be used as a decorator-style one-liner.
    """
    key = backend.name if name is None else name
    if not key or key == "?":
        raise ValueError("backend must have a non-empty name")
    _REGISTRY[key] = backend
    return backend


def get_backend(name: str) -> AlignmentBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown alignment backend {name!r}; registered: {known}"
        ) from None


def list_backends() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """Process-wide default: ``$REPRO_ALIGN_BACKEND`` or ``python``."""
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not name:
        return PythonBackend.name
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"{BACKEND_ENV_VAR}={name!r} names an unknown alignment "
            f"backend; registered: {known}"
        )
    return name


def resolve_backend(
    spec: "str | AlignmentBackend | None",
) -> AlignmentBackend:
    """Resolve a backend spec: instance, name, or None (= default)."""
    if isinstance(spec, AlignmentBackend):
        return spec
    if spec is None:
        return _REGISTRY[default_backend_name()]
    return get_backend(spec)


register_backend(PythonBackend())
register_backend(NumpyBackend())
