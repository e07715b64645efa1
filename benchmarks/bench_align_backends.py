"""Alignment-backend shoot-out: python vs numpy word-packed kernel.

Not a paper figure: this benchmark characterizes the software backend
registry (:mod:`repro.align.backends`), the seam that mirrors
BitAlign's fixed-width word datapath in software.  For every pattern
length in {100, 1 k, 10 k} and error budget k in {5 %, 10 %} of the
pattern, both registered backends run the uniform backend contract on
an identical (text, pattern, k) workload and the table reports the
winner per row:

* ``align`` — the full ``align(text, pattern, k)`` contract (edit
  distance + traceback CIGAR).  At 10 k the traceback storage exceeds
  the word budget for *any* backend (GenASM windows long reads for
  exactly this reason — paper Section 7), so those rows time the
  ``distance(text, pattern, k)`` contract instead, which is the phase
  the hardware's edit-distance pipeline accelerates.

Each row cross-checks that both backends return identical results
before timing.

Acceptance check: the numpy backend is >= 3x faster than the python
backend at every pattern length >= 1 k.

A second table sizes the two bitvector sweeps at the *pipeline's
window shape* (160 text characters x 128 pattern bits, k = 32; a plain
chain and a window with 4 hops): the row-major oracle
(``reference_bitvectors``) and the diagonal kernel every window runs
(``generate_bitvectors``).  Gate: the diagonal kernel is >= 3x the
oracle at this shape.
"""

from __future__ import annotations

import random
import time

from repro.align.backends import align_storage_words, get_backend
from repro.align.bitalign_packed import DEFAULT_MAX_WORDS
from repro.core.bitalign import generate_bitvectors, reference_bitvectors
from repro.graph.linearize import LinearizedGraph

#: (pattern length, repeats) — long patterns are timed once.
PATTERN_LENGTHS = ((100, 5), (1_000, 3), (10_000, 1))

K_FRACTIONS = (0.05, 0.10)

#: Pattern length at and beyond which the acceptance bar applies.
SPEEDUP_FLOOR_AT = 1_000
SPEEDUP_FLOOR = 3.0


def _workload(m: int, k_fraction: float,
              rng: random.Random) -> tuple[str, str, int]:
    """A fitting-alignment case: a mutated copy of the pattern inside
    random flanks, mutated lightly enough to stay within k."""
    k = max(1, int(m * k_fraction))
    pattern = "".join(rng.choice("ACGT") for _ in range(m))
    mutated = []
    for char in pattern:
        roll = rng.random()
        if roll < k_fraction / 3:
            mutated.append(rng.choice("ACGT"))     # substitution
        elif roll < k_fraction / 2.5:
            continue                               # deletion
        else:
            mutated.append(char)
    flank = m // 10
    text = "".join(rng.choice("ACGT") for _ in range(flank)) + \
        "".join(mutated) + \
        "".join(rng.choice("ACGT") for _ in range(flank))
    return text, pattern, k


def _fits_align_budget(text: str, pattern: str, k: int) -> bool:
    return align_storage_words(len(text), len(pattern), k) \
        <= DEFAULT_MAX_WORDS


def _time(callable_, repeats: int) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def backend_rows():
    python = get_backend("python")
    numpy = get_backend("numpy")
    rng = random.Random(0xB17A)
    rows = []
    for m, repeats in PATTERN_LENGTHS:
        for k_fraction in K_FRACTIONS:
            text, pattern, k = _workload(m, k_fraction, rng)
            if _fits_align_budget(text, pattern, k):
                contract = "align"
                py_call = lambda: python.align(text, pattern, k)
                np_call = lambda: numpy.align(text, pattern, k)
            else:
                contract = "distance"
                py_call = lambda: python.distance(text, pattern, k)
                np_call = lambda: numpy.distance(text, pattern, k)
            py_seconds, py_result = _time(py_call, repeats)
            np_seconds, np_result = _time(np_call, repeats)
            # Cross-check before trusting the timing.
            if contract == "align":
                assert py_result is not None and np_result is not None
                assert (py_result.distance, py_result.start,
                        py_result.cigar) == \
                    (np_result.distance, np_result.start,
                     np_result.cigar)
                distance = py_result.distance
            else:
                assert py_result == np_result and py_result is not None
                distance = py_result[0]
            speedup = py_seconds / np_seconds
            rows.append({
                "pattern": m,
                "k": k,
                "contract": contract,
                "distance": distance,
                "python_ms": round(py_seconds * 1e3, 2),
                "numpy_ms": round(np_seconds * 1e3, 2),
                "speedup": round(speedup, 2),
                "winner": "numpy" if speedup > 1.0 else "python",
            })
    return rows


def test_backend_shootout(benchmark, show):
    rows = benchmark.pedantic(backend_rows, rounds=1, iterations=1)
    show(rows, "alignment backends — python vs numpy word-packed "
               "(winner per workload)")
    # Small patterns are allowed to favor python (bigint constants beat
    # numpy call overhead at 100 bp); the bar applies from 1 kbp up.
    for row in rows:
        if row["pattern"] >= SPEEDUP_FLOOR_AT:
            assert row["winner"] == "numpy", row
            assert row["speedup"] >= SPEEDUP_FLOOR, (
                f"numpy backend must be >= {SPEEDUP_FLOOR}x at pattern "
                f"length {row['pattern']}, measured {row['speedup']}x"
            )


# ----------------------------------------------------------------------
# The pipeline's window shape: oracle vs diagonal kernel
# ----------------------------------------------------------------------

#: One default-config window: ``chunk + k`` text characters against a
#: ``window_size``-bit chunk at the default threshold.
WINDOW_TEXT = 160
WINDOW_PATTERN = 128
WINDOW_K = 32
WINDOW_HOPS = 4
WINDOW_REPEATS = 20

#: Acceptance bar: diagonal kernel over the row-major oracle.
WINDOW_SPEEDUP_FLOOR = 3.0


def _window(rng: random.Random,
            hops: int) -> tuple[LinearizedGraph, str]:
    """A window-shaped region with ``hops`` extra short-range edges
    (SNP/indel-sized) and a 5 %-mutated chunk spelled from it."""
    chars = "".join(rng.choice("ACGT") for _ in range(WINDOW_TEXT))
    successors = [(i + 1,) for i in range(WINDOW_TEXT - 1)] + [()]
    for source in rng.sample(range(5, WINDOW_TEXT - 10), hops):
        successors[source] = (source + 1,
                              source + rng.randint(2, 4))
    lin = LinearizedGraph(
        chars=chars, successors=successors,
        node_ids=[0] * WINDOW_TEXT,
        node_offsets=list(range(WINDOW_TEXT)))
    pattern = "".join(
        rng.choice("ACGT") if rng.random() < 0.05 else char
        for char in chars[:WINDOW_PATTERN])
    return lin, pattern


def window_kernel_rows():
    rng = random.Random(0xD1A6)
    rows = []
    for label, hops in (("chain", 0), (f"{WINDOW_HOPS}-hop", WINDOW_HOPS)):
        lin, pattern = _window(rng, hops)
        oracle_seconds, oracle = _time(
            lambda: reference_bitvectors(lin, pattern, WINDOW_K),
            WINDOW_REPEATS)
        diagonal_seconds, diagonal = _time(
            lambda: generate_bitvectors(lin, pattern, WINDOW_K),
            WINDOW_REPEATS)
        # Cell-for-cell cross-check before trusting the timing.
        assert list(diagonal) == oracle
        rows.append({
            "window": label,
            "oracle_ms": round(oracle_seconds * 1e3, 3),
            "diagonal_ms": round(diagonal_seconds * 1e3, 3),
            "speedup": round(oracle_seconds / diagonal_seconds, 2),
        })
    return rows


def test_window_shape_kernels(benchmark, show):
    rows = benchmark.pedantic(window_kernel_rows, rounds=1,
                              iterations=1)
    show(rows, "window-shaped sweep (n=160, m=128, k=32) — ms per "
               "window: row-major oracle vs diagonal kernel")
    for row in rows:
        assert row["speedup"] >= WINDOW_SPEEDUP_FLOOR, (
            f"diagonal kernel must be >= {WINDOW_SPEEDUP_FLOOR}x the "
            f"row-major oracle on the {row['window']} window, "
            f"measured {row['speedup']}x"
        )
