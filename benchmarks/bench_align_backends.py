"""Bitvector sweeps at the pipeline's window shape.

Not a paper figure: this sizes the two implementations of the BitAlign
recurrence at one default-config window (160 text characters x 128
pattern bits, k = 32; a plain chain and a window with 4 hops): the
row-major oracle (``reference_bitvectors``) and the diagonal kernel
every window and every mate rescue runs (``generate_bitvectors``).
Each row cross-checks the two cell for cell before timing.

Gate: the diagonal kernel is >= 3x the oracle at this shape.
"""

from __future__ import annotations

import random
import time

from repro.core.bitalign import generate_bitvectors, reference_bitvectors
from repro.graph.linearize import LinearizedGraph


def _time(callable_, repeats: int) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


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
