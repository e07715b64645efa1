"""``<w,k>``-minimizer extraction (paper Section 6, Fig. 8).

A ``<w,k>``-minimizer is the smallest k-mer in a window of ``w``
consecutive k-mers according to a scoring mechanism.  Two scoring
mechanisms are provided:

* ``"hash"`` (default) — minimap2's invertible integer hash of the
  2-bit-packed k-mer, which de-biases the lexicographic skew toward
  poly-A k-mers; this is what ``mm_sketch`` uses and what MinSeed is
  built on;
* ``"lex"`` — plain lexicographic order of the k-mer, matching the
  worked example in the paper's Fig. 8.

The production scan is :func:`scan_minimizers`: it takes a *batch* of
sequences — the reads of a mapping call, the node sequences of a graph
— and computes k-mers, scores and window minima as numpy array
operations over their concatenation, the software analogue of reads
streaming through the MinSeed units' fixed-function datapath.
:func:`minimizers` is its one-sequence call.  The naive O(m*w) nested
loop is kept as :func:`brute_force_minimizers` for the equivalence
tests.

K-mers containing an ambiguous base (``N`` — see the policy in
:mod:`repro.seq`) cannot be 2-bit packed and are never selected, so a
read containing ``N`` yields minimizers only from its unambiguous
stretches — the minimap2 behaviour.  Any other character outside the
alphabet raises :class:`~repro.seq.InvalidBaseError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import seq as seqmod

Scoring = Literal["hash", "lex"]

#: Largest supported k: a k-mer and its hash are 2k bits wide and must
#: fit the 64-bit minimizer row of the Fig. 6 index.
MAX_K = 32

#: Window starts the scan takes at a time.  A block's temporaries are
#: ~20 ``uint64`` arrays of this length (w of them the window copy),
#: so blocks that stay in cache scan 1 Mb in ~0.1 s where one 1 Mb
#: block takes ~1 s; 8-128 kb time within noise of each other, and
#: the smallest of them keeps a mapping process's peak RSS within
#: ~1 MB of the scalar loop's.
SCAN_BLOCK_BASES = 1 << 13

#: Score :func:`brute_force_minimizers` gives k-mers containing a
#: character outside the 2-bit alphabet: ``inf`` loses every
#: window-minimum comparison, so they are never selected.
INVALID_KMER_SCORE = math.inf

#: Byte laid between the sequences of a batch: not ASCII, so it cannot
#: come from a sequence, and no k-mer spans it.
_SEPARATOR = 0xFF

#: Byte -> 2-bit code; 4 for what is legal but in no k-mer (``N`` and
#: the separator), 255 for what is not legal at all.
_GARBAGE = 255
_CODES = np.full(256, _GARBAGE, dtype=np.uint8)
for _code, _base in enumerate(seqmod.ALPHABET):
    _CODES[ord(_base)] = _CODES[ord(_base.lower())] = _code
for _base in seqmod.AMBIGUOUS:
    _CODES[ord(_base)] = 4
_CODES[_SEPARATOR] = 4

_NO_SCORE = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True, order=True)
class Minimizer:
    """One selected minimizer occurrence.

    Ordering is (position, score) so sorted minimizer lists read
    left-to-right along the query.

    Attributes:
        position: 0-based start of the k-mer in the source sequence.
        score: the value the window minimum was taken over (hash value
            under ``"hash"`` scoring, packed k-mer under ``"lex"``).
        kmer: the 2-bit-packed k-mer value.
        k: the k-mer length (carried for self-description).
    """

    position: int
    score: int
    kmer: int
    k: int


def invertible_hash(key: int, bits: int) -> int:
    """minimap2's invertible integer hash (Thomas Wang's hash64).

    Maps a ``bits``-wide key to a ``bits``-wide value bijectively, so
    distinct k-mers never collide at this stage (collisions only happen
    in the bucket level of the index).
    """
    mask = (1 << bits) - 1
    key = (~key + (key << 21)) & mask
    key = key ^ (key >> 24)
    key = (key + (key << 3) + (key << 8)) & mask
    key = key ^ (key >> 14)
    key = (key + (key << 2) + (key << 4)) & mask
    key = key ^ (key >> 28)
    key = (key + (key << 31)) & mask
    return key


def kmer_at(sequence: str, position: int, k: int) -> int:
    """Pack the k-mer starting at ``position`` into an integer."""
    return seqmod.pack(sequence[position:position + k])


def _scorer(scoring: Scoring, k: int) -> Callable[[int], int]:
    if scoring == "hash":
        bits = 2 * k
        return lambda kmer: invertible_hash(kmer, bits)
    if scoring == "lex":
        return lambda kmer: kmer
    raise ValueError(f"unknown scoring {scoring!r}")


def check_minimizer_parameters(w: int, k: int) -> None:
    """Reject a ``<w,k>`` the scan and the Fig. 6 index cannot hold."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise ValueError(
            f"k must be <= {MAX_K} (a 2k-bit minimizer hash must fit "
            f"the index's 64-bit rows), got {k}"
        )
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")


def _hash_array(keys: np.ndarray, bits: int) -> np.ndarray:
    """:func:`invertible_hash` of every element of a ``uint64`` array
    (arithmetic modulo 2^64, then masked, is arithmetic modulo
    2^bits)."""
    mask = np.uint64((1 << bits) - 1)
    u = np.uint64
    keys = (~keys + (keys << u(21))) & mask
    keys ^= keys >> u(24)
    keys = (keys + (keys << u(3)) + (keys << u(8))) & mask
    keys ^= keys >> u(14)
    keys = (keys + (keys << u(2)) + (keys << u(4))) & mask
    keys ^= keys >> u(28)
    keys = (keys + (keys << u(31))) & mask
    return keys


def _pack_kmers(bases: np.ndarray, k: int) -> np.ndarray:
    """The 2-bit-packed k-mer starting at each base, by doubling:
    a 2j-mer is a j-mer shifted over the j-mer that follows it, and k
    is a sum of such powers of two."""
    span, width = bases, 1      # span[i]: the width-mer at base i
    kmers, have = None, 0       # kmers[i]: the have-mer at base i
    while True:
        if k & width:
            if kmers is None:
                kmers = span
            else:
                count = len(span) - have
                kmers = (kmers[:count] << np.uint64(2 * width)) \
                    | span[have:]
            have += width
        if have == k:
            return kmers
        span = (span[:-width] << np.uint64(2 * width)) | span[width:]
        width *= 2


@dataclass(frozen=True)
class MinimizerScan:
    """The minimizers of a batch of sequences, as flat arrays.

    Sequence ``i`` owns entries ``bounds[i]:bounds[i + 1]`` of the
    other three arrays, sorted by position.

    Attributes:
        bounds: ``len(sequences) + 1`` offsets (``int64``).
        positions: 0-based k-mer start within its sequence (``int64``).
        scores: the value the window minimum was taken over
            (``uint64``).
        kmers: the 2-bit-packed k-mer (``uint64``).
    """

    bounds: np.ndarray
    positions: np.ndarray
    scores: np.ndarray
    kmers: np.ndarray

    @property
    def owners(self) -> np.ndarray:
        """The sequence index of every entry (``int64``)."""
        return np.repeat(np.arange(len(self.bounds) - 1, dtype=np.int64),
                         np.diff(self.bounds))


def scan_minimizers(
    sequences: Sequence[str],
    w: int,
    k: int,
    scoring: Scoring = "hash",
) -> MinimizerScan:
    """Select the ``<w,k>``-minimizers of every sequence of a batch.

    For every window of ``w`` consecutive k-mers of one sequence the
    smallest-scoring k-mer is selected (ties broken by leftmost
    position); a sequence's minimizers are the de-duplicated union
    over its windows.  A sequence with fewer than ``w`` k-mers yields
    the minimum over however many exist (at least one full k-mer is
    required).

    The batch is laid out as one text, sequences ``max(1, w - k)``
    separator bytes apart — far enough that the ``w`` k-mers from the
    start of a short sequence never reach the next one — and scanned
    :data:`SCAN_BLOCK_BASES` window starts at a time.
    """
    check_minimizer_parameters(w, k)
    if scoring not in ("hash", "lex"):
        raise ValueError(f"unknown scoring {scoring!r}")
    count = len(sequences)
    gap = max(1, w - k)
    lengths = np.fromiter(map(len, sequences), dtype=np.int64,
                          count=count)
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(lengths[:-1] + gap, out=offsets[1:])
    text = np.frombuffer(
        (bytes([_SEPARATOR]) * gap).join(
            s.encode("ascii", "replace") for s in sequences),
        dtype=np.uint8)
    # Windows start at text[window_lo[j]:window_hi[j]], one range per
    # sequence holding a k-mer.
    holds_kmer = lengths >= k
    window_lo = offsets[holds_kmer]
    window_hi = window_lo + np.maximum(
        1, lengths[holds_kmer] - (k - 1) - (w - 1))

    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    last = -1
    for lo in range(0, len(text), SCAN_BLOCK_BASES):
        hi = min(lo + SCAN_BLOCK_BASES, len(text))
        codes = _CODES[text[lo:hi + (w - 1) + (k - 1)]]
        if codes.max() == _GARBAGE:
            at = lo + int(np.argmax(codes == _GARBAGE))
            owner = int(np.searchsorted(offsets, at, side="right")) - 1
            position = at - int(offsets[owner])
            raise seqmod.InvalidBaseError(
                f"sequence {owner} contains invalid base "
                f"{sequences[owner][position]!r} at position {position}"
            )
        first = np.searchsorted(window_hi, lo, side="right")
        stop = np.searchsorted(window_lo, hi, side="left")
        if first >= stop:
            continue
        # is_start[i]: a window of some sequence starts at lo + i.
        edges = np.zeros(hi - lo + 1, dtype=np.int8)
        edges[np.maximum(window_lo[first:stop], lo) - lo] = 1
        edges[np.minimum(window_hi[first:stop], hi) - lo] -= 1
        starts = np.flatnonzero(np.cumsum(edges[:-1], dtype=np.int8))

        kmer_count = len(codes) - (k - 1)
        kmers = _pack_kmers((codes & 3).astype(np.uint64), k)
        scores = _hash_array(kmers, 2 * k) if scoring == "hash" else kmers
        # N-validity is its own mask: at k = 32 every uint64 is a
        # score some k-mer can have.
        illegal = np.zeros(len(codes) + 1, dtype=np.int32)
        np.cumsum(codes > 3, out=illegal[1:])
        valid = illegal[k:] == illegal[:kmer_count]

        padded = np.full(hi - lo + (w - 1), _NO_SCORE, dtype=np.uint64)
        np.copyto(padded[:kmer_count], scores, where=valid)
        best = starts + sliding_window_view(padded, w)[starts] \
            .argmin(axis=1)
        chosen = valid[best]
        if not chosen.all():
            # The leftmost minimum of these windows is an invalid
            # k-mer, so every k-mer in them scores _NO_SCORE: all are
            # invalid, or (k = 32) the first valid one is the minimum.
            following = np.where(
                valid, np.arange(kmer_count, dtype=np.int64),
                len(padded))
            following = np.minimum.accumulate(following[::-1])[::-1]
            rescued = following[starts[~chosen]]
            best[~chosen] = np.minimum(rescued, kmer_count - 1)
            chosen[~chosen] = rescued < starts[~chosen] + w
            best = best[chosen]
        if not len(best):
            continue
        # Window minima only move right: duplicates are neighbours.
        fresh = np.empty(len(best), dtype=bool)
        fresh[0] = lo + best[0] != last
        np.not_equal(best[1:], best[:-1], out=fresh[1:])
        last = lo + int(best[-1])
        best = best[fresh]
        found.append((lo + best, scores[best], kmers[best]))

    if not found:
        return MinimizerScan(
            bounds=np.zeros(count + 1, dtype=np.int64),
            positions=np.zeros(0, dtype=np.int64),
            scores=np.zeros(0, dtype=np.uint64),
            kmers=np.zeros(0, dtype=np.uint64))
    at, scores, kmers = (np.concatenate(column) for column in zip(*found))
    owners = np.searchsorted(offsets, at, side="right") - 1
    return MinimizerScan(
        bounds=np.searchsorted(owners,
                               np.arange(count + 1, dtype=np.int64)),
        positions=at - offsets[owners], scores=scores, kmers=kmers)


def minimizers(
    sequence: str,
    w: int,
    k: int,
    scoring: Scoring = "hash",
) -> list[Minimizer]:
    """The ``<w,k>``-minimizers of one sequence, sorted by position:
    :func:`scan_minimizers` on a batch of one."""
    scan = scan_minimizers([sequence], w, k, scoring)
    return [
        Minimizer(position=position, score=score, kmer=kmer, k=k)
        for position, score, kmer in zip(scan.positions.tolist(),
                                         scan.scores.tolist(),
                                         scan.kmers.tolist())
    ]


def brute_force_minimizers(
    sequence: str,
    w: int,
    k: int,
    scoring: Scoring = "hash",
) -> list[Minimizer]:
    """Reference nested-loop implementation (O(m*w)) for testing."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    m = len(sequence)
    num_kmers = m - k + 1
    if num_kmers < 1:
        return []
    score_of = _scorer(scoring, k)
    kmers = []
    scores: list[float] = []
    for p in range(num_kmers):
        try:
            kmer = kmer_at(sequence, p, k)
        except seqmod.InvalidBaseError:
            seqmod.validate(sequence[p:p + k], "sequence",
                            allow_ambiguous=True)
            kmers.append(-1)
            scores.append(INVALID_KMER_SCORE)
        else:
            kmers.append(kmer)
            scores.append(score_of(kmer))
    selected: dict[int, Minimizer] = {}
    window_count = max(1, num_kmers - w + 1)
    for start in range(window_count):
        stop = min(start + w, num_kmers)
        best = min(range(start, stop), key=lambda p: (scores[p], p))
        if scores[best] == INVALID_KMER_SCORE:
            continue
        if best not in selected:
            selected[best] = Minimizer(
                position=best, score=scores[best], kmer=kmers[best], k=k,
            )
    return [selected[p] for p in sorted(selected)]


def expected_density(w: int) -> float:
    """Expected fraction of k-mers selected as minimizers: 2 / (w + 1).

    The paper cites this factor as the index-size reduction of
    minimizer sampling versus indexing every k-mer (Section 6).
    """
    return 2.0 / (w + 1)
