"""Baseline aligners the paper compares against (or builds on).

* :mod:`repro.align.dp_linear` — dynamic-programming sequence-to-
  sequence alignment (Needleman–Wunsch global and fitting/semi-global),
  the classical O(mn) comparator of paper Section 2.1.
* :mod:`repro.align.dp_graph` — PaSGAL-style DP sequence-to-graph
  alignment over a linearized DAG; exact ground truth for BitAlign.
* :mod:`repro.align.bitap` — the classic Wu–Manber Bitap algorithm
  (left-to-right, 1-active), an independent bitvector implementation
  used to cross-validate the GenASM-style machinery.
* :mod:`repro.align.myers` — Myers' 1999 bit-vector algorithm, the
  fastest practical software bitvector aligner for linear references.
* :mod:`repro.align.genasm` — linear GenASM (right-to-left, 0-active
  Bitap with traceback), the MICRO'20 predecessor BitAlign extends.
"""

from repro.align.dp_linear import (
    edit_distance,
    global_align,
    semiglobal_align,
    semiglobal_distance,
)
from repro.align.dp_graph import (
    graph_align,
    graph_distance,
)
from repro.align.bitap import bitap_search
from repro.align.myers import myers_distance, myers_search
from repro.align.genasm import genasm_align, genasm_distance
from repro.align.affine import AffineScoring, affine_align, affine_cost
from repro.align.banded import banded_distance
from repro.align.wfa import wfa_edit_distance, wfa_fitting_distance

__all__ = [
    "wfa_edit_distance",
    "wfa_fitting_distance",
    "edit_distance",
    "global_align",
    "semiglobal_align",
    "semiglobal_distance",
    "graph_align",
    "graph_distance",
    "bitap_search",
    "myers_distance",
    "myers_search",
    "genasm_align",
    "genasm_distance",
    "AffineScoring",
    "affine_align",
    "affine_cost",
    "banded_distance",
]
