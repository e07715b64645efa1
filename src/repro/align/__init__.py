"""Reference aligners: the algorithms BitAlign builds on, kept as the
test oracles for the live kernel.

* :mod:`repro.align.dp_linear` — dynamic-programming sequence-to-
  sequence alignment (Needleman–Wunsch global and fitting/semi-global),
  the classical O(mn) comparator of paper Section 2.1.
* :mod:`repro.align.dp_graph` — PaSGAL-style DP sequence-to-graph
  alignment over a linearized DAG; exact ground truth for BitAlign.
* :mod:`repro.align.bitap` — the classic Wu–Manber Bitap algorithm
  (left-to-right, 1-active), an independent bitvector implementation
  used to cross-validate the GenASM-style machinery.
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
from repro.align.genasm import genasm_align, genasm_distance

__all__ = [
    "edit_distance",
    "global_align",
    "semiglobal_align",
    "semiglobal_distance",
    "graph_align",
    "graph_distance",
    "bitap_search",
    "genasm_align",
    "genasm_distance",
]
