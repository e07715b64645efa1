"""The alignment substrate beside the kernel.

* :mod:`repro.align.genasm` — the GenASM pattern bitmasks and virtual
  row that BitAlign (:mod:`repro.core.bitalign`) builds on.
* :mod:`repro.align.dp_graph` — PaSGAL-style DP sequence-to-graph
  alignment over a linearized DAG; exact ground truth for BitAlign,
  and the DP comparator of :mod:`repro.eval.experiments`.

The reference aligners that only the tests run (linear DP, classic
Bitap, linear GenASM with traceback) live in ``tests/oracles/``.
"""

from repro.align.dp_graph import graph_align, graph_distance

__all__ = ["graph_align", "graph_distance"]
