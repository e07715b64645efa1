"""Deleted with ROADMAP item 1's follow-up ``src/`` PR.

``benchmarks/perf/shims.py`` still looks these two names up in
``NumpyBackend.__dict__`` for its ``sweep_batched`` span; nothing in
``src/`` imports this module.
"""


class NumpyBackend:
    def chain_bitvectors(self, *args):
        return None

    def chain_bitvectors_many(self, *args):
        return None
