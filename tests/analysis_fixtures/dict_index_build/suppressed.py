"""Fixture (impersonates a core module): sanctioned exception."""
# A Fig. 7 experiment driver that sweeps the dict layout on purpose.
from repro.index.hash_index import build_index  # repro: allow[dict-index-build]

__all__ = ["build_index"]
