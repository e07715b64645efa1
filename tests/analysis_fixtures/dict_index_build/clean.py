"""Fixture (impersonates a core module): the one production build.

Naming the dict view's *types* is fine (MinSeed accepts one and
flattens it); only the build is fenced off.
"""
from repro.index.flat_index import FlatIndex, build_flat_index
from repro.index.hash_index import HashTableIndex, SeedHit

__all__ = ["FlatIndex", "build_flat_index", "HashTableIndex", "SeedHit"]
