"""Fixture (impersonates a core module): the dict build grows back."""
from repro.index.hash_index import HashTableIndex, build_index

from repro.index import build_index as build_dict_index

__all__ = ["HashTableIndex", "build_index", "build_dict_index"]
