"""Fixture (impersonates an align-layer module): lawful imports.

Same-layer and downward imports are fine; the core *vocabulary*
module (repro.core.alignment) is layer 0 by design; TYPE_CHECKING
imports create no runtime dependency.
"""
from typing import TYPE_CHECKING

from repro.align.genasm import pattern_bitmasks
from repro.core.alignment import Cigar
from repro.seq import encode

if TYPE_CHECKING:
    from repro.core.mapper import MappingResult

__all__ = ["pattern_bitmasks", "Cigar", "encode", "MappingResult"]
