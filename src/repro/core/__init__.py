"""SeGraM core: the paper's primary contribution.

* :mod:`repro.core.alignment` — CIGAR/edit-operation types shared by
  every aligner in the library.
* :mod:`repro.core.bitalign` — the BitAlign bitvector-based
  sequence-to-graph alignment algorithm (paper Algorithm 1) with
  traceback.
* :mod:`repro.core.windows` — the divide-and-conquer windowing that
  lets BitAlign handle long reads (paper Section 7).
* :mod:`repro.core.minseed` — the MinSeed minimizer-based seeding
  algorithm (paper Section 6).
* :mod:`repro.core.pipeline` — the staged mapping pipeline engine
  (seed -> filter/chain -> extract -> align -> select) with per-stage
  statistics, the whole-graph linearization whose views are the
  candidate regions, and the sharded batch engine.
* :mod:`repro.core.mapper` — the end-to-end SeGraM mapper combining
  MinSeed and BitAlign for both sequence-to-graph and
  sequence-to-sequence mapping (paper Section 9), a thin driver over
  the pipeline engine.
"""

from repro.core.alignment import Cigar, CigarError, \
    mapq_from_candidates, replay_alignment
from repro.core.bitalign import BitAlignResult, bitalign, bitalign_distance
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.core.minseed import MinSeed, Seed, SeedRegion
from repro.core.mapper import AlignmentCandidate, MappingResult, \
    SeGraM, SeGraMConfig
from repro.core.pipeline import MappingPipeline, PipelineStats, \
    StageStats, best_of
from repro.core.chaining import Chain, chain_regions, chain_seeds, \
    chains_to_regions

__all__ = [
    "Cigar",
    "CigarError",
    "mapq_from_candidates",
    "replay_alignment",
    "AlignmentCandidate",
    "BitAlignResult",
    "bitalign",
    "bitalign_distance",
    "WindowedAligner",
    "WindowingConfig",
    "MinSeed",
    "Seed",
    "SeedRegion",
    "MappingResult",
    "SeGraM",
    "SeGraMConfig",
    "MappingPipeline",
    "PipelineStats",
    "StageStats",
    "best_of",
    "Chain",
    "chain_regions",
    "chain_seeds",
    "chains_to_regions",
]
