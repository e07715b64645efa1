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
* :mod:`repro.core.mapper` — the end-to-end SeGraM mapper combining
  MinSeed and BitAlign for both sequence-to-graph and
  sequence-to-sequence mapping (paper Section 9).  The engine runs
  the staged drive itself (seed -> filter -> extract -> align ->
  select) over one whole-graph linearization whose views are the
  candidate regions.
* :mod:`repro.core.pipeline` — what the drive does not own: the
  per-stage statistics, candidate commit and selection, and the
  sharded batch engine on the standing worker pool.

The package does not re-export the function
:func:`repro.core.bitalign.bitalign`: binding it here would hide the
submodule of the same name (``import repro.core.bitalign as m`` would
yield the function).  Import it from its module, or as
:func:`repro.bitalign`.
"""

from repro.core.alignment import Cigar, CigarError, \
    mapq_from_candidates, replay_alignment
from repro.core.bitalign import BitAlignResult, bitalign_distance
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.core.minseed import MinSeed, Seed, SeedRegion
from repro.core.mapper import AlignmentCandidate, MappingResult, \
    SeGraM, SeGraMConfig
from repro.core.pipeline import PipelineStats, StageStats, best_of

__all__ = [
    "Cigar",
    "CigarError",
    "mapq_from_candidates",
    "replay_alignment",
    "AlignmentCandidate",
    "BitAlignResult",
    "bitalign_distance",
    "WindowedAligner",
    "WindowingConfig",
    "MinSeed",
    "Seed",
    "SeedRegion",
    "MappingResult",
    "SeGraM",
    "SeGraMConfig",
    "PipelineStats",
    "StageStats",
    "best_of",
]
