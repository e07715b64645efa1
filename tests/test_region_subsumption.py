"""Tests for the align stage's seed-subsumption rule.

The pipeline skips a seed region when an earlier alignment of the same
oriented read already matches that seed's read position to that seed's
graph character *and* the earlier region's node range contains the
skipped one's (:meth:`repro.core.pipeline.AlignStage._mark_subsumed`).
Align-every-region — the paper's Section 11.4 behaviour and this
repository's behaviour before the rule — survives here as the oracle
the rule is measured against:

* a differential oracle assembled from the pipeline's public pieces,
  run over three seeded fixtures (the whole ``MappingResult`` must be
  equal, exceptions pinned by name);
* hand-built cases where the rule must **not** fire (repeat copies on
  a shifted diagonal, an uncontained node range, the other allele of a
  bubble) and one where it must;
* parity of results and of the ``regions_subsumed`` counter across
  every way a read can reach the drive.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random

import pytest

from repro import seq as seqmod
from repro.api import Mapper
from repro.core.alignment import TIE_MAPQ
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.pipeline import (
    AlignStage,
    ChainFilterStage,
    ReadTask,
    SeedStage,
    SelectStage,
    commit_candidates,
)
from repro.graph.builder import Variant, build_graph
from repro.service.core import ServiceCore
from repro.service.protocol import encode_line, parse_request, \
    record_payload
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference, reference_with_repeats
from repro.sim.variants import VariantProfile, simulate_variants


def _config(**overrides) -> SeGraMConfig:
    base = dict(w=10, k=15, bucket_bits=12, error_rate=0.05,
                max_seeds_per_read=8, both_strands=True)
    base.update(overrides)
    return SeGraMConfig(**base)


# ----------------------------------------------------------------------
# The oracle: align every region
# ----------------------------------------------------------------------

def oracle_map(mapper: SeGraM, name: str, read: str) -> MappingResult:
    """Map ``read`` aligning **every** kept region (up to the early
    exit), through the same seed/filter stages, extraction, aligner,
    candidate builder, commit and select the pipeline uses.

    Call it on a mapper of its own: the stages book into its stats.
    """
    pipe = mapper.pipeline
    config = mapper.config
    oriented = [("+", read)]
    if config.both_strands:
        oriented.append(("-", seqmod.reverse_complement(read)))
    results = []
    for strand, sequence in oriented:
        seeded = SeedStage().run([ReadTask(name, sequence, strand)],
                                 pipe)[0]
        seeded = ChainFilterStage().run(seeded, pipe)
        found = []
        for index, region in enumerate(seeded.regions):
            prepared = pipe.extract_stage.run(index, region, pipe)
            aligned = mapper.aligner.align(prepared.lin, sequence,
                                           prepared.anchor)
            found.append(AlignStage._candidate(aligned, prepared,
                                               strand, pipe))
            if config.early_exit_distance is not None \
                    and aligned.distance <= config.early_exit_distance:
                break
        result = MappingResult(
            read_name=name, read_length=len(sequence), mapped=False,
            strand=strand, seeding=seeded.stats,
            regions_aligned=len(found))
        commit_candidates(result, found, config.top_n_alignments)
        results.append(result)
    return SelectStage().run(
        results[0], results[1] if config.both_strands else None, pipe)


def _placement(result: MappingResult) -> MappingResult:
    """Everything but the count of regions aligned to get there."""
    return dataclasses.replace(result, regions_aligned=0)


def _same_locus_not_better(result: MappingResult,
                           expected: MappingResult) -> bool:
    """The only way a result may leave the oracle: same locus, and
    every distance at or above the oracle's (a skipped region could
    only have improved on the kept alignment of its locus)."""
    return (result.mapped == expected.mapped
            and result.strand == expected.strand
            and result.contig == expected.contig
            and result.candidate_count == expected.candidate_count
            and abs(result.linear_position - expected.linear_position)
            < result.read_length // 2
            and result.distance >= expected.distance
            and (result.second_best_distance or 0)
            >= (expected.second_best_distance or 0))


def _noisy_reads(reference: str, count: int, length: int,
                 model: ErrorModel, rng: random.Random):
    reads = []
    for index in range(count):
        start = rng.randrange(0, len(reference) - length)
        sequence, _ = apply_errors(reference[start:start + length],
                                   model, rng)
        if index % 2:
            sequence = seqmod.reverse_complement(sequence)
        reads.append((f"read{index}", sequence))
    return reads


def _fixture(kind: str):
    """``(reference, variants, reads, early exit to try)`` per kind;
    the reference bears repeats so second-best distances exist."""
    rng = random.Random(f"subsumption:{kind}")
    reference = reference_with_repeats(
        40_000, rng, repeat_fraction=0.15, repeat_length=200,
        family_count=4)
    variants = ()
    if kind != "linear-100":
        variants = simulate_variants(reference, rng, VariantProfile(
            snp_rate=0.006, insertion_rate=0.001, deletion_rate=0.001,
            sv_rate=0.0))
    if kind == "graph-1k":
        reads = _noisy_reads(reference, 16, 1_000,
                             ErrorModel.pacbio(0.05), rng)
        return reference, variants, reads, 48
    reads = _noisy_reads(reference, 80, 100,
                         ErrorModel.illumina(0.01), rng)
    return reference, variants, reads, 1


#: Reads whose result differs from the align-every-region oracle, per
#: ``(fixture, early exit set)``.  Each must be the same locus at a
#: distance no better than the oracle's (asserted below).
KNOWN_EXCEPTIONS: dict[tuple[str, bool], set[str]] = {
    ("linear-100", False): set(),
    ("linear-100", True): set(),
    ("graph-100", False): set(),
    ("graph-100", True): set(),
    ("graph-1k", False): set(),
    ("graph-1k", True): set(),
}


@pytest.mark.usefixtures("unbounded")
class TestDifferentialOracle:
    """The subsumption rule alone against align-every-region; the edit
    budget is lifted here and measured against this unbounded drive in
    ``tests/test_bounded_extension.py``."""

    @pytest.mark.parametrize("early_exit", [False, True],
                             ids=["all_regions", "early_exit"])
    @pytest.mark.parametrize("kind",
                             ["linear-100", "graph-100", "graph-1k"])
    def test_results_equal_align_every_region(self, kind, early_exit):
        reference, variants, reads, exit_distance = _fixture(kind)
        config = _config(
            early_exit_distance=exit_distance if early_exit else None)

        def build():
            return SeGraM.from_reference(reference, variants,
                                         config=config,
                                         max_node_length=1_024)

        mapper, oracle = build(), build()
        results = mapper.map_batch(reads)
        differing = set()
        for (name, sequence), result in zip(reads, results):
            expected = oracle_map(oracle, name, sequence)
            assert result.mapq == expected.mapq \
                or name in KNOWN_EXCEPTIONS[kind, early_exit]
            if _placement(result) != _placement(expected):
                differing.add(name)
                assert _same_locus_not_better(result, expected), name
        assert differing == KNOWN_EXCEPTIONS[kind, early_exit]
        stats, every = mapper.stats, oracle.stats
        # Same loci considered, far fewer aligned — and the skipped
        # ones are accounted for, not lost.
        assert stats.regions_chained == every.regions_chained
        skipped_by_exit = stats.regions_chained \
            - stats.regions_aligned - stats.regions_subsumed
        if early_exit:
            assert stats.regions_subsumed > 0 and skipped_by_exit > 0
        else:
            assert stats.regions_subsumed > stats.regions_aligned
            assert skipped_by_exit == 0
        assert stats.stage("align").dropped == \
            stats.regions_subsumed + skipped_by_exit


# ----------------------------------------------------------------------
# Hand-built cases: where the rule must not fire, and where it must
# ----------------------------------------------------------------------

def _kept_regions(mapper: SeGraM, read: str):
    """The '+' orientation's regions in the order the align stage
    pulls them (on a throwaway copy of the stats)."""
    pipe = mapper.pipeline
    seeded = SeedStage().run([ReadTask("probe", read, "+")], pipe)[0]
    regions = ChainFilterStage().run(seeded, pipe).regions
    pipe.reset_stats()
    return regions


def _diagonals(regions) -> set[int]:
    return {region.seed.graph_start - region.seed.read_start
            for region in regions}


def _other_base(base: str) -> str:
    return "A" if base != "A" else "C"


@pytest.mark.usefixtures("unbounded")
class TestMustNotFire:
    """Seeds that share everything with an aligned one *except* the
    clause under test must still be aligned, and the result must be
    the align-every-region oracle's (budget lifted: a copy far enough
    behind would otherwise be abandoned before it could compete)."""

    def test_tandem_copies_on_shifted_diagonals(self):
        """Two 40-base tandem copies under a 100-base read: the
        repeat's seeds hit both copies, i.e. one node range but
        diagonals a period apart.  One alignment per diagonal."""
        rng = random.Random("subsumption:tandem")
        unit = random_reference(40, rng)
        reference = random_reference(400, rng) + unit + unit \
            + random_reference(400, rng)
        read = reference[390:490]
        config = _config(both_strands=False)
        # Graph-only mappers tell loci apart by exact anchor, so the
        # shifted placements show as competitors (a linear projection
        # would fold starts within half a read into one locus).
        graph = build_graph(reference).graph
        mapper, oracle = SeGraM(graph, config), SeGraM(graph, config)
        regions = _kept_regions(mapper, read)
        copies = len(_diagonals(regions))
        assert 1 < copies < len(regions)
        assert graph.node_count == 1

        result = mapper.map_read(read, "tandem")
        assert result.regions_aligned == copies
        assert mapper.stats.regions_subsumed == len(regions) - copies
        assert result.distance == 0
        assert result.second_best_distance is not None
        assert result.candidate_count == copies
        assert _placement(result) == \
            _placement(oracle_map(oracle, "tandem", read))

    def test_dispersed_copies_tie(self):
        """A read inside one copy of a two-copy dispersed repeat,
        both copies in one node: two loci, tied, MAPQ says so."""
        rng = random.Random("subsumption:dispersed")
        repeat = random_reference(150, rng)
        reference = random_reference(300, rng) + repeat \
            + random_reference(300, rng) + repeat \
            + random_reference(300, rng)
        read = repeat[25:125]
        config = _config(both_strands=False)
        mapper = SeGraM.from_reference(reference, config=config)
        oracle = SeGraM.from_reference(reference, config=config)
        regions = _kept_regions(mapper, read)
        assert _diagonals(regions) == {300 + 25, 750 + 25}
        assert mapper.graph.node_count == 1

        result = mapper.map_read(read, "dispersed")
        assert result.regions_aligned == 2
        assert result.candidate_count == 2
        assert result.distance == result.second_best_distance == 0
        assert result.mapq <= TIE_MAPQ
        assert {c.linear_position for c in result.candidates} == \
            {325, 775}
        assert _placement(result) == \
            _placement(oracle_map(oracle, "dispersed", read))

    def test_node_range_not_contained(self):
        """Same diagonal, but the first region is truncated: the read
        starts 2 bases before a node boundary and loses 3 reference
        bases early on, so the leftmost seed's extension
        (x = c - a(1 + E)) stops inside the seed's own node while the
        read reaches into the previous one.  Its alignment pays two
        insertions for the missing graph; a seed further into the
        read selects both nodes and must still be aligned — it finds
        the clean placement and then subsumes the rest."""
        rng = random.Random("subsumption:containment")
        reference = random_reference(2_000, rng)
        read = reference[398:410] + reference[413:503]
        config = _config(both_strands=False)

        def build():
            return SeGraM.from_reference(reference, config=config,
                                         max_node_length=200)

        mapper, oracle = build(), build()
        regions = _kept_regions(mapper, read)
        ranges = [mapper.pipeline.node_range(r.start, r.end)
                  for r in regions]
        assert len(_diagonals(regions)) == 1
        assert ranges[0] == (2, 2)
        assert set(ranges[1:]) == {(1, 2)}

        result = mapper.map_read(read, "edge")
        assert result.regions_aligned == 2
        assert mapper.stats.regions_subsumed == len(regions) - 2
        assert str(result.cigar) == "12=3D90="
        assert _placement(result) == \
            _placement(oracle_map(oracle, "edge", read))

    def test_other_allele_of_a_bubble(self):
        """A read carrying the alt allele of a 30-base replacement
        whose first 26 bases equal the ref allele's: the shared
        minimizers hit both allele nodes at one read position.  The
        ref-node seed sorts first and its alignment is pinned to the
        ref branch; the alt-node seed — same read position, same node
        range, another graph character — must still be aligned, and
        wins."""
        rng = random.Random("subsumption:allele")
        reference = random_reference(600, rng)
        ref_allele = reference[300:330]
        alt_allele = ref_allele[:26] + _other_base(ref_allele[26]) \
            + ref_allele[27:]

        def spoiled(flank: str, first: int) -> str:
            # A substitution every 12 bases: no 15-mer seeds, so the
            # only seeds are the alleles' shared ones.
            bases = list(flank)
            for position in range(first, len(bases), 12):
                bases[position] = _other_base(bases[position])
            return "".join(bases)

        # One sequencing error before the variant kills the minimizers
        # that cover it (they would be alt-only, and sort first).
        carried = alt_allele[:24] + _other_base(alt_allele[24]) \
            + alt_allele[25:]
        read = spoiled(reference[260:300], 5) + carried \
            + spoiled(reference[330:370], 3)
        config = _config(both_strands=False)
        variants = [Variant(300, 330, alt_allele)]
        mapper = SeGraM.from_reference(reference, variants,
                                       config=config)
        oracle = SeGraM.from_reference(reference, variants,
                                       config=config)
        alt_node, = mapper.built.alt_nodes
        regions = _kept_regions(mapper, read)
        first, second = regions[0].seed, regions[1].seed
        assert first.node_id != alt_node == second.node_id
        assert (first.read_start, first.node_offset) == \
            (second.read_start, second.node_offset)
        assert len({mapper.pipeline.node_range(r.start, r.end)
                    for r in regions}) == 1

        result = mapper.map_read(read, "allele")
        assert result.regions_aligned == 2
        assert alt_node in result.path_nodes
        # 3 + 4 flank errors and the one in the allele; the ref
        # branch costs the variant base on top.
        assert result.distance == 8
        assert _placement(result) == \
            _placement(oracle_map(oracle, "allele", read))


class TestMustFire:
    def test_colinear_seeds_align_once(self):
        rng = random.Random("subsumption:colinear")
        reference = random_reference(3_000, rng)
        read = reference[1_200:1_350]
        mapper = SeGraM.from_reference(
            reference, config=_config(both_strands=False))
        regions = _kept_regions(mapper, read)
        assert len(regions) == 8 and len(_diagonals(regions)) == 1

        result = mapper.map_read(read, "colinear")
        assert result.regions_aligned == 1
        assert mapper.stats.regions_aligned == 1
        assert mapper.stats.regions_subsumed == 7
        assert mapper.stats.stage("align").dropped == 7
        assert mapper.stats.stage("extract").items_in == 1
        assert str(result.cigar) == "150="
        assert result.second_best_distance is None


# ----------------------------------------------------------------------
# Parity: every way a read reaches the drive
# ----------------------------------------------------------------------

def _assert_accounted(stats) -> None:
    """No early exit configured: every kept region was either aligned
    or subsumed."""
    assert stats.regions_chained == \
        stats.regions_aligned + stats.regions_subsumed
    assert stats.stage("align").dropped == stats.regions_subsumed


class TestParity:
    READS = 70

    @pytest.fixture(scope="class")
    def env(self, tmp_path_factory):
        rng = random.Random("subsumption:parity")
        reference = reference_with_repeats(
            12_000, rng, repeat_fraction=0.15, repeat_length=200,
            family_count=3)
        reads = _noisy_reads(reference, self.READS, 100,
                             ErrorModel.illumina(0.01), rng)
        artifact = tmp_path_factory.mktemp("subsumption") / "ref.sgidx"
        Mapper(reference, name="chr1", config=_config(),
               max_node_length=1_024).save_index(artifact)

        def attach() -> Mapper:
            return Mapper.from_artifact(artifact, config=_config())

        alone = attach()
        records = [alone.map(sequence, name)
                   for name, sequence in reads]
        _assert_accounted(alone.stats)
        assert alone.stats.regions_subsumed > alone.stats.regions_aligned
        return {"attach": attach, "reads": reads, "records": records,
                "subsumed": alone.stats.regions_subsumed,
                "aligned": alone.stats.regions_aligned}

    def _check(self, env, mapper: Mapper, records) -> None:
        assert records == env["records"]
        assert mapper.stats.regions_subsumed == env["subsumed"]
        assert mapper.stats.regions_aligned == env["aligned"]
        _assert_accounted(mapper.stats)

    def test_one_batch(self, env):
        mapper = env["attach"]()
        self._check(env, mapper, mapper.map_batch(env["reads"]))

    def test_forked_shards(self, env):
        mapper = env["attach"]()
        self._check(env, mapper,
                    mapper.map_batch(env["reads"], jobs=2))

    def test_persistent_pool(self, env):
        """The daemon at ``jobs=2`` shards every dispatch across the
        engine's standing pool: records and subsumption counts equal
        the one-read drive, and ``close()`` reaps the workers."""
        before = {child.pid for child in multiprocessing.active_children()}
        mapper = env["attach"]()
        core = ServiceCore(mapper, jobs=2)
        try:
            response = core.handle(parse_request(encode_line({
                "op": "map_batch",
                "reads": [list(read) for read in env["reads"]],
            }).decode().strip()))
            served = [payload["record"]
                      for payload in response["result"]["reads"]]
            pipeline = core.stats_payload()["pipeline"]
        finally:
            core.close()
        assert served == [record_payload(record)
                          for record in env["records"]]
        assert pipeline["regions_subsumed"] == env["subsumed"]
        assert pipeline["regions_aligned"] == env["aligned"]
        _assert_accounted(mapper.stats)
        assert {child.pid for child
                in multiprocessing.active_children()} <= before

    def test_daemon(self, env):
        mapper = env["attach"]()
        core = ServiceCore(mapper)
        try:
            response = core.handle(parse_request(encode_line({
                "op": "map_batch",
                "reads": [list(read) for read in env["reads"]],
            }).decode().strip()))
            served = [payload["record"]
                      for payload in response["result"]["reads"]]
            pipeline = core.stats_payload()["pipeline"]
        finally:
            core.close()
        assert served == [record_payload(record)
                          for record in env["records"]]
        assert pipeline["regions_subsumed"] == env["subsumed"]
        assert pipeline["regions_chained"] == \
            pipeline["regions_aligned"] + pipeline["regions_subsumed"]
        _assert_accounted(mapper.stats)
