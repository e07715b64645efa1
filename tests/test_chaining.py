"""Tests for the optional colinear-chaining filter."""

from __future__ import annotations

import random

import pytest

from repro.core.chaining import Chain, chain_seeds, chains_to_regions
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.minseed import Seed
from repro.core.windows import WindowingConfig
from repro.sim.reference import random_reference


def make_seed(read_start: int, graph_start: int, k: int = 15,
              node: int = 0) -> Seed:
    return Seed(
        read_start=read_start, read_end=read_start + k - 1,
        node_id=node, node_offset=graph_start,
        graph_start=graph_start, graph_end=graph_start + k - 1,
        minimizer_hash=read_start * 1_000 + graph_start,
    )


class TestChainSeeds:
    def test_colinear_seeds_chain_together(self):
        seeds = [make_seed(0, 100), make_seed(40, 140),
                 make_seed(80, 180)]
        chains = chain_seeds(seeds)
        assert len(chains) == 1
        assert len(chains[0].seeds) == 3

    def test_off_diagonal_seed_excluded(self):
        # Third seed is colinear in read but 4 kb away in the graph.
        seeds = [make_seed(0, 100), make_seed(40, 140),
                 make_seed(80, 4_500)]
        chains = chain_seeds(seeds, max_gap=1_000)
        best = chains[0]
        assert len(best.seeds) == 2

    def test_two_loci_two_chains(self):
        locus_a = [make_seed(0, 100), make_seed(40, 140)]
        locus_b = [make_seed(0, 50_000), make_seed(40, 50_040)]
        chains = chain_seeds(locus_a + locus_b, max_gap=1_000)
        assert len(chains) == 2
        assert all(len(c.seeds) == 2 for c in chains)

    def test_read_order_respected(self):
        # Second seed earlier in the read than the first: not
        # chainable.
        seeds = [make_seed(50, 100), make_seed(0, 200)]
        chains = chain_seeds(seeds)
        assert all(len(c.seeds) == 1 for c in chains)

    def test_skew_bound(self):
        # Graph gap 500 vs read gap 40: far beyond 30 % skew.
        seeds = [make_seed(0, 100), make_seed(55, 615)]
        chains = chain_seeds(seeds, max_skew=0.3)
        assert all(len(c.seeds) == 1 for c in chains)

    def test_indel_tolerance_within_skew(self):
        # Graph gap 110 vs read gap 100: a 10-base indel, within 30 %.
        seeds = [make_seed(0, 100), make_seed(115, 225)]
        chains = chain_seeds(seeds, max_skew=0.3)
        assert len(chains[0].seeds) == 2

    def test_empty_input(self):
        assert chain_seeds([]) == []

    def test_every_seed_claimed_once(self):
        rng = random.Random(3)
        seeds = [make_seed(rng.randrange(500),
                           rng.randrange(10_000)) for _ in range(50)]
        chains = chain_seeds(seeds)
        counted = sum(len(c.seeds) for c in chains)
        assert counted == len(seeds)

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_seeds([], max_gap=0)
        with pytest.raises(ValueError):
            chain_seeds([], max_skew=2.0)


class TestChainsToRegions:
    def test_region_spans_chain_with_extension(self):
        seeds = (make_seed(10, 1_000), make_seed(60, 1_050))
        chain = Chain(seeds=seeds, score=30.0)
        regions = chains_to_regions([chain], read_length=100,
                                    error_rate=0.1,
                                    total_chars=100_000)
        assert len(regions) == 1
        region = regions[0]
        assert region.start <= 1_000 - 10
        assert region.end >= 1_050 + 14 + (100 - 60 - 15)

    def test_top_n_limits_regions(self):
        chains = [
            Chain(seeds=(make_seed(0, i * 1_000),), score=15.0 - i)
            for i in range(5)
        ]
        regions = chains_to_regions(chains, 50, 0.05, 100_000, top_n=2)
        assert len(regions) == 2


class TestMapperIntegration:
    def test_chaining_reduces_alignments_same_result(self):
        rng = random.Random(8)
        reference = random_reference(60_000, rng)
        base = dict(
            w=10, k=15, bucket_bits=12, error_rate=0.02,
            windowing=WindowingConfig(window_size=128, overlap=48,
                                      k=16),
        )
        plain = SeGraM.from_reference(
            reference, config=SeGraMConfig(**base),
            max_node_length=4_000)
        chained = SeGraM.from_reference(
            reference, config=SeGraMConfig(**base, chaining=True),
            max_node_length=4_000)
        read = reference[20_000:21_000]
        plain_result = plain.map_read(read, "r")
        chained_result = chained.map_read(read, "r")
        assert chained_result.mapped and plain_result.mapped
        assert chained_result.distance == plain_result.distance == 0
        # Chaining collapses the per-seed regions into one chain
        # region (the 77 M -> 48 k effect of Section 11.4, in
        # miniature).  The collapse shows in the regions *kept*: the
        # plain path already aligns each locus once (its colinear
        # seeds are subsumed by the first alignment).
        assert chained.stats.regions_chained < \
            plain.stats.regions_chained
        assert chained_result.regions_aligned <= \
            plain_result.regions_aligned
        assert plain.stats.regions_subsumed > 0
