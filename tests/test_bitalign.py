"""Tests for BitAlign — the paper's core algorithm (Algorithm 1).

The decisive property: BitAlign's fitting-alignment distance equals the
PaSGAL-style DP ground truth on arbitrary DAGs, and its traceback
replays exactly.  On chains it must also equal the linear aligners.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.dp_graph import graph_distance
from repro.align.dp_linear import semiglobal_distance
from repro.align.genasm import genasm_distance
from repro.core.alignment import replay_alignment
from repro.core.bitalign import (
    bitalign,
    bitalign_distance,
    generate_bitvectors,
    reference_bitvectors,
    traceback,
)
from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import LinearizedGraph, linearize
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)
pattern_strategy = st.text(alphabet="ACGT", min_size=1, max_size=20)


def chain(text: str):
    return linearize(GenomeGraph.from_linear(text, node_length=3))


def random_variant_graph(seed: int, min_len: int = 40, max_len: int = 150):
    rng = random.Random(seed)
    reference = random_reference(rng.randint(min_len, max_len), rng)
    profile = VariantProfile(
        snp_rate=0.05, insertion_rate=0.02, deletion_rate=0.02,
        sv_rate=0.002, sv_min=5, sv_max=15, small_indel_max=4,
    )
    variants = simulate_variants(reference, rng, profile)
    built = build_graph(reference, variants)
    return linearize(built.graph), reference, rng


class TestKnownCases:
    def test_exact_backbone_match(self):
        built = build_graph("ACGTTACGT", [Variant(4, 5, "G")])
        lin = linearize(built.graph)
        result = bitalign(lin, "ACGTTACGT", k=2)
        assert result is not None
        assert result.distance == 0

    def test_exact_variant_match(self):
        built = build_graph("ACGTTACGT", [Variant(4, 5, "G")])
        lin = linearize(built.graph)
        result = bitalign(lin, "ACGTGACGT", k=2)
        assert result is not None
        assert result.distance == 0
        # The path must route through the alt node.
        nodes = {lin.node_ids[p] for p in result.path}
        alt_node = built.alt_nodes[0]
        assert alt_node in nodes

    def test_fig1_all_haplotypes_align_exactly(self):
        built = build_graph(
            "ACGTACGT",
            [Variant(3, 4, "G"), Variant(4, 4, "T"), Variant(3, 4, "")],
        )
        lin = linearize(built.graph)
        for haplotype in ["ACGTACGT", "ACGGACGT", "ACGTTACGT", "ACGACGT"]:
            result = bitalign(lin, haplotype, k=3)
            assert result is not None, haplotype
            assert result.distance == 0, haplotype

    def test_deletion_hop(self):
        # Deleting "TT" gives the haplotype ACGTACGT.
        built = build_graph("ACGTTTACGT", [Variant(4, 6, "")])
        lin = linearize(built.graph)
        result = bitalign(lin, "ACGTACGT", k=2)
        assert result is not None
        assert result.distance == 0

    def test_over_threshold_returns_none(self):
        lin = chain("AAAAAAAA")
        assert bitalign(lin, "TTTT", k=2) is None

    def test_empty_graph(self):
        from repro.graph.linearize import LinearizedGraph
        lin = LinearizedGraph(chars="", successors=[], node_ids=[],
                              node_offsets=[])
        assert bitalign(lin, "ACG", k=3) is not None
        assert bitalign(lin, "ACG", k=2) is None

    def test_parameter_validation(self):
        lin = chain("ACGT")
        with pytest.raises(ValueError):
            bitalign(lin, "", k=2)
        with pytest.raises(ValueError):
            bitalign(lin, "A", k=-1)

    def test_anchored_start(self):
        lin = chain("ACGTACGT")
        # Restrict the start to position 4: the second ACGT.
        result = bitalign(lin, "ACGT", k=1, anchors=[4])
        assert result is not None
        assert result.path[0] == 4


class TestChainEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(dna, pattern_strategy)
    def test_matches_linear_genasm(self, text, pattern):
        k = min(len(pattern), 6)
        ours = bitalign_distance(chain(text), pattern, k)
        linear = genasm_distance(text, pattern, k)
        if linear is None:
            assert ours is None
        else:
            assert ours is not None
            assert ours[0] == linear[0]

    @settings(max_examples=150, deadline=None)
    @given(dna, pattern_strategy)
    def test_matches_linear_dp(self, text, pattern):
        dp, _ = semiglobal_distance(text, pattern)
        k = min(len(pattern), dp + 2)
        ours = bitalign_distance(chain(text), pattern, k)
        if dp <= k:
            assert ours is not None and ours[0] == dp
        else:
            assert ours is None


class TestGraphEquivalence:
    """BitAlign == graph DP on random variant graphs."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_distance_matches_dp_random_reads(self, seed):
        lin, reference, rng = random_variant_graph(seed)
        read = "".join(rng.choice("ACGT")
                       for _ in range(rng.randint(4, 25)))
        dp, _ = graph_distance(lin, read)
        k = min(len(read), dp + 2)
        ours = bitalign_distance(lin, read, k)
        assert ours is not None
        assert ours[0] == dp

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_distance_matches_dp_mutated_backbone_reads(self, seed):
        lin, reference, rng = random_variant_graph(seed)
        start = rng.randint(0, max(0, len(reference) - 30))
        fragment = reference[start:start + rng.randint(10, 30)]
        if not fragment:
            return
        # Mutate a couple of bases so edits are exercised.
        chars = list(fragment)
        for _ in range(rng.randint(0, 3)):
            chars[rng.randrange(len(chars))] = rng.choice("ACGT")
        read = "".join(chars)
        dp, _ = graph_distance(lin, read)
        ours = bitalign_distance(lin, read, k=min(len(read), dp + 1))
        assert ours is not None
        assert ours[0] == dp

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_traceback_replays_and_follows_edges(self, seed):
        lin, reference, rng = random_variant_graph(seed)
        start = rng.randint(0, max(0, len(reference) - 25))
        fragment = reference[start:start + rng.randint(8, 25)]
        if not fragment:
            return
        chars = list(fragment)
        for _ in range(rng.randint(0, 2)):
            chars[rng.randrange(len(chars))] = rng.choice("ACGT")
        read = "".join(chars)
        dp, _ = graph_distance(lin, read)
        result = bitalign(lin, read, k=min(len(read), dp + 2))
        assert result is not None
        assert result.distance == dp
        assert replay_alignment(result.cigar, read, result.reference) == dp
        for src, dst in zip(result.path, result.path[1:]):
            assert dst in lin.successors[src]


class TestHopLimit:
    def test_hop_limit_can_degrade_alignment(self):
        # A long deletion's hop exceeds the limit; the exact aligner
        # uses it, the limited one pays edits instead.
        built = build_graph("ACGT" + "T" * 30 + "ACGT",
                            [Variant(4, 34, "")])
        exact = linearize(built.graph)
        limited = linearize(built.graph, hop_limit=12)
        read = "ACGTACGT"
        exact_result = bitalign_distance(exact, read, k=8)
        limited_result = bitalign_distance(limited, read, k=8)
        assert exact_result is not None and exact_result[0] == 0
        assert limited_result is not None
        assert limited_result[0] > 0

    def test_hop_limit_matches_dp_on_same_truncated_graph(self):
        built = build_graph("ACGT" + "T" * 30 + "ACGT",
                            [Variant(4, 34, "")])
        limited = linearize(built.graph, hop_limit=12)
        read = "ACGTACGT"
        dp, _ = graph_distance(limited, read)
        ours = bitalign_distance(limited, read, k=8)
        assert ours is not None and ours[0] == dp


# ----------------------------------------------------------------------
# The diagonal kernel against the row-major oracle
# ----------------------------------------------------------------------

def rows_best_start(rows, m, k, candidates=None):
    """The oracle-side locator over ``rows[i][d]``: budgets ascending,
    then positions ascending (or in ``candidates`` order)."""
    accept = 1 << (m - 1)
    positions = range(len(rows)) if candidates is None else candidates
    for d in range(k + 1):
        for i in positions:
            if not rows[i][d] & accept:
                return d, i
    return None


def oracle_bitalign(lin, pattern, k, anchors=None):
    """``bitalign`` as it was before the diagonal kernel: row-major
    recurrence, row scan, row-indexed walk."""
    rows = reference_bitvectors(lin, pattern, k)
    located = rows_best_start(rows, len(pattern), k, anchors)
    if located is None:
        return None
    budget, start = located
    return traceback(lin, pattern, rows, start, budget)


def dag_window(rng, n, hop_rate, dead_rate, skip_rate, alphabet="ACGT"):
    """A random DAG window: any forward edge is allowed, so it covers
    what sliced variant graphs produce and more."""
    successors = []
    for i in range(n):
        succs = set()
        if i + 1 < n and rng.random() >= skip_rate:
            succs.add(i + 1)
        if i + 2 < n and rng.random() < hop_rate:
            succs.update(rng.randint(i + 1, n - 1)
                         for _ in range(rng.randint(1, 3)))
        if rng.random() < dead_rate:
            succs.clear()
        successors.append(tuple(sorted(succs)))
    return LinearizedGraph(
        chars="".join(rng.choice(alphabet) for _ in range(n)),
        successors=successors, node_ids=list(range(n)),
        node_offsets=[0] * n)


def _walk_read(rng, lin, m):
    """A noisy spelling of a random walk through ``lin`` (so that
    alignments within small ``k`` exist)."""
    position = rng.randrange(len(lin))
    read = []
    while len(read) < m:
        noise = rng.random()
        if noise < 0.1:
            read.append(rng.choice("ACGTN"))          # substitution
        elif noise < 0.15:
            read.extend(rng.choice("ACGT") + lin.chars[position])
        elif noise > 0.85 and read:
            pass                                      # deletion
        else:
            read.append(lin.chars[position])
        if not lin.successors[position]:
            break
        position = rng.choice(lin.successors[position])
    return "".join(read)[:m] or "A"


def _kernel_case(rng):
    n = rng.choice((1, 1, 2, 3, 5, 8, 13, 30, 60))
    shape = rng.random()
    if shape < 0.2:
        lin = dag_window(rng, n, 0.0, 0.0, 0.0)            # a chain
    elif shape < 0.5:
        lin = dag_window(rng, n, 0.1, 0.03, 0.05)          # sparse hops
    else:
        lin = dag_window(rng, n, 0.3, 0.1, 0.2,
                         alphabet=rng.choice(("ACGT", "ACGTN", "AC", "A")))
    m = rng.choice((1, 1, 2, 3, 4, 7, 16, 33, 64, 65))
    if rng.random() < 0.5:
        pattern = _walk_read(rng, lin, m)
    else:
        pattern = "".join(rng.choice("ACGTN") for _ in range(m))
    m = len(pattern)
    k = rng.choice((0, 0, 1, 2, 3, m, m, min(m, 5),
                    rng.randint(0, m + 3)))
    return lin, pattern, k


@pytest.fixture(scope="module")
def kernel_cases():
    rng = random.Random(0xD1A6)
    return [_kernel_case(rng) for _ in range(600)]


class TestDiagonalKernelParity:
    """Exactness is the kernel's contract: every cell, every located
    start and every walk equals the row-major oracle's on arbitrary
    DAG windows."""

    def test_case_mix_covers_the_contract(self, kernel_cases):
        """The generator reaches every shape the contract names."""
        seen = set()
        for lin, pattern, k in kernel_cases:
            n, m = len(lin), len(pattern)
            for i, succs in enumerate(lin.successors):
                if len(succs) > 1:
                    seen.add("multiple successors")
                if succs and i + 1 not in succs:
                    seen.add("missing i+1 successor")
                if not succs and i < n - 1:
                    seen.add("dead end mid-window")
                if succs and succs[-1] - i >= n - 2 > 2:
                    seen.add("hop as long as the window")
            if set(lin.chars) - set(pattern):
                seen.add("text character absent from the pattern")
            if "N" in pattern or "N" in lin.chars:
                seen.add("N")
            seen.update(label for label, hit in (
                ("m = 1", m == 1), ("k = 0", k == 0), ("k = m", k == m),
                ("k > m", k > m), ("n = 1", n == 1), ("n < m", n < m),
                ("chain", lin.is_chain())) if hit)
        assert len(seen) == 13, sorted(seen)

    def test_every_cell_and_best_start_match_oracle(self, kernel_cases):
        rng = random.Random(7)
        for lin, pattern, k in kernel_cases:
            context = (lin.chars, lin.successors, pattern, k)
            oracle = reference_bitvectors(lin, pattern, k)
            rows = generate_bitvectors(lin, pattern, k)
            assert len(rows) == len(oracle)
            assert list(rows) == oracle, context
            m = len(pattern)
            assert rows.best_start() == \
                rows_best_start(oracle, m, k), context
            candidates = [rng.randrange(len(lin))
                          for _ in range(rng.randint(1, 4))]
            assert rows.best_start(candidates) == \
                rows_best_start(oracle, m, k, candidates), context

    def test_distance_matches_graph_dp(self, kernel_cases):
        within = 0
        for lin, pattern, k in kernel_cases:
            dp, _ = graph_distance(lin, pattern)
            ours = bitalign_distance(lin, pattern, k)
            if dp <= k:
                within += 1
                assert ours is not None and ours[0] == dp
            else:
                assert ours is None
        assert within >= 200

    def test_native_walk_equals_row_walk(self, kernel_cases):
        """The walk over the diagonal store probes single bits; run
        over the same store unpacked to rows (and over the oracle's
        rows) the generic walk must take identical steps."""
        rng = random.Random(11)
        walked = 0
        for lin, pattern, k in kernel_cases:
            rows = generate_bitvectors(lin, pattern, k)
            anchors = None if rng.random() < 0.4 else \
                [rng.randrange(len(lin))
                 for _ in range(rng.randint(1, 3))]
            located = rows.best_start(anchors)
            if located is None:
                assert oracle_bitalign(lin, pattern, k, anchors) is None
                continue
            budget, start = located
            native = traceback(lin, pattern, rows, start, budget)
            unpacked = traceback(lin, pattern, list(rows), start, budget)
            assert native == unpacked
            assert native == oracle_bitalign(lin, pattern, k, anchors)
            assert native == bitalign(lin, pattern, k, anchors=anchors)
            assert native.distance == budget
            assert replay_alignment(native.cigar, pattern,
                                    native.reference) == native.distance
            assert native.path[0] == start
            for src, dst in zip(native.path, native.path[1:]):
                assert dst in lin.successors[src]
            walked += 1
        assert walked >= 300

    @pytest.mark.parametrize("chars,successors,pattern,k,path", [
        ("ACC", [(1, 2), (), ()], "AC", 0, (0, 1)),
        ("TCC", [(1, 2), (), ()], "AC", 1, (0, 1)),
        ("ATCGCG", [(1,), (2, 4), (3,), (), (5,), ()], "ACG", 1,
         (0, 1, 2, 3)),
    ], ids=["match", "substitution", "deletion"])
    def test_ties_take_the_first_listed_successor(
            self, chars, successors, pattern, k, path):
        """Two branches spelling the same thing: random windows almost
        never tie on a deletion, so the order is pinned by hand."""
        lin = LinearizedGraph(
            chars=chars, successors=successors,
            node_ids=list(range(len(chars))),
            node_offsets=[0] * len(chars))
        result = bitalign(lin, pattern, k)
        assert result is not None and result.path == path
        assert result == oracle_bitalign(lin, pattern, k)

    def test_validates_like_the_oracle(self):
        lin = chain("ACGT")
        for kernel in (generate_bitvectors, reference_bitvectors):
            with pytest.raises(ValueError):
                kernel(lin, "", 1)
            with pytest.raises(ValueError):
                kernel(lin, "A", -1)


class TestPipelineWindows:
    """Windows the mapping pipeline really dispatches — captured from
    the golden workload (chain) and from the same reads over a variant
    graph under the default windowing (hop-bearing, rescues), plus two
    direct aligner calls (un-anchored start; rescue up to k = 128) —
    reproduce the oracle's result exactly."""

    @pytest.fixture(scope="class")
    def captured(self):
        from test_io_golden import _mapper, _workload

        import repro.core.windows as windows_module
        from repro.core.mapper import SeGraM, SeGraMConfig
        from repro.core.windows import WindowedAligner

        reference, reads = _workload()
        rng = random.Random(0x601D)
        variants = simulate_variants(reference, rng, VariantProfile(
            snp_rate=0.02, insertion_rate=0.004, deletion_rate=0.004,
            sv_rate=0.0, small_indel_max=4))
        # Garbage blocks no 32- or 64-edit window absorbs: rescues.
        noisy = list(reference[1_500:2_000])
        for lo, hi in ((150, 230), (330, 460)):
            noisy[lo:hi] = (rng.choice("ACGT") for _ in range(lo, hi))
        reads = [*reads, ("read_noisy", "".join(noisy))]
        jobs = []
        kernel = windows_module.bitalign

        def spy(window, chunk, k, anchors=None, backend=None):
            jobs.append((window, chunk, k, anchors))
            return kernel(window, chunk, k, anchors=anchors,
                          backend=backend)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(windows_module, "bitalign", spy)
            graph_mapper = SeGraM.from_reference(
                reference, variants, max_node_length=1_024,
                config=SeGraMConfig(
                    w=10, k=15, bucket_bits=12, error_rate=0.10,
                    max_seeds_per_read=4, both_strands=True))
            for mapper in (_mapper(reference), graph_mapper):
                for name, sequence in reads:
                    mapper.map_read(sequence, name)
            # Un-anchored: the first window searches a whole region.
            lin = linearize(graph_mapper.graph)
            WindowedAligner().align(lin.slice(400, 900), reads[0][1])
            # Rescue up to k = 128, driven explicitly (the pipeline
            # aligns each locus once, so whether a mapped read's one
            # anchor meets it is luck): anchored where the long
            # garbage block starts, the first window holds nothing
            # alignable at 32 or 64 edits.
            WindowedAligner().align(lin.slice(1_400, 2_400),
                                    reads[-1][1], anchor=(430, 330))
        return jobs

    def test_capture_spans_the_window_kinds(self, captured):
        kinds = {(window.is_chain(), anchors is None)
                 for window, _, _, anchors in captured}
        assert kinds >= {(True, False), (False, False), (False, True)}
        assert {64, 128} <= {k for _, _, k, _ in captured}

    def test_results_equal_the_oracle(self, captured):
        for window, chunk, k, anchors in captured:
            assert bitalign(window, chunk, k, anchors=anchors) == \
                oracle_bitalign(window, chunk, k, anchors)
