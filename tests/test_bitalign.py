"""Tests for BitAlign — the paper's core algorithm (Algorithm 1).

The decisive property: BitAlign's fitting-alignment distance equals the
PaSGAL-style DP ground truth on arbitrary DAGs, and its traceback
replays exactly.  On chains it must also equal the linear aligners.
"""

from __future__ import annotations

import math
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bitalign as KERNEL
from oracles.bitalign import reference_bitvectors, reference_traceback
from oracles.dp_linear import semiglobal_distance
from oracles.genasm import genasm_distance
from repro.align.dp_graph import graph_distance
from repro.core.alignment import Cigar, replay_alignment
from repro.core.bitalign import (
    BitAlignResult,
    bitalign,
    bitalign_distance,
    generate_bitvectors,
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
    return reference_traceback(lin, pattern, rows, start, budget)


def committed_prefix(result, commit):
    """The part of ``result`` the windowed aligner commits: every
    operation up to and including the one consuming the ``commit``-th
    read character, and the positions those operations consume."""
    ops, read = [], 0
    for op in result.cigar.expand():
        if read == commit:
            break
        ops.append(op)
        read += op != "D"
    cigar = Cigar.from_ops(ops)
    consumed = sum(op != "I" for op in ops)
    return BitAlignResult(cigar.edit_distance, cigar,
                          result.path[:consumed], result.chars)


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
            unpacked = reference_traceback(lin, pattern, list(rows), start,
                                           budget)
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

        def spy(window, chunk, k, anchors=None, commit=None):
            jobs.append((window, chunk, k, anchors, commit))
            return kernel(window, chunk, k, anchors=anchors,
                          commit=commit)

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
                 for window, _, _, anchors, _ in captured}
        assert kinds >= {(True, False), (False, False), (False, True)}
        assert {64, 128} <= {k for _, _, k, _, _ in captured}

    def test_results_equal_the_oracle(self, captured):
        for window, chunk, k, anchors, _ in captured:
            assert bitalign(window, chunk, k, anchors=anchors) == \
                oracle_bitalign(window, chunk, k, anchors)

    def test_stopped_walk_is_the_committed_prefix(self, captured):
        """Every pipeline window passes its commit point, and the walk
        stopped there equals the prefix of the full walk the windowed
        aligner keeps."""
        stopped = 0
        for window, chunk, k, anchors, commit in captured:
            assert commit is not None and 1 <= commit <= len(chunk)
            full = bitalign(window, chunk, k, anchors=anchors)
            result = bitalign(window, chunk, k, anchors=anchors,
                              commit=commit)
            if full is None:
                assert result is None
                continue
            assert result == committed_prefix(full, commit)
            stopped += commit < len(chunk)
        assert stopped >= 20


# ----------------------------------------------------------------------
# Preconditions of the kernel's front doors
# ----------------------------------------------------------------------

class TestModuleImport:
    def test_submodule_is_not_shadowed_by_the_function(self):
        """``repro.core`` does not bind the function ``bitalign``
        over its submodule, so ``import repro.core.bitalign as m``
        yields the module (``repro.bitalign`` stays the function)."""
        assert isinstance(KERNEL, types.ModuleType)
        assert KERNEL.RUNG == 8
        assert KERNEL.bitalign is bitalign


class TestPreconditions:
    """Anchors and traceback starts outside the contract raise
    ``ValueError`` naming the value, instead of an ``IndexError``, a
    silent None, the "stuck" assertion or a plausible alignment read
    from bits above the top field."""

    @pytest.mark.parametrize("anchor", [4, 6, -1])
    def test_anchor_outside_the_window(self, anchor):
        lin = chain("ACGT")
        with pytest.raises(ValueError, match=f"anchor {anchor} "):
            bitalign(lin, "ACG", 2, anchors=[0, anchor])

    def test_anchor_check_precedes_the_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before checking the anchors")

        monkeypatch.setattr(KERNEL, "generate_bitvectors", no_sweep)
        with pytest.raises(ValueError, match="anchor 9 "):
            bitalign(chain("ACGT"), "ACG", 12, anchors=[9])

    @pytest.mark.parametrize("store", ["diagonal", "rows"])
    @pytest.mark.parametrize("start,budget,match", [
        (-1, 0, "start -1 "),
        (4, 0, "start 4 "),
        (3, 5, "budget 5 "),
        (3, -1, "budget -1 "),
        (0, 0, "no alignment"),
    ], ids=["start-negative", "start-past-end", "budget-above-k",
            "budget-negative", "accepting-bit-set"])
    def test_traceback_outside_its_precondition(self, store, start,
                                                budget, match):
        lin = chain("ACGT")
        rows = generate_bitvectors(lin, "TTT", 1)
        walk = traceback
        if store == "rows":
            rows, walk = list(rows), reference_traceback
        with pytest.raises(ValueError, match=match):
            walk(lin, "TTT", rows, start, budget)

    def test_traceback_at_its_precondition(self):
        """The boundary that is allowed: budget = k, last position."""
        lin = chain("ACGT")
        rows = generate_bitvectors(lin, "TTT", 2)
        assert traceback(lin, "TTT", rows, 3, 2) == \
            reference_traceback(lin, "TTT", list(rows), 3, 2)


# ----------------------------------------------------------------------
# The rung, the stop and the jump
# ----------------------------------------------------------------------

def k_only(lin, pattern, k, anchors=None, commit=None):
    """``bitalign`` with the rung patched off: one sweep at ``k``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KERNEL, "RUNG", math.inf)
        return bitalign(lin, pattern, k, anchors=anchors, commit=commit)


def sweeps_of(lin, pattern, k, anchors=None):
    """The thresholds ``bitalign`` sweeps at, in order."""
    real = KERNEL.generate_bitvectors
    seen = []

    def spy(window, chunk, threshold):
        seen.append(threshold)
        return real(window, chunk, threshold)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KERNEL, "generate_bitvectors", spy)
        bitalign(lin, pattern, k, anchors=anchors)
    return seen


def shaped_window(rng, shape, n, alphabet="ACGT"):
    """A window of one of three shapes: a chain; SNP / indel bubbles
    (``i -> {i+1, i+2}``, ``i+1 -> i+3``); or planted hops
    (``i -> {i+1, i+δ}``, δ up to 12, plus skip sources and dead
    ends)."""
    successors = [[i + 1] if i + 1 < n else [] for i in range(n)]
    if shape == "bubble":
        i = rng.randint(0, 4)
        while i + 3 < n:
            successors[i] = [i + 1, i + 2]
            successors[i + 1] = [i + 3]
            i += rng.randint(3, 9)
    elif shape == "hop":
        for i in range(n - 2):
            roll = rng.random()
            if roll < 0.12:
                successors[i].append(min(n - 1, i + rng.randint(2, 12)))
            elif roll < 0.15:
                successors[i] = [min(n - 1, i + rng.randint(2, 12))]
            elif roll < 0.17:
                successors[i] = []
    return LinearizedGraph(
        chars="".join(rng.choice(alphabet) for _ in range(n)),
        successors=[tuple(sorted(set(s))) for s in successors],
        node_ids=list(range(n)), node_offsets=[0] * n)


def planted_read(rng, lin, start, m, edits):
    """The spelling of a walk from ``start`` with ``edits`` random
    substitutions, insertions and deletions planted in it."""
    spelled, position = [], start
    while len(spelled) < m + edits and position is not None:
        spelled.append(lin.chars[position])
        succs = lin.successors[position]
        position = rng.choice(succs) if succs else None
    for _ in range(edits):
        at = rng.randrange(len(spelled))
        kind = rng.random()
        if kind < 0.5:
            spelled[at] = rng.choice("ACGT")
        elif kind < 0.75:
            spelled.insert(at, rng.choice("ACGT"))
        elif len(spelled) > 1:
            del spelled[at]
    return "".join(spelled[:m])


def walk_is_valid(lin, result):
    return all(b in lin.successors[a]
               for a, b in zip(result.path, result.path[1:]))


class TestRung:
    """A window swept at fields 0–8 first answers exactly like the
    ``k`` sweep alone (module docstring: the rung), on chains,
    bubbles and planted hops, at every threshold."""

    # The example count comes from the hypothesis profile (tier-1 or
    # ``--hypothesis-profile=deep``, see ``conftest.py``).
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000),
           st.sampled_from(("chain", "bubble", "hop")))
    def test_rung_equals_the_k_sweep(self, seed, shape):
        rng = random.Random(seed)
        m = rng.randint(1, 60)
        lin = shaped_window(rng, shape, m + rng.randint(0, 40))
        edits = rng.choice((0, 3, 7, 8, 9, 10, rng.randint(0, 16)))
        start = rng.randrange(len(lin))
        pattern = planted_read(rng, lin, start, m, edits) or "A"
        k = rng.choice((rng.randint(0, 8), 8, 9, 16, 32,
                        rng.randint(9, 40)))
        anchors = rng.choice((None, [start],
                              sorted({start, rng.randrange(len(lin))})))
        commit = rng.choice((None, rng.randint(1, len(pattern))))
        expected = k_only(lin, pattern, k, anchors, commit)
        assert bitalign(lin, pattern, k, anchors=anchors,
                        commit=commit) == expected
        if commit is None:
            assert expected == oracle_bitalign(lin, pattern, k, anchors)

    @pytest.mark.parametrize("distance", [7, 8, 9, 10])
    @pytest.mark.parametrize("k", [8, 9, 32])
    def test_boundary_distances(self, distance, k):
        """d* = 8 is the rung's last budget, d* = 9 the k sweep's
        first: spaced substitutions on a random chain pin d*."""
        rng = random.Random(distance * 100 + k)
        text = "".join(rng.choice("ACGT") for _ in range(200))
        lin = chain(text)
        read = list(text[20:140])
        for at in range(5, 5 + 12 * distance, 12):
            read[at] = "ACGT"[("ACGT".index(read[at]) + 1) % 4]
        read = "".join(read)
        assert graph_distance(lin, read)[0] == distance
        result = bitalign(lin, read, k, anchors=[20])
        assert result == k_only(lin, read, k, [20])
        assert result == oracle_bitalign(lin, read, k, [20])
        if distance > k:
            assert result is None
        else:
            assert result.distance == distance
        expected = [k] if k <= 8 else [8] if distance <= 8 else [8, k]
        assert sweeps_of(lin, read, k, [20]) == expected

    def test_rung_applies_to_mate_rescue_thresholds(self):
        """``k`` ≤ 8 sweeps once; above it the rung answers first."""
        lin = chain("ACGTACGTTT")
        assert sweeps_of(lin, "ACGT", 3) == [3]
        assert sweeps_of(lin, "ACGT", 100) == [8]
        assert sweeps_of(lin, "G" * 12, 12) == [8, 12]


class TestStopAndJump:
    """The walk that stops at the commit point and bisects ``=`` runs
    takes exactly the steps of the one-op-per-step row walk."""

    # The example count comes from the hypothesis profile (tier-1 or
    # ``--hypothesis-profile=deep``, see ``conftest.py``).
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_jump_equals_the_row_walk(self, seed):
        """Low-complexity text over dense bubbles and hops, read with
        few edits: ``=`` runs cross hop sources, skip sources and dead
        ends."""
        rng = random.Random(seed)
        shape = rng.choice(("bubble", "hop"))
        alphabet = rng.choice(("A", "AC", "ACGT"))
        m = rng.randint(1, 80)
        lin = shaped_window(rng, shape, m + rng.randint(0, 30), alphabet)
        start = rng.randrange(len(lin))
        pattern = planted_read(rng, lin, start, m, rng.randint(0, 3)) \
            or "A"
        k = rng.choice((0, 1, 3, 8, len(pattern)))
        rows = generate_bitvectors(lin, pattern, k)
        anchors = rng.choice((None, [start]))
        located = rows.best_start(anchors)
        if located is None:
            return
        budget, first = located
        commit = rng.randint(1, len(pattern))
        full = traceback(lin, pattern, rows, first, budget)
        stopped = traceback(lin, pattern, rows, first, budget,
                            commit=commit)
        assert full == reference_traceback(lin, pattern, list(rows),
                                           first, budget)
        assert stopped == reference_traceback(lin, pattern, list(rows),
                                              first, budget, commit=commit)
        assert stopped == committed_prefix(full, commit)
        assert walk_is_valid(lin, full)
        assert full.distance == budget
        assert replay_alignment(full.cigar, pattern,
                                full.reference) == budget

    @pytest.mark.parametrize("successors_of_3,k,cigar,path", [
        ((5,), 0, "8=", (0, 1, 2, 3, 5, 6, 7, 8)),
        ((), 4, "4=4I", (0, 1, 2, 3)),
        ((6, 9), 0, "8=", (0, 1, 2, 3, 6, 7, 8, 9)),
    ], ids=["skip-source", "dead-end", "hops-only"])
    def test_run_does_not_continue_past_a_hop_source(
            self, successors_of_3, k, cigar, path):
        """Trap: a homopolymer whose straight text matches the read
        past position 3, where the graph skips 4 or ends.  A jump not
        bounded by the hop source walks 3 -> 4."""
        n = 12
        successors = [(i + 1,) for i in range(n - 1)] + [()]
        successors[3] = successors_of_3
        lin = LinearizedGraph(chars="A" * n, successors=successors,
                              node_ids=list(range(n)),
                              node_offsets=[0] * n)
        result = bitalign(lin, "A" * 8, k, anchors=[0])
        assert (str(result.cigar), result.path) == (cigar, path)
        assert result == oracle_bitalign(lin, "A" * 8, k, [0])
        assert walk_is_valid(lin, result)

    def test_stop_inside_a_run_and_at_a_deletion(self):
        """The stop splits a run and drops the deletions after the
        commit point, as the windowed aligner's commit does."""
        lin = chain("ACGTTTACGTAC")
        full = bitalign(lin, "ACGTACGTAC", 2, anchors=[0])
        assert str(full.cigar) == "4=2D6="
        for commit in range(1, 11):
            stopped = bitalign(lin, "ACGTACGTAC", 2, anchors=[0],
                               commit=commit)
            assert stopped == committed_prefix(full, commit)
        assert str(bitalign(lin, "ACGTACGTAC", 2, anchors=[0],
                            commit=4).cigar) == "4="
        with pytest.raises(ValueError, match="commit"):
            bitalign(lin, "ACGT", 2, commit=0)


class TestHopSweep:
    """The hop sweep's per-source table lookups against the row-major
    oracle where sources overlap in the array."""

    def window(self):
        n = 40
        successors = [(i + 1,) for i in range(n - 1)] + [()]
        # Two same-distance sources two positions apart: with k >= 2
        # both sit in the array at once.
        successors[5] = (6, 8)
        successors[7] = (8, 10)
        successors[12] = (15,)            # skip source
        successors[13] = (14, 16)
        successors[20] = ()               # mid-window dead end
        successors[24] = (25, 27, 31)
        successors[26] = (27, 29)
        rng = random.Random(5)
        return LinearizedGraph(
            chars="".join(rng.choice("ACGT") for _ in range(n)),
            successors=successors, node_ids=list(range(n)),
            node_offsets=[0] * n)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 20])
    @pytest.mark.parametrize("m", [1, 5, 17, 40])
    def test_overlapping_sources_match_the_oracle(self, k, m):
        lin = self.window()
        rng = random.Random(k * 64 + m)
        for pattern in (lin.chars[3:3 + m],
                        "".join(rng.choice("ACGT") for _ in range(m)),
                        planted_read(rng, lin, 4, m, 2) or "A"):
            assert list(generate_bitvectors(lin, pattern, k)) == \
                reference_bitvectors(lin, pattern, k), (pattern, k)
            assert bitalign(lin, pattern, k) == \
                oracle_bitalign(lin, pattern, k)
