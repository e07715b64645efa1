"""Tests for the divide-and-conquer windowed aligner."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.dp_graph import graph_distance
from repro.core import windows
from repro.core.alignment import replay_alignment
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.pipeline import PipelineStats
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.graph.builder import build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import LinearizedGraph, linearize
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


def chain(text: str):
    return linearize(GenomeGraph.from_linear(text, node_length=64))


class TestConfig:
    def test_defaults_match_paper_geometry(self):
        config = WindowingConfig()
        assert config.window_size == 128
        assert config.overlap == 48  # 3W/8

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowingConfig(window_size=1)
        with pytest.raises(ValueError):
            WindowingConfig(window_size=64, overlap=64)
        with pytest.raises(ValueError):
            WindowingConfig(k=0)


class TestWindowCount:
    def test_paper_window_counts(self):
        """Section 11.3: 10 kbp needs 250 windows at W=64 and 125 at
        W=128."""
        genasm = WindowedAligner(WindowingConfig(window_size=64,
                                                 overlap=24))
        bitalign = WindowedAligner(WindowingConfig(window_size=128,
                                                   overlap=48))
        assert genasm.window_count(10_000) == 250
        assert bitalign.window_count(10_000) == 125

    def test_short_read_single_window(self):
        aligner = WindowedAligner(WindowingConfig())
        assert aligner.window_count(100) == 1
        assert aligner.window_count(128) == 1
        assert aligner.window_count(129) == 2

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            WindowedAligner().window_count(0)


class TestShortReads:
    """Reads within one window must be optimal (no heuristic loss)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_single_window_equals_dp(self, seed):
        rng = random.Random(seed)
        text = random_reference(rng.randint(30, 200), rng)
        lin = chain(text)
        start = rng.randint(0, max(0, len(text) - 40))
        read = text[start:start + rng.randint(5, 40)]
        chars = list(read)
        for _ in range(rng.randint(0, 3)):
            chars[rng.randrange(len(chars))] = rng.choice("ACGT")
        read = "".join(chars)
        aligner = WindowedAligner(WindowingConfig(window_size=128,
                                                  overlap=48, k=16))
        result = aligner.align(lin, read)
        dp, _ = graph_distance(lin, read)
        assert result.distance == dp
        assert replay_alignment(result.cigar, read, result.reference) == dp
        assert result.windows == 1


class TestLongReads:
    def test_exact_long_read_aligns_perfectly(self):
        rng = random.Random(7)
        text = random_reference(3_000, rng)
        lin = chain(text)
        read = text[200:2_200]
        aligner = WindowedAligner(WindowingConfig(k=16))
        result = aligner.align(lin, read)
        assert result.distance == 0
        assert result.windows == \
            WindowedAligner(WindowingConfig()).window_count(len(read))

    def test_noisy_long_read_stays_near_optimal(self):
        rng = random.Random(11)
        text = random_reference(4_000, rng)
        lin = chain(text)
        fragment = text[500:2_500]
        read, errors = apply_errors(fragment, ErrorModel.pacbio(0.05), rng)
        aligner = WindowedAligner(WindowingConfig(k=32))
        result = aligner.align(lin, read)
        assert replay_alignment(result.cigar, read, result.reference) == \
            result.distance
        # The windowed heuristic may lose a little vs the channel's
        # error count, but must stay in its vicinity.
        assert result.distance <= int(errors * 1.3) + 5

    def test_path_follows_graph_edges_on_variant_graph(self):
        rng = random.Random(13)
        reference = random_reference(2_000, rng)
        profile = VariantProfile(
            snp_rate=0.01, insertion_rate=0.003, deletion_rate=0.003,
            sv_rate=0.0,
        )
        variants = simulate_variants(reference, rng, profile)
        built = build_graph(reference, variants)
        lin = linearize(built.graph)
        fragment = reference[300:1_500]
        read, _ = apply_errors(fragment, ErrorModel.nanopore(0.08), rng)
        result = WindowedAligner(WindowingConfig(k=32)).align(lin, read)
        assert replay_alignment(result.cigar, read, result.reference) == \
            result.distance
        for src, dst in zip(result.path, result.path[1:]):
            assert dst in lin.successors[src]

    def test_read_overhanging_graph_end_gets_insertions(self):
        lin = chain("ACGTACGT")
        aligner = WindowedAligner(WindowingConfig(window_size=8,
                                                  overlap=2, k=4))
        result = aligner.align(lin, "ACGTACGTTTTT")
        assert result.cigar.insertions >= 4
        assert replay_alignment(result.cigar, "ACGTACGTTTTT",
                                result.reference) == result.distance

    def test_rescue_on_error_burst(self):
        rng = random.Random(17)
        text = random_reference(1_000, rng)
        lin = chain(text)
        # Insert a 30-base garbage burst into an otherwise exact read.
        fragment = text[100:700]
        burst = "".join(rng.choice("ACGT") for _ in range(30))
        read = fragment[:300] + burst + fragment[300:]
        aligner = WindowedAligner(WindowingConfig(k=8))
        result = aligner.align(lin, read)
        assert replay_alignment(result.cigar, read, result.reference) == \
            result.distance
        # The burst exceeds k=8 in its window; a rescue must trigger.
        assert result.rescues >= 1

    def test_empty_read_rejected(self):
        with pytest.raises(ValueError):
            WindowedAligner().align(chain("ACGT"), "")


class TestAnchoredAlignment:
    """The seed-anchored (left+right extension) mode of the mapper."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_exact_read_anchored_mid_read_is_exact(self, seed):
        """Anchoring anywhere inside an exact read must still produce
        a zero-distance alignment (left extension via the reversed
        graph, right extension forward)."""
        rng = random.Random(seed)
        text = random_reference(rng.randint(400, 1_200), rng)
        lin = chain(text)
        start = rng.randint(0, len(text) - 300)
        read = text[start:start + 300]
        anchor_read = rng.randint(0, len(read) - 1)
        aligner = WindowedAligner(WindowingConfig(window_size=128,
                                                  overlap=48, k=16))
        result = aligner.align(lin, read,
                               anchor=(start + anchor_read,
                                       anchor_read))
        assert result.distance == 0
        assert result.path[0] == start
        assert replay_alignment(result.cigar, read, result.reference) \
            == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_anchored_path_is_contiguous_walk(self, seed):
        rng = random.Random(seed)
        reference = random_reference(600, rng)
        profile = VariantProfile(snp_rate=0.02, insertion_rate=0.005,
                                 deletion_rate=0.005, sv_rate=0.0,
                                 small_indel_max=3)
        variants = simulate_variants(reference, rng, profile)
        built = build_graph(reference, variants)
        lin = linearize(built.graph)
        start = rng.randint(50, 250)
        fragment = reference[start:start + 200]
        read, _ = apply_errors(fragment, ErrorModel.illumina(0.02),
                               rng)
        if len(read) < 40:
            return
        anchor_read = len(read) // 2
        # Find the linearized position of the fragment's middle: use
        # an exact k-mer search over the linearized characters of the
        # backbone region (simulating what a seed provides).
        kmer = read[anchor_read:anchor_read + 15]
        if len(kmer) < 15:
            return
        anchor_pos = lin.chars.find(kmer)
        if anchor_pos < 0 or lin.chars[anchor_pos] != read[anchor_read]:
            return
        aligner = WindowedAligner(WindowingConfig(window_size=128,
                                                  overlap=48, k=16))
        result = aligner.align(lin, read,
                               anchor=(anchor_pos, anchor_read))
        assert replay_alignment(result.cigar, read, result.reference) \
            == result.distance
        for src, dst in zip(result.path, result.path[1:]):
            assert dst in lin.successors[src]

    def test_anchor_validation(self):
        lin = chain("ACGTACGT")
        aligner = WindowedAligner(WindowingConfig(window_size=8,
                                                  overlap=2, k=4))
        with pytest.raises(ValueError):
            aligner.align(lin, "ACGT", anchor=(99, 0))
        with pytest.raises(ValueError):
            aligner.align(lin, "ACGT", anchor=(0, 99))

    def test_anchor_at_read_start_no_left_extension(self):
        text = "ACGTACGTACGTACGT"
        lin = chain(text)
        aligner = WindowedAligner(WindowingConfig(window_size=8,
                                                  overlap=2, k=4))
        result = aligner.align(lin, text[4:12], anchor=(4, 0))
        assert result.distance == 0
        assert result.path[0] == 4

    def test_anchor_at_graph_source_left_extension_inserts(self):
        """A read whose prefix hangs off the left edge of the region
        gets leading insertions from the reversed-graph dead end."""
        text = "ACGTACGT"
        lin = chain(text)
        aligner = WindowedAligner(WindowingConfig(window_size=8,
                                                  overlap=2, k=4))
        read = "TTT" + text[0:5]
        result = aligner.align(lin, read, anchor=(0, 3))
        assert result.cigar.insertions >= 3
        assert replay_alignment(result.cigar, read, result.reference) \
            == result.distance


def _is_stretch_of(part, full) -> bool:
    """Whether ``part``'s operations and path are a contiguous stretch
    of ``full``'s, starting at read position ``part.read_start``."""
    ops, whole = part.cigar.expand(), full.cigar.expand()
    read_at = path_at = 0
    for index, op in enumerate(whole + " "):
        if read_at == part.read_start \
                and whole[index:index + len(ops)] == ops \
                and full.path[path_at:path_at + len(part.path)] \
                == part.path:
            return True
        read_at += op in "=XI"
        path_at += op in "=XD"
    return False


class TestBoundedExtension:
    """``align(budget=b)`` is abandoned exactly when the unbounded
    distance exceeds ``b``, is otherwise the unbounded alignment
    itself, and its operations are always a stretch of it."""

    @staticmethod
    def _case(seed: int):
        """A chain or variant graph and a noisy multi-window read,
        anchored mid-read by an exact 12-mer when one exists."""
        rng = random.Random(seed)
        text = random_reference(rng.randint(300, 700), rng)
        if rng.random() < 0.5:
            lin = chain(text)
        else:
            variants = simulate_variants(text, rng, VariantProfile(
                snp_rate=0.02, insertion_rate=0.01, deletion_rate=0.01,
                sv_rate=0.0, small_indel_max=4))
            lin = linearize(build_graph(text, variants).graph)
        start = rng.randint(0, 100)
        read, _ = apply_errors(text[start:start + rng.randint(80, 240)],
                               ErrorModel.pacbio(rng.choice((0.04, 0.1))),
                               rng)
        anchor = next(
            ((lin.chars.find(read[offset:offset + 12]), offset)
             for offset in range(len(read) // 3, len(read) - 12)
             if read[offset:offset + 12] in lin.chars), None)
        return lin, read, anchor

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_budget_is_exact(self, seed):
        from repro.core.pipeline import PipelineStats

        lin, read, anchor = self._case(seed)
        # Small windows and k: many windows, and rescues on bursts.
        aligner = WindowedAligner(WindowingConfig(window_size=32,
                                                  overlap=12, k=4))
        free = PipelineStats()
        full = aligner.align(lin, read, anchor, counters=free)
        assert not full.abandoned and full.read_start == 0
        distance = full.distance
        for budget in sorted({0, 1, distance // 2, distance - 1,
                              distance, distance + 1, distance + 5}):
            if budget < 0:
                continue
            bounded = _Recording()
            result = aligner.align(lin, read, anchor, counters=bounded,
                                   budget=budget)
            assert result.abandoned == (distance > budget)
            if not result.abandoned:
                assert result == full
            else:
                assert budget < result.distance <= distance
                assert _is_stretch_of(result, full)
                # It stopped at the first window that took it over:
                # the ops before that window's are within budget.
                # The last window ran in the left extension when any
                # ran (its ops lead the CIGAR), else in the right one.
                ops, last = result.cigar.expand(), bounded.calls[-1][-1]
                before = ops[last:] \
                    if result.read_start < (anchor or (0, 0))[1] \
                    else ops[:-last]
                if not result.dead_end_insertions:
                    assert sum(op != "=" for op in before) <= budget
            assert bounded.align_calls <= free.align_calls
            assert bounded.windows <= free.windows
            assert bounded.rescues <= free.rescues

    def test_cases_cover_both_extensions_and_rescues(self):
        """The generator reaches what the property needs: anchors with
        edits on both sides, and rescued windows."""
        aligner = WindowedAligner(WindowingConfig(window_size=32,
                                                  overlap=12, k=4))
        both_sides = rescued = 0
        for seed in range(40):
            lin, read, anchor = self._case(seed)
            full = aligner.align(lin, read, anchor)
            rescued += full.rescues > 0
            if anchor is None:
                continue
            # The left extension's ops come first and consume exactly
            # the read before the anchor.
            consumed = left_edits = 0
            for op in full.cigar.expand():
                if consumed == anchor[1]:
                    break
                left_edits += op != "="
                consumed += op in "=XI"
            both_sides += 0 < left_edits < full.distance
        assert both_sides >= 5 and rescued >= 5


class TestAlignMany:
    """``align_many`` is ``align`` per item: every item's result is
    that of ``align`` on it alone, whatever else is in the batch."""

    @pytest.fixture(scope="class")
    def items(self):
        """Reads of 1, 3 and 6+ windows over a chain region and a
        hop-bearing one, each un-anchored and anchored mid-read."""
        rng = random.Random(29)
        text = random_reference(1_500, rng)
        variants = simulate_variants(text, rng, VariantProfile(
            snp_rate=0.02, insertion_rate=0.005, deletion_rate=0.005,
            sv_rate=0.0, small_indel_max=3))
        chain_lin = chain(text)
        hop_lin = linearize(build_graph(text, variants).graph)
        assert chain_lin.is_chain() and not hop_lin.is_chain()
        items = []
        for lin in (chain_lin, hop_lin):
            for start, length in ((100, 90), (400, 260), (700, 600)):
                read, _ = apply_errors(text[start:start + length],
                                       ErrorModel.illumina(0.03), rng)
                # What a seed provides: an exact 15-mer of the read
                # located in the region.
                anchor = next(
                    (lin.chars.find(read[offset:offset + 15]), offset)
                    for offset in range(len(read) // 2, len(read) - 15)
                    if read[offset:offset + 15] in lin.chars)
                items.append((lin, read, None))
                items.append((lin, read, anchor))
        return items

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_equals_per_item_align(self, items, backend):
        """The aligner an engine builds, under either name the ignored
        ``align_backend`` field accepts."""
        config = SeGraMConfig(
            windowing=WindowingConfig(window_size=128, overlap=48, k=16),
            align_backend=backend)
        aligner = SeGraM.from_reference(
            random_reference(500, random.Random(5)),
            config=config).aligner
        assert isinstance(aligner, WindowedAligner)
        batched = aligner.align_many(items)
        assert batched == [aligner.align(*item) for item in items]
        # Membership-independent: a sub-batch gives the same answers.
        assert aligner.align_many(items[::3]) == batched[::3]
        assert max(result.windows for result in batched) >= 6
        assert aligner.align_many([]) == []

    def test_batch_shares_no_dispatches(self, items):
        """Nothing is shared: ``align_calls + windows_exact == windows
        + rescues``, together or alone."""
        from repro.core.pipeline import PipelineStats

        aligner = WindowedAligner(
            WindowingConfig(window_size=128, overlap=48, k=16))
        together, alone = PipelineStats(), PipelineStats()
        batched = aligner.align_many(items, counters=together)
        for item in items:
            aligner.align(*item, counters=alone)
        attempts = sum(r.windows + r.rescues for r in batched)
        assert (together.align_calls, together.windows_exact) \
            == (alone.align_calls, alone.windows_exact)
        assert together.windows_exact > 0
        assert together.align_calls + together.windows_exact \
            == attempts


@dataclass
class _Recording(PipelineStats):
    """:class:`PipelineStats` that also logs every window attempt as
    ``(base, end, chunk_length, k, ops)``."""

    calls: list = field(default_factory=list)

    def window(self, lin, base, end, chunk_length, k, ops, kernel):
        self.calls.append((base, end, chunk_length, k, ops))
        super().window(lin, base, end, chunk_length, k, ops, kernel)


def _run_recorded(aligner, lin, read, anchor, budget=None):
    """``align`` with recording counters attached: the result, the
    logged window attempts and the counters."""
    stats = _Recording()
    result = aligner.align(lin, read, anchor, counters=stats,
                           budget=budget)
    return result, stats.calls, stats


def _run_without_rung(aligner, lin, read, anchor, budget=None):
    """The same call with rungs 0–2 disabled: every window runs the
    kernel."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(windows, "_hamming_rung", lambda *args: None)
        return _run_recorded(aligner, lin, read, anchor, budget)


def _hamming(chunk: str, text: str) -> int:
    return sum(a != b for a, b in zip(chunk, text))


def _planted_hops(text: str, rng: random.Random):
    """A chain over ``text`` with random forward hops of 2–16
    characters, some of which replace the edge to the next character:
    hop sources inside and at the edge of any stretch, with targets
    inside and outside its kernel window."""
    hops: dict[int, tuple[int, ...]] = {len(text) - 1: ()}
    for source in rng.sample(range(len(text) - 2), len(text) // 25):
        targets = {source + rng.randint(2, 16)
                   for _ in range(rng.randint(1, 2))}
        if rng.random() < 0.8:
            targets.add(source + 1)
        succs = tuple(sorted(t for t in targets if t < len(text)))
        if succs != (source + 1,):
            hops[source] = succs
    starts = sorted({0} | {p + 1 for p in hops if p + 1 < len(text)})
    return LinearizedGraph.from_hops(text, hops, starts)


class TestExactWindows:
    """Rungs 0–2 (a window within Hamming distance 2 of the hop-free
    text from its one anchor commits its ``=`` / ``X`` run without the
    kernel) against the same ``align`` with every rung disabled: the
    result, the logged window attempts, windows, rescues and
    ``align_calls + windows_exact`` are equal."""

    CONFIG = WindowingConfig(window_size=32, overlap=12, k=4)
    #: k = 1: a window at Hamming distance 2 is a rescue, not a rung.
    TIGHT = WindowingConfig(window_size=32, overlap=12, k=1)

    @staticmethod
    def _case(seed: int):
        """A graph — a chain, a bubble graph from ``simulate_variants``
        or a chain with planted hops, named by the returned ``shape`` —
        and a read with exact windows, windows with 1–2 substitutions, single
        indels and indels beside a substitution (near a chunk end,
        Hamming 2 where one indel aligns) and 1–3-edit clusters.  The
        read is a graph walk, or — to put ``chars[base:base + m]``
        across a non-edge — the linearization order itself, sometimes
        running into the region end; anchored (mid-read, so both
        extensions run) or not — un-anchored ones mostly from position
        0, where an anchor-blind rung would take the first window.
        One case in five runs at k = 1.  Returns ``(shape, lin, read,
        anchor, budget, config)``."""
        rng = random.Random(seed)
        text = random_reference(rng.randint(200, 500), rng)
        draw = rng.random()
        if draw < 0.25:
            shape, lin = "chain", chain(text)
        elif draw < 0.75:
            variants = simulate_variants(text, rng, VariantProfile(
                snp_rate=0.03, insertion_rate=0.01, deletion_rate=0.01,
                sv_rate=0.0, small_indel_max=4))
            shape = "bubble"
            lin = linearize(build_graph(text, variants).graph)
        else:
            shape, lin = "hops", _planted_hops(text, rng)
        anchored = rng.random() < 0.7
        at_zero = rng.random() < (0.1 if anchored else 0.6)
        length = rng.randint(40, 160)
        if rng.random() < 0.2:
            first = max(0, len(lin) - length + rng.randint(-4, 8))
        else:
            first = 0 if at_zero else rng.randrange(len(lin) // 2)
        path = [first]
        straight = rng.random() < 0.4
        while len(path) < length:
            succs = lin.successors_of(path[-1])
            if straight and path[-1] + 1 < len(lin):
                path.append(path[-1] + 1)
            elif succs:
                path.append(rng.choice(succs))
            else:
                break
        edits: dict[int, str] = {}
        # Per commit step (20 characters), one planted pattern.
        for block in range(0, len(path), 20):
            plant = rng.choice(("", "", "S", "SS", "indel",
                                "S+indel", "cluster"))
            spots = sorted(rng.sample(range(block, block + 20), 2))
            if plant == "S":
                edits[spots[0]] = "S"
            elif plant == "indel":
                edits[spots[0]] = rng.choice("DI")
            elif plant == "SS":
                edits.update(dict.fromkeys(spots, "S"))
            elif plant == "S+indel":
                edits[spots[0]] = "S"
                edits[spots[0] + 1] = rng.choice("DI")
            elif plant == "cluster":
                edits.update({at: rng.choice("SDI") for at in
                              rng.sample(range(block, block + 32),
                                         rng.randint(1, 3))})
        read: list[str] = []
        matched = []
        for index, position in enumerate(path):
            char = lin.chars[position]
            op = edits.get(index, "=")
            if op == "S":
                read.append(rng.choice([c for c in "ACGT" if c != char]))
                continue
            if op == "D":
                continue
            if op == "I":
                read.append(rng.choice("ACGT"))
            matched.append((position, len(read)))
            read.append(char)
        anchor = rng.choice(matched) if anchored else None
        budget = rng.choice((None, None, 0, 2, 6))
        config = TestExactWindows.TIGHT if rng.random() < 0.2 \
            else TestExactWindows.CONFIG
        return shape, lin, "".join(read), anchor, budget, config

    @staticmethod
    def _assert_rung_equals_kernel(lin, read, anchor, budget, config):
        aligner = WindowedAligner(config)
        got, calls, stats = _run_recorded(aligner, lin, read, anchor,
                                          budget)
        want, want_calls, want_stats = _run_without_rung(
            aligner, lin, read, anchor, budget)
        assert got == want
        assert calls == want_calls
        assert (stats.windows, stats.rescues) \
            == (want_stats.windows, want_stats.rescues)
        assert want_stats.windows_exact == 0
        assert stats.align_calls + stats.windows_exact \
            == want_stats.align_calls
        return got, stats

    # The example count comes from the hypothesis profile (tier-1 or
    # ``--hypothesis-profile=deep``, see ``conftest.py``).
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_rung_equals_kernel(self, seed):
        _, *case = self._case(seed)
        self._assert_rung_equals_kernel(*case)

    def test_cases_reach_the_rung(self):
        """The generator exercises what the property needs: rungs 0, 1
        and 2 in the right extension and in the left one (the reversed
        view); rungs on ``simulate_variants`` bubble graphs, where a
        SNP's ref and alt sit side by side as a non-edge (Hamming 1/2
        ones among them), and on chains with planted hops; Hamming-0
        windows the hop-free check turns away; Hamming-1/2 windows
        whose slice is a chain but whose tables hold a hop (the trap);
        Hamming-2 windows one indel aligns; Hamming-2 windows at k = 1;
        windows too close to the region end; and un-anchored first
        windows that would pass everything but the anchor check."""
        rung = windows._hamming_rung
        seen = dict.fromkeys(
            ("h0_right", "h0_left", "h1_right", "h1_left", "h2_right",
             "h2_left", "bubble", "bubble_hamming", "hops",
             "hop_refused", "trap_refused",
             "indel_refused", "k_capped", "end_refused", "unanchored"),
            0)
        for seed in range(300):
            shape, lin, read, anchor, _, config = self._case(seed)

            def spy(window_lin, chunk, anchors, base, k):
                verdict = rung(window_lin, chunk, anchors, base, k)
                m = len(chunk)
                h = _hamming(chunk, window_lin.chars[base:base + m])
                if verdict is not None:
                    side = "right" if window_lin is lin else "left"
                    seen[f"h{len(verdict)}_{side}"] += 1
                    if shape == "bubble" and not lin.is_chain():
                        seen["bubble"] += 1
                        seen["bubble_hamming"] += len(verdict) > 0
                    seen["hops"] += shape == "hops"
                elif anchors is None:
                    seen["unanchored"] += rung(
                        window_lin, chunk, [base], base, k) is not None
                elif len(anchors) != 1 or base + m > len(window_lin):
                    pass
                elif h == 0:
                    seen["hop_refused"] += 1
                elif h > 2:
                    pass
                elif base + m + h + 1 > len(window_lin):
                    seen["end_refused"] += 1
                elif h > k:
                    seen["k_capped"] += 1
                elif not window_lin.is_straight(base, base + m + h + 1):
                    seen["trap_refused"] += window_lin.slice(
                        base, base + m + h + 1).is_chain()
                else:
                    seen["indel_refused"] += 1
                return verdict

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(windows, "_hamming_rung", spy)
                WindowedAligner(config).align(lin, read, anchor)
        assert min(seen.values()) >= 3, sorted(seen.items())

    # Named traps: each is a window where the kernel's answer is not
    # the Hamming run, so a rung that took it would break parity.

    @staticmethod
    def _trap_text(base: int, m: int) -> list[str]:
        """A 60-character text whose characters around ``base + m``
        all differ from their neighbours."""
        text = list(random_reference(60, random.Random(7)))
        for at in range(base + m - 4, base + m + 5):
            text[at] = "ACGT"[("ACGT".index(text[at - 1]) + 1 + at % 3)
                              % 4]
        return text

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_hop_leaving_the_stretch(self, side):
        """The slice ``[base, base + m + h + 1)`` is a chain, but
        position ``base + m − 2`` also hops to ``base + m + 3``, inside
        the kernel window: the read spells that walk exactly, one
        substitution away from the straight text.  Only the check in
        the tables refuses the rung (the left case puts the hop on the
        reversed view)."""
        base, m = 10, 20
        text = self._trap_text(base, m)
        text[base + m + 3] = next(c for c in "ACGT"
                                  if c != text[base + m - 1])
        text = "".join(text)
        source, target = base + m - 2, base + m + 3
        trap = LinearizedGraph.from_hops(
            text, {source: (source + 1, target), len(text) - 1: ()},
            [0, source + 1, target])
        chunk = text[base:base + m - 1] + text[target]
        assert _hamming(chunk, text[base:base + m]) == 1
        assert trap.slice(base, base + m + 2).is_chain()
        if side == "right":
            lin, read, anchor = trap, chunk, (base, 0)
        else:
            lin = trap.reversed_view()
            at = len(text) - base
            read, anchor = chunk[::-1] + lin.chars[at], (at, m)
        got, stats = self._assert_rung_equals_kernel(
            lin, read, anchor, None, self.CONFIG)
        assert got.distance == 0
        assert stats.align_calls >= 1

    @pytest.mark.parametrize("indel", ["D", "I"])
    def test_single_indel_beside_a_substitution(self, indel):
        """An indel two characters before the chunk end shifts the last
        two: Hamming distance 2 from the straight text, but one edit
        (``D`` or ``I``) aligns it, so the kernel answers at budget 1."""
        base, m = 10, 20
        text = "".join(self._trap_text(base, m))
        if indel == "D":
            chunk = text[base:base + m - 2] + text[base + m - 1:base + m + 1]
        else:
            inserted = next(c for c in "ACGT"
                            if c != text[base + m - 2])
            chunk = text[base:base + m - 2] + inserted \
                + text[base + m - 2]
        assert _hamming(chunk, text[base:base + m]) == 2
        got, stats = self._assert_rung_equals_kernel(
            chain(text), chunk, (base, 0), None, self.CONFIG)
        assert got.distance == 1 and indel in str(got.cigar)
        assert stats.windows_exact == 0

    def test_three_mismatches_stay_with_the_kernel(self):
        """Hamming distance 3 — a substitution plus the shifted tail of
        a deletion — but two edits align the chunk: h = 3 is beyond
        the rungs, whatever the indel test says."""
        base, m = 10, 20
        text = self._trap_text(base, m)
        chunk = list(text[base:base + m - 2]
                     + text[base + m - 1:base + m + 1])
        chunk[3] = next(c for c in "ACGT" if c != chunk[3])
        text, chunk = "".join(text), "".join(chunk)
        assert _hamming(chunk, text[base:base + m]) == 3
        got, stats = self._assert_rung_equals_kernel(
            chain(text), chunk, (base, 0), None, self.CONFIG)
        assert got.distance == 2 and stats.windows_exact == 0

    def test_two_mismatches_at_k1_are_a_rescue(self):
        """At k = 1 a Hamming-2 window fails the first kernel attempt
        and is rescued at k = 2; the rung must leave it to the kernel,
        whose logged attempts say so."""
        base, m = 10, 20
        text = "".join(self._trap_text(base, m))
        chunk = list(text[base:base + m])
        for at in (4, 12):
            chunk[at] = next(c for c in "ACGT" if c != chunk[at])
        got, stats = self._assert_rung_equals_kernel(
            chain(text), "".join(chunk), (base, 0), None, self.TIGHT)
        assert got.distance == 2 and stats.rescues == 1

    @pytest.mark.parametrize("tail, cut, rung", [
        (3, False, True), (2, False, False), (2, True, True)],
        ids=["end-rung", "end-kernel", "cut-rung"])
    def test_region_end_bound(self, tail, cut, rung):
        """At h = 1 the straight text must run through ``base + m + 1``
        and on to its one successor, in the whole linearization.  On a
        chain of ``base + m + 3`` characters an anchored chunk with one
        mismatch is the rung's; one character shorter, ``base + m + 1``
        is the graph's last position, with no successor, and the window
        goes to the kernel.  A region of that length cut from a longer
        chain still ends on a straight position, so the rung takes
        it: the region-end guard is ``base + m + 2 > len(lin)``, not
        ``>=``."""
        base, m = 10, 20
        text = random_reference(base + m + tail + 5 * cut,
                                random.Random(5))
        lin = chain(text).slice(0, base + m + tail)
        chunk = list(text[base:base + m])
        chunk[7] = next(c for c in "ACGT" if c != chunk[7])
        got, stats = self._assert_rung_equals_kernel(
            lin, "".join(chunk), (base, 0), None, self.CONFIG)
        assert got.distance == 1
        if rung:
            assert (stats.windows_exact, stats.align_calls) == (1, 0)
        else:
            assert stats.windows_exact == 0 and stats.align_calls >= 1

    def test_witness_across_a_non_edge(self):
        """A SNP bubble linearizes as prefix, ref, alt, suffix: ``chars``
        runs ref → alt, which is no edge.  A chunk spelling that run
        from a single anchor passes the string compare, and only the
        hop-free check keeps the rung from committing a path that is
        not a walk."""
        graph = GenomeGraph()
        prefix, ref, alt, suffix = (graph.add_node(sequence) for sequence
                                    in ("ACGTAC", "G", "T", "CATTGA"))
        for src, dst in ((prefix, ref), (prefix, alt), (ref, suffix),
                         (alt, suffix)):
            graph.add_edge(src, dst)
        lin = linearize(graph)
        assert lin.chars == "ACGTACGTCATTGA" and 7 not in lin.successors[6]
        read = lin.chars[:10]
        # One window, so the whole run would be committed.
        aligner = WindowedAligner(WindowingConfig(window_size=16,
                                                  overlap=4, k=3))
        got, calls, stats = _run_recorded(aligner, lin, read, (0, 0))
        assert (got, calls) == _run_without_rung(aligner, lin, read,
                                                  (0, 0))[:2]
        assert got.distance == 1 and stats.windows_exact == 0
        for src, dst in zip(got.path, got.path[1:]):
            assert dst in lin.successors[src]
