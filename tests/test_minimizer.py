"""Tests for <w,k>-minimizer extraction."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import seq
from repro.index import minimizer as minimizer_module
from repro.index.minimizer import (
    brute_force_minimizers,
    expected_density,
    invertible_hash,
    kmer_at,
    minimizers,
    scan_minimizers,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)
params = st.tuples(
    dna,
    st.integers(min_value=1, max_value=12),   # w
    st.integers(min_value=1, max_value=8),    # k
)


class TestPaperExample:
    def test_fig8_lexicographic_minimizer(self):
        # Paper Fig. 8: sequence AGTAGCA, <5,3>-minimizers, first window
        # holds AGT, GTA, TAG, AGC, GCA; lexicographically smallest is
        # AGC at position 3.
        found = minimizers("AGTAGCA", w=5, k=3, scoring="lex")
        assert len(found) == 1
        assert found[0].position == 3
        assert kmer_at("AGTAGCA", 3, 3) == found[0].kmer


class TestSingleLoopEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(params)
    def test_matches_brute_force(self, args):
        sequence, w, k = args
        fast = minimizers(sequence, w=w, k=k)
        slow = brute_force_minimizers(sequence, w=w, k=k)
        assert fast == slow

    @settings(max_examples=100, deadline=None)
    @given(params)
    def test_matches_brute_force_lex(self, args):
        sequence, w, k = args
        assert minimizers(sequence, w=w, k=k, scoring="lex") == \
            brute_force_minimizers(sequence, w=w, k=k, scoring="lex")


@st.composite
def scan_batches(draw):
    """``(sequences, w, k, scoring, block)``: lengths 0 … 3·(w+k), so
    shorter than k, than w+k−1 and longer than a window all occur; N
    runs at either end (next to what is a separator in the batch
    text) and scattered; blocks far smaller than the batch."""
    w = draw(st.sampled_from([1, 5, 10, 19]))
    k = draw(st.sampled_from([1, 3, 15, 31, 32]))
    sequence = st.builds(
        lambda head, body, tail: "N" * head + body + "N" * tail,
        st.integers(0, 3), st.text("ACGTacgtN", max_size=3 * (w + k)),
        st.integers(0, 3))
    return (draw(st.lists(sequence, max_size=6)), w, k,
            draw(st.sampled_from(["hash", "lex"])),
            draw(st.sampled_from([5, 23, 64, 1 << 15])))


def _as_tuples(found):
    return [(m.position, m.score, m.kmer) for m in found]


class TestBatchScan:
    """``scan_minimizers`` against the nested-loop oracle."""

    @settings(max_examples=400, deadline=None)
    @given(scan_batches())
    def test_matches_brute_force_per_sequence(self, args):
        sequences, w, k, scoring, block = args
        with mock.patch.object(minimizer_module, "SCAN_BLOCK_BASES",
                               block):
            scan = scan_minimizers(sequences, w, k, scoring)
        assert len(scan.bounds) == len(sequences) + 1
        assert scan.owners.tolist() == [
            i for i in range(len(sequences))
            for _ in range(scan.bounds[i], scan.bounds[i + 1])]
        for i, sequence in enumerate(sequences):
            lo, hi = scan.bounds[i], scan.bounds[i + 1]
            assert list(zip(scan.positions[lo:hi].tolist(),
                            scan.scores[lo:hi].tolist(),
                            scan.kmers[lo:hi].tolist())) == _as_tuples(
                brute_force_minimizers(sequence.upper(), w, k, scoring))

    @settings(max_examples=100, deadline=None)
    @given(scan_batches())
    def test_batch_of_one_is_minimizers(self, args):
        sequences, w, k, scoring, _ = args
        for sequence in sequences:
            scan = scan_minimizers([sequence], w, k, scoring)
            assert _as_tuples(minimizers(sequence, w, k, scoring)) == \
                list(zip(scan.positions.tolist(), scan.scores.tolist(),
                         scan.kmers.tolist()))

    @settings(max_examples=100, deadline=None)
    @given(scan_batches(), st.sampled_from("X-*\n\xff\u0141"),
           st.data())
    def test_garbage_names_its_sequence(self, args, garbage, data):
        sequences, w, k, scoring, block = args
        sequences = sequences + ["ACGT"]
        which = data.draw(st.integers(0, len(sequences) - 1))
        at = data.draw(st.integers(0, len(sequences[which])))
        sequences[which] = sequences[which][:at] + garbage \
            + sequences[which][at:]
        with mock.patch.object(minimizer_module, "SCAN_BLOCK_BASES",
                               block), \
                pytest.raises(seq.InvalidBaseError) as raised:
            scan_minimizers(sequences, w, k, scoring)
        assert f"sequence {which} " in str(raised.value)
        assert f"position {at}" in str(raised.value)

    def test_all_ones_score_beside_an_invalid_kmer(self):
        # k = 32 leaves no spare uint64 to mark "invalid": T*32 scores
        # 2^64 - 1 under lex and must still win its window from the
        # N-containing k-mer to its left.
        sequence = "N" + "T" * 33
        found = minimizers(sequence, w=2, k=32, scoring="lex")
        assert found == brute_force_minimizers(sequence, 2, 32, "lex")
        assert [m.position for m in found] == [1]
        assert found[0].score == 2**64 - 1

    def test_k_wider_than_the_index_row_rejected(self):
        # Fig. 6 rows hold a 64-bit hash: 2k <= 64.
        assert minimizers("ACGT" * 20, w=3, k=32)
        with pytest.raises(ValueError, match="k must be <= 32"):
            minimizers("ACGT" * 20, w=3, k=33)
        with pytest.raises(ValueError, match="k must be <= 32"):
            scan_minimizers([], w=3, k=33)

    def test_empty_batch(self):
        scan = scan_minimizers([], w=5, k=3)
        assert scan.bounds.tolist() == [0]
        assert len(scan.positions) == 0


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(params)
    def test_minimizers_sorted_and_unique(self, args):
        sequence, w, k = args
        found = minimizers(sequence, w=w, k=k)
        positions = [m.position for m in found]
        assert positions == sorted(set(positions))

    @settings(max_examples=100, deadline=None)
    @given(params)
    def test_every_window_contains_a_minimizer(self, args):
        sequence, w, k = args
        found = minimizers(sequence, w=w, k=k)
        num_kmers = len(sequence) - k + 1
        if num_kmers < 1:
            assert found == []
            return
        positions = {m.position for m in found}
        for start in range(max(1, num_kmers - w + 1)):
            window = set(range(start, min(start + w, num_kmers)))
            assert window & positions, f"window at {start} uncovered"

    def test_shared_substring_yields_shared_minimizer(self):
        # Minimizer guarantee: two sequences sharing an exact match of
        # >= w+k-1 bases share a minimizer (paper Section 6).
        rng = random.Random(5)
        core = "".join(rng.choice("ACGT") for _ in range(40))
        left = "".join(rng.choice("ACGT") for _ in range(20)) + core
        right = core + "".join(rng.choice("ACGT") for _ in range(20))
        w, k = 8, 10
        left_kmers = {m.kmer for m in minimizers(left, w=w, k=k)}
        right_kmers = {m.kmer for m in minimizers(right, w=w, k=k)}
        assert left_kmers & right_kmers

    def test_sequence_shorter_than_k(self):
        assert minimizers("ACG", w=4, k=5) == []

    def test_sequence_shorter_than_window(self):
        # Fewer than w k-mers: minimum over what exists.
        found = minimizers("ACGTA", w=10, k=3)
        assert len(found) == 1

    def test_w1_selects_every_kmer(self):
        sequence = "ACGTACGTAG"
        found = minimizers(sequence, w=1, k=3)
        assert len(found) == len(sequence) - 3 + 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            minimizers("ACGT", w=0, k=3)
        with pytest.raises(ValueError):
            minimizers("ACGT", w=2, k=0)
        with pytest.raises(ValueError):
            minimizers("ACGT", w=2, k=3, scoring="nope")


class TestHash:
    def test_invertible_hash_is_bijective_small(self):
        bits = 8
        images = {invertible_hash(x, bits) for x in range(1 << bits)}
        assert len(images) == 1 << bits

    def test_hash_stays_in_range(self):
        for x in [0, 1, 123456]:
            assert 0 <= invertible_hash(x, 30) < (1 << 30)


class TestDensity:
    def test_expected_density_formula(self):
        # Paper Section 6: index shrinks by a factor of 2/(w+1).
        assert expected_density(9) == pytest.approx(0.2)

    def test_observed_density_close_to_expected(self):
        rng = random.Random(11)
        sequence = "".join(rng.choice("ACGT") for _ in range(20_000))
        w, k = 9, 15
        found = minimizers(sequence, w=w, k=k)
        density = len(found) / (len(sequence) - k + 1)
        assert density == pytest.approx(expected_density(w), rel=0.15)


class TestAmbiguousBases:
    """K-mers containing N are skipped (the policy in repro.seq)."""

    def test_n_kmers_never_selected(self):
        sequence = "ACGTACGTACNGTACGTACGTACG"
        for minimizer in minimizers(sequence, w=4, k=5):
            kmer = sequence[minimizer.position:minimizer.position + 5]
            assert "N" not in kmer

    def test_matches_brute_force_with_n(self):
        rng = random.Random(404)
        bases = list(seq.random_sequence(300, rng))
        for _ in range(12):
            bases[rng.randrange(len(bases))] = "N"
        sequence = "".join(bases)
        assert minimizers(sequence, w=8, k=9) == \
            brute_force_minimizers(sequence, w=8, k=9)

    def test_all_n_sequence_has_no_minimizers(self):
        assert minimizers("N" * 50, w=5, k=9) == []

    def test_garbage_character_still_rejected(self):
        with pytest.raises(seq.InvalidBaseError):
            minimizers("ACGTXACGTACGTACGT", w=3, k=5)
