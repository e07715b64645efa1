"""Tests for the linear DP aligners (global and fitting)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dp_linear import (
    AlignmentSizeError,
    edit_distance,
    global_align,
    semiglobal_align,
    semiglobal_distance,
)
from repro.core.alignment import replay_alignment

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


def reference_levenshtein(a: str, b: str) -> int:
    """Textbook O(mn) scalar implementation for cross-checking."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(
                previous[j - 1] + (ca != cb),
                previous[j] + 1,
                current[-1] + 1,
            ))
        previous = current
    return previous[-1]


class TestEditDistance:
    def test_known_values(self):
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("ACGT", "ACCT") == 1
        assert edit_distance("ACGT", "") == 4
        assert edit_distance("", "ACGT") == 4
        assert edit_distance("ACGT", "AGT") == 1

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_matches_textbook(self, a, b):
        assert edit_distance(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=50, deadline=None)
    @given(dna, dna)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @settings(max_examples=50, deadline=None)
    @given(dna, dna, dna)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= \
            edit_distance(a, b) + edit_distance(b, c)


class TestSemiglobal:
    def test_exact_substring_is_free(self):
        distance, end = semiglobal_distance("AAACGTAAA", "ACGT")
        assert distance == 0
        assert end == 6

    def test_mismatch_costs_one(self):
        distance, _ = semiglobal_distance("AAACCTAAA", "ACGT")
        assert distance == 1

    def test_empty_reference(self):
        assert semiglobal_distance("", "ACGT") == (4, 0)

    def test_empty_read_rejected(self):
        with pytest.raises(ValueError):
            semiglobal_distance("ACGT", "")

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_brute_force_equivalence(self, reference, read):
        """Fitting distance == min global distance over all reference
        substrings."""
        expected = min(
            reference_levenshtein(reference[i:j], read)
            for i in range(len(reference) + 1)
            for j in range(i, len(reference) + 1)
        )
        distance, _ = semiglobal_distance(reference, read)
        assert distance == expected

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_align_replays_and_matches_distance(self, reference, read):
        result = semiglobal_align(reference, read)
        distance, _ = semiglobal_distance(reference, read)
        assert result.distance == distance
        consumed = reference[result.ref_start:result.ref_end]
        assert replay_alignment(result.cigar, read, consumed) == \
            result.distance

    def test_size_guard(self):
        with pytest.raises(AlignmentSizeError):
            semiglobal_align("ACGT" * 100, "ACGT" * 100, max_cells=10)


class TestGlobal:
    def test_identical(self):
        result = global_align("ACGT", "ACGT")
        assert result.distance == 0
        assert str(result.cigar) == "4="

    def test_known_alignment(self):
        result = global_align("ACGT", "AGT")
        assert result.distance == 1
        assert result.cigar.deletions == 1

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_distance_matches_edit_distance(self, a, b):
        result = global_align(a, b)
        assert result.distance == edit_distance(a, b)
        assert replay_alignment(result.cigar, b, a) == result.distance

    def test_size_guard(self):
        with pytest.raises(AlignmentSizeError):
            global_align("A" * 100, "A" * 100, max_cells=10)
