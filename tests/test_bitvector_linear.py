"""Cross-validation of the linear bitvector aligners.

Three independent implementations of fitting-alignment semantics are
checked against each other: the vectorized DP (:mod:`dp_linear`), the
1-active left-to-right Bitap, and the 0-active right-to-left GenASM.
Any disagreement indicates a bug in one of them — this is the
foundation BitAlign's correctness rests on.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.bitap import (
    ABSENT_CHAR_MASK,
    bitap_distance,
    bitap_search,
    pattern_masks_1active,
)
from oracles.dp_linear import semiglobal_distance
from oracles.genasm import genasm_align, genasm_distance
from repro.core.alignment import replay_alignment

text_strategy = st.text(alphabet="ACGT", min_size=0, max_size=80)
pattern_strategy = st.text(alphabet="ACGT", min_size=1, max_size=24)


class TestBitap:
    def test_exact_occurrence(self):
        matches = bitap_search("AAACGTAAA", "ACGT", k=0)
        assert (5, 0) in matches  # ends at index 5

    def test_no_match_within_k(self):
        assert bitap_distance("AAAA", "TTTT", k=2) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bitap_search("ACGT", "", k=1)
        with pytest.raises(ValueError):
            bitap_search("ACGT", "A", k=-1)

    @settings(max_examples=200, deadline=None)
    @given(text_strategy, pattern_strategy)
    def test_matches_dp(self, text, pattern):
        dp, _ = semiglobal_distance(text, pattern)
        k = min(len(pattern), dp + 2)
        found = bitap_distance(text, pattern, k)
        if dp <= k:
            assert found == dp
        else:
            assert found is None


class TestGenasm:
    def test_exact_occurrence_reports_start(self):
        result = genasm_distance("AAACGTAAA", "ACGT", k=0)
        assert result == (0, 2)

    def test_none_when_over_threshold(self):
        assert genasm_distance("AAAA", "TTTT", k=2) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            genasm_distance("ACGT", "", k=1)
        with pytest.raises(ValueError):
            genasm_distance("ACGT", "A", k=-1)

    @settings(max_examples=200, deadline=None)
    @given(text_strategy, pattern_strategy)
    def test_matches_dp(self, text, pattern):
        dp, _ = semiglobal_distance(text, pattern)
        k = min(len(pattern), dp + 2)
        result = genasm_distance(text, pattern, k)
        if dp <= k:
            assert result is not None
            assert result[0] == dp
        else:
            assert result is None

    @settings(max_examples=200, deadline=None)
    @given(text_strategy, pattern_strategy)
    def test_traceback_replays_at_optimal_distance(self, text, pattern):
        dp, _ = semiglobal_distance(text, pattern)
        k = min(len(pattern), dp + 2)
        result = genasm_align(text, pattern, k)
        if dp > k:
            assert result is None
            return
        assert result is not None
        assert result.distance == dp
        consumed = text[result.text_start:result.text_end] \
            if result.text_start >= 0 else ""
        assert replay_alignment(result.cigar, pattern, consumed) == dp


class TestAgreementMatrix:
    """All three implementations agree on a batch of tricky fixed cases."""

    CASES = [
        ("ACGTACGT", "ACGT"),
        ("ACGTACGT", "ACCT"),
        ("AAAAAAA", "AAA"),
        ("ACGT", "TTTT"),
        ("A", "ACGTACGT"),       # pattern longer than text
        ("ACACACAC", "CACA"),    # periodic
        ("GGGG", "G"),
        ("TTTT", "TTTTTTTT"),
    ]

    @pytest.mark.parametrize("text,pattern", CASES)
    def test_agreement(self, text, pattern):
        dp, _ = semiglobal_distance(text, pattern)
        assert bitap_distance(text, pattern, k=len(pattern)) == dp
        genasm = genasm_distance(text, pattern, k=len(pattern))
        assert genasm is not None and genasm[0] == dp


class TestBitapNPolicy:
    """Regression tests for the explicit absent-character policy."""

    def test_absent_char_mask_is_explicit(self):
        masks = pattern_masks_1active("ACCA")
        assert masks == {"A": 0b1001, "C": 0b0110}
        assert masks.get("N", ABSENT_CHAR_MASK) == 0
        assert masks.get("G", ABSENT_CHAR_MASK) == 0

    def test_reads_with_n_cost_an_edit(self):
        # One N in the text forces exactly one substitution.
        assert bitap_distance("ACGNACGT", "GNAC", 0) == 0
        assert bitap_distance("ACGTACGT", "GNAC", 0) is None
        assert bitap_distance("ACGTACGT", "GNAC", 1) == 1

    def test_n_policy_matches_bitalign(self):
        """Bitap and the 0-active side agree on every N-bearing case."""
        rng = random.Random(77)
        for _ in range(80):
            n = rng.randrange(1, 40)
            text = "".join(rng.choice("ACGTN") for _ in range(n))
            m = rng.randrange(1, 12)
            pattern = "".join(rng.choice("ACGTN") for _ in range(m))
            k = rng.randrange(0, 5)
            expected = genasm_distance(text, pattern, k)
            got = bitap_distance(text, pattern, k)
            if expected is None:
                assert got is None, (text, pattern, k)
            else:
                assert got == expected[0], (text, pattern, k)
