"""Tests for CIGAR primitives and replay validation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alignment import Cigar, CigarError, replay_alignment

ops_strategy = st.lists(
    st.sampled_from("=XID"), min_size=0, max_size=50,
)


class TestConstruction:
    def test_from_ops_run_length_encodes(self):
        cigar = Cigar.from_ops("==XX=")
        assert cigar.ops == (("=", 2), ("X", 2), ("=", 1))

    def test_from_string(self):
        cigar = Cigar.from_string("5=1X3I")
        assert cigar.ops == (("=", 5), ("X", 1), ("I", 3))

    def test_string_roundtrip(self):
        text = "3=2X1D4="
        assert str(Cigar.from_string(text)) == text

    def test_invalid_op_rejected(self):
        with pytest.raises(CigarError):
            Cigar((("M", 3),))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(CigarError):
            Cigar((("=", 0),))

    def test_malformed_string_rejected(self):
        with pytest.raises(CigarError):
            Cigar.from_string("=3")
        with pytest.raises(CigarError):
            Cigar.from_string("3")

    @pytest.mark.parametrize("text", ["\u00b2=", "1\u00b2X", "3=\u00b9D",
                                      "\u0663="],
                             ids=["superscript-count", "superscript-op",
                                  "superscript-trailing", "arabic-indic"])
    def test_non_ascii_digit_rejected(self, text):
        """``str.isdigit`` holds for superscripts and other scripts'
        digits; a CIGAR count is ASCII digits only, and anything else
        is a :class:`CigarError`, not a bare ``ValueError``."""
        with pytest.raises(CigarError):
            Cigar.from_string(text)

    @given(ops_strategy)
    def test_expand_inverts_from_ops(self, ops):
        assert list(Cigar.from_ops(ops).expand()) == ops


class TestAccounting:
    def test_counts(self):
        cigar = Cigar.from_string("5=2X1I3D")
        assert cigar.matches == 5
        assert cigar.mismatches == 2
        assert cigar.insertions == 1
        assert cigar.deletions == 3
        assert cigar.edit_distance == 6

    def test_consumption(self):
        cigar = Cigar.from_string("5=2X1I3D")
        assert cigar.read_consumed == 8   # = X I
        assert cigar.ref_consumed == 10   # = X D

    @given(ops_strategy)
    def test_edit_distance_is_non_match_count(self, ops):
        cigar = Cigar.from_ops(ops)
        assert cigar.edit_distance == sum(1 for op in ops if op != "=")


class TestConcat:
    def test_merges_boundary_run(self):
        left = Cigar.from_string("3=")
        right = Cigar.from_string("2=1X")
        assert str(left.concat(right)) == "5=1X"

    def test_concat_empty(self):
        cigar = Cigar.from_string("3=")
        empty = Cigar(())
        assert cigar.concat(empty) == cigar
        assert empty.concat(cigar) == cigar


class TestReplay:
    def test_valid_alignment(self):
        # read ACGT vs ref ACCT: matches at 0,1,3; mismatch at 2.
        cigar = Cigar.from_string("2=1X1=")
        assert replay_alignment(cigar, "ACGT", "ACCT") == 1

    def test_indels(self):
        # read ACGT vs ref AGT: C inserted in read.
        cigar = Cigar.from_string("1=1I2=")
        assert replay_alignment(cigar, "ACGT", "AGT") == 1
        # read AGT vs ref ACGT: C deleted from read.
        cigar = Cigar.from_string("1=1D2=")
        assert replay_alignment(cigar, "AGT", "ACGT") == 1

    def test_false_match_rejected(self):
        with pytest.raises(CigarError):
            replay_alignment(Cigar.from_string("4="), "ACGT", "ACCT")

    def test_false_mismatch_rejected(self):
        with pytest.raises(CigarError):
            replay_alignment(Cigar.from_string("4X"), "ACGT", "ACGT")

    def test_read_underconsumed_rejected(self):
        with pytest.raises(CigarError):
            replay_alignment(Cigar.from_string("3="), "ACGT", "ACG")

    def test_ref_underconsumed_rejected(self):
        with pytest.raises(CigarError):
            replay_alignment(Cigar.from_string("4="), "ACGT", "ACGTA")

    def test_empty_alignment(self):
        assert replay_alignment(Cigar(()), "", "") == 0
