"""Tests for the 2-bit DNA alphabet utilities."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import seq

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestEncoding:
    def test_encode_base_values_match_paper(self):
        # Paper Section 5: A:00, C:01, G:10, T:11.
        assert seq.encode_base("A") == 0
        assert seq.encode_base("C") == 1
        assert seq.encode_base("G") == 2
        assert seq.encode_base("T") == 3

    def test_encode_base_accepts_lowercase(self):
        assert seq.encode_base("a") == 0
        assert seq.encode_base("t") == 3

    def test_encode_base_rejects_invalid(self):
        with pytest.raises(seq.InvalidBaseError):
            seq.encode_base("N")

    def test_decode_base_roundtrip(self):
        for code in range(4):
            assert seq.encode_base(seq.decode_base(code)) == code

    def test_decode_base_rejects_out_of_range(self):
        with pytest.raises(seq.InvalidBaseError):
            seq.decode_base(4)
        with pytest.raises(seq.InvalidBaseError):
            seq.decode_base(-1)

    @given(dna)
    def test_encode_decode_roundtrip(self, sequence):
        assert seq.decode(seq.encode(sequence)) == sequence


class TestPacking:
    def test_pack_known_value(self):
        # ACGT -> 00 01 10 11 -> 0b00011011 = 27.
        assert seq.pack("ACGT") == 0b00011011

    def test_pack_empty(self):
        assert seq.pack("") == 0

    @given(dna.filter(lambda s: len(s) > 0))
    def test_pack_unpack_roundtrip(self, sequence):
        assert seq.unpack(seq.pack(sequence), len(sequence)) == sequence

    def test_unpack_negative_length_rejected(self):
        with pytest.raises(ValueError):
            seq.unpack(0, -1)


class TestComplement:
    def test_complement_pairs(self):
        assert seq.complement("ACGT") == "TGCA"

    def test_reverse_complement_known(self):
        assert seq.reverse_complement("AACGTT") == "AACGTT"
        assert seq.reverse_complement("AAAC") == "GTTT"

    @given(dna)
    def test_reverse_complement_involution(self, sequence):
        assert seq.reverse_complement(
            seq.reverse_complement(sequence)
        ) == sequence

    def test_complement_rejects_invalid(self):
        with pytest.raises(seq.InvalidBaseError):
            seq.complement("AXG")


class TestValidate:
    def test_validate_uppercases(self):
        assert seq.validate("acgt") == "ACGT"

    def test_validate_reports_position(self):
        with pytest.raises(seq.InvalidBaseError, match="position 2"):
            seq.validate("ACNT")

    def test_is_valid(self):
        assert seq.is_valid("ACGT")
        assert not seq.is_valid("ACGU")


class TestHelpers:
    def test_random_sequence_length_and_alphabet(self):
        rng = random.Random(1)
        out = seq.random_sequence(500, rng)
        assert len(out) == 500
        assert set(out) <= set("ACGT")

    def test_random_sequence_deterministic(self):
        assert seq.random_sequence(50, random.Random(7)) == \
            seq.random_sequence(50, random.Random(7))

    def test_hamming_distance(self):
        assert seq.hamming_distance("ACGT", "ACGA") == 1
        assert seq.hamming_distance("AAAA", "TTTT") == 4

    def test_hamming_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            seq.hamming_distance("ACG", "AC")


class TestAmbiguityPolicy:
    """The unified N policy (see the repro.seq module docstring)."""

    def test_encode_rejects_n(self):
        with pytest.raises(seq.InvalidBaseError):
            seq.encode("ACNT")

    def test_is_valid_read_side(self):
        assert not seq.is_valid("ACNT")
        assert seq.is_valid("ACNT", allow_ambiguous=True)
        assert seq.is_valid("acnt", allow_ambiguous=True)
        assert not seq.is_valid("ACXT", allow_ambiguous=True)

    def test_validate_read_side(self):
        assert seq.validate("acNt", allow_ambiguous=True) == "ACNT"
        with pytest.raises(seq.InvalidBaseError, match="position 2"):
            seq.validate("ACNT")
        with pytest.raises(seq.InvalidBaseError, match="position 1"):
            seq.validate("AXNT", allow_ambiguous=True)

    def test_complement_maps_n_to_n(self):
        assert seq.complement("ACGTN") == "TGCAN"
        assert seq.reverse_complement("ACGTN") == "NACGT"

    def test_is_ambiguous(self):
        assert seq.is_ambiguous("N")
        assert seq.is_ambiguous("n")
        assert not seq.is_ambiguous("A")


def _outcome(function, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _loop_validate(sequence, name="sequence", allow_ambiguous=False):
    """``validate`` as the per-character loop it used to be."""
    upper = sequence.upper()
    for position, base in enumerate(upper):
        if base in "ACGTacgt":
            continue
        if allow_ambiguous and base in "Nn":
            continue
        raise seq.InvalidBaseError(
            f"{name} contains invalid base {base!r} at position "
            f"{position}")
    return upper


_PAIRS = dict(zip("ACGTacgtNn", "TGCAtgcaNn"))


def _loop_complement(sequence):
    """``complement`` as the per-character loop it used to be."""
    try:
        return "".join(_PAIRS[base] for base in sequence)
    except KeyError as exc:
        raise seq.InvalidBaseError(
            f"invalid DNA base: {exc.args[0]!r}") from None


#: Mostly bases, some ambiguous ones, some that no policy accepts
#: (including characters whose ``upper()`` changes length or case
#: class: the position a failure names is counted after uppercasing).
mixed = st.text(alphabet=st.one_of(
    st.sampled_from("ACGTacgtNn"), st.sampled_from("ACGTacgt"),
    st.sampled_from("XRY-*. 0u\xdfıǅ\n"),
    st.characters()), max_size=60)


class TestTranslateFastPaths:
    """``validate`` and ``complement`` run as ``str.translate`` passes;
    results, error types and error messages must be the loops'."""

    @given(mixed, st.booleans())
    def test_validate_equals_the_loop(self, sequence, allow_ambiguous):
        assert _outcome(seq.validate, sequence, "read",
                        allow_ambiguous=allow_ambiguous) == \
            _outcome(_loop_validate, sequence, "read",
                     allow_ambiguous=allow_ambiguous)

    @given(mixed)
    def test_complement_equals_the_loop(self, sequence):
        assert _outcome(seq.complement, sequence) == \
            _outcome(_loop_complement, sequence)

    @given(st.text(alphabet="ACGTacgtNn", max_size=300))
    def test_valid_input_takes_both_paths_alike(self, sequence):
        assert seq.validate(sequence, allow_ambiguous=True) == \
            sequence.upper()
        assert seq.complement(sequence) == _loop_complement(sequence)
        strict = _outcome(seq.validate, sequence)
        assert strict == _outcome(_loop_validate, sequence)
        assert (strict == sequence.upper()) == \
            ("N" not in sequence.upper())
