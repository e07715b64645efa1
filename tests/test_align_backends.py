"""Randomized parity harness for the alignment-backend registry.

Every pair of registered backends must be bit-for-bit interchangeable:
identical ``(distance, start)`` from ``distance()``, identical
``(distance, start, cigar)`` from ``align()``, and every reported
CIGAR must replay exactly against the consumed text span.  On top of
the pairwise checks, each backend is validated against two
*independent* oracles — the classic 1-active left-to-right Bitap
(:mod:`repro.align.bitap`) for the distance and the exact DP fitting
aligner (:mod:`repro.align.dp_linear`) for optimality — so a bug
shared by both bitvector implementations cannot hide.

The case generator is seeded and covers the edge cases the recurrence
is most likely to get wrong: ``k = 0``, patterns longer than the text,
all-``N`` reads, characters absent from the pattern, empty text, and
near-boundary word widths (63/64/65 pattern bits).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.align.backends import (
    AlignmentBackend,
    BackendAlignment,
    align_storage_words,
    default_backend_name,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.align.bitalign_packed import (
    WORD_BITS,
    PackedLayout,
    pack_int,
    unpack_words,
    words_for,
)
from repro.align.bitap import (
    ABSENT_CHAR_MASK,
    bitap_distance,
    pattern_masks_1active,
)
from repro.align.dp_linear import AlignmentSizeError, semiglobal_distance
from repro.align.genasm import genasm_distance
from repro.core.alignment import replay_alignment
from repro.core.bitalign import bitalign, reference_bitvectors
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import linearize

#: Randomized cases per backend pair (the ISSUE's acceptance floor).
CASE_COUNT = 200

BACKEND_PAIRS = list(itertools.combinations(sorted(list_backends()), 2))


def _random_case(rng: random.Random) -> tuple[str, str, int]:
    """One (text, pattern, k) case, biased toward alignable inputs."""
    shape = rng.random()
    if shape < 0.08:
        # Empty-ish window.
        text = "".join(rng.choice("ACGT")
                       for _ in range(rng.randrange(0, 3)))
        pattern = "".join(rng.choice("ACGT")
                          for _ in range(rng.randrange(1, 8)))
    elif shape < 0.16:
        # Pattern longer than the text.
        n = rng.randrange(1, 30)
        text = "".join(rng.choice("ACGT") for _ in range(n))
        pattern = "".join(
            rng.choice("ACGT") for _ in range(n + rng.randrange(1, 20)))
    elif shape < 0.24:
        # All-N reads (and sometimes N-bearing text).
        n = rng.randrange(0, 60)
        alphabet = "ACGTN" if rng.random() < 0.5 else "ACGT"
        text = "".join(rng.choice(alphabet) for _ in range(n))
        pattern = "N" * rng.randrange(1, 12)
    elif shape < 0.36:
        # Word-boundary pattern widths (63..66 bits).
        m = rng.choice((63, 64, 65, 66))
        n = rng.randrange(0, 2 * m)
        text = "".join(rng.choice("ACGT") for _ in range(n))
        pattern = "".join(rng.choice("ACGT") for _ in range(m))
    else:
        # A mutated substring of the text: usually alignable.
        n = rng.randrange(10, 220)
        text = "".join(rng.choice("ACGTN" if rng.random() < 0.15
                                  else "ACGT") for _ in range(n))
        m = rng.randrange(1, min(48, n))
        start = rng.randrange(0, n - m + 1)
        pattern = "".join(
            rng.choice("ACGT") if rng.random() < 0.12 else char
            for char in text[start:start + m])
        if not pattern:  # pragma: no cover - m >= 1 guarantees content
            pattern = "A"
    k = 0 if rng.random() < 0.15 else rng.randrange(0, 14)
    return text, pattern, k


def _cases() -> list[tuple[str, str, int]]:
    rng = random.Random(0x5E62A)
    return [_random_case(rng) for _ in range(CASE_COUNT)]


CASES = _cases()


@pytest.mark.parametrize("left_name,right_name", BACKEND_PAIRS)
class TestPairwiseParity:
    """Bit-for-bit interchangeability of every registered pair."""

    def test_distance_and_alignment_parity(self, left_name, right_name):
        left = get_backend(left_name)
        right = get_backend(right_name)
        alignable = 0
        for text, pattern, k in CASES:
            context = f"text={text!r} pattern={pattern!r} k={k}"
            dl = left.distance(text, pattern, k)
            dr = right.distance(text, pattern, k)
            assert dl == dr, f"distance diverged: {context}"
            al = left.align(text, pattern, k)
            ar = right.align(text, pattern, k)
            assert (al is None) == (ar is None), context
            if al is None:
                assert dl is None, context
                continue
            alignable += 1
            assert (al.distance, al.start) == (ar.distance, ar.start), \
                context
            assert al.cigar == ar.cigar, f"CIGAR diverged: {context}"
            assert dl is not None and al.distance == dl[0], context
        # The generator must actually exercise the aligners.
        assert alignable > CASE_COUNT // 2

    def test_cigars_replay_exactly(self, left_name, right_name):
        for name in (left_name, right_name):
            backend = get_backend(name)
            for text, pattern, k in CASES:
                result = backend.align(text, pattern, k)
                if result is None:
                    continue
                consumed = result.cigar.ref_consumed
                if result.start < 0:
                    assert consumed == 0
                    span = ""
                else:
                    span = text[result.start:result.start + consumed]
                edits = replay_alignment(result.cigar, pattern, span)
                assert edits == result.distance


class TestOracleParity:
    """Backends against the independent Bitap and DP oracles."""

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_against_bitap_and_dp(self, name):
        backend = get_backend(name)
        for text, pattern, k in CASES:
            context = f"text={text!r} pattern={pattern!r} k={k}"
            located = backend.distance(text, pattern, k)
            oracle = bitap_distance(text, pattern, k)
            if located is None:
                assert oracle is None, context
            else:
                assert oracle == located[0], context
            if text:
                exact = semiglobal_distance(text, pattern)[0]
                if exact <= k:
                    assert located is not None and located[0] == exact, \
                        context
                else:
                    assert located is None, context

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_matches_linear_genasm(self, name):
        """The distance contract is genasm_distance, tie-breaks
        included (smallest distance, then leftmost start)."""
        backend = get_backend(name)
        for text, pattern, k in CASES:
            assert backend.distance(text, pattern, k) == \
                genasm_distance(text, pattern, k), \
                f"text={text!r} pattern={pattern!r} k={k}"


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_exact_occurrence_at_k0(self, name):
        backend = get_backend(name)
        text = "ACGTACGTTGCA"
        located = backend.distance(text, "GTAC", 0)
        assert located == (0, text.index("GTAC"))
        result = backend.align(text, "GTAC", 0)
        assert (result.distance, result.start) == (0, 2)
        assert str(result.cigar) == "4="

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_empty_text_pure_insertion(self, name):
        backend = get_backend(name)
        assert backend.distance("", "ACG", 2) is None
        located = backend.distance("", "ACG", 3)
        assert located == (3, 0)
        result = backend.align("", "ACG", 3)
        assert (result.distance, result.start) == (3, -1)
        assert str(result.cigar) == "3I"

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_pattern_longer_than_text(self, name):
        backend = get_backend(name)
        # 6-char pattern over 2 chars of text: at least 4 insertions.
        assert backend.distance("AC", "ACACAC", 3) is None
        located = backend.distance("AC", "ACACAC", 4)
        assert located is not None and located[0] == 4

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_all_n_read_against_acgt_text(self, name):
        """N is a literal: it mismatches ACGT but matches N."""
        backend = get_backend(name)
        assert backend.distance("ACGTACGT", "NNN", 2) is None
        located = backend.distance("ACGTACGT", "NNN", 3)
        assert located is not None and located[0] == 3
        assert backend.distance("AANNNAA", "NNN", 0) == (0, 2)

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_rejects_empty_pattern_and_negative_k(self, name):
        backend = get_backend(name)
        with pytest.raises(ValueError):
            backend.distance("ACGT", "", 1)
        with pytest.raises(ValueError):
            backend.align("ACGT", "AC", -1)

    @pytest.mark.parametrize("name", sorted(list_backends()))
    def test_align_honors_word_budget(self, name):
        backend = get_backend(name)
        with pytest.raises(AlignmentSizeError):
            backend.align("ACGT" * 300, "ACGT" * 250, 100, max_words=10)


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


class TestChainKernelParity:
    """The packed chain kernel inside the graph aligner."""

    @staticmethod
    def _chain(sequence: str):
        return linearize(GenomeGraph.from_linear(sequence,
                                                 node_length=64))

    @staticmethod
    def _forced_numpy():
        """A numpy backend with the crossover gate disabled, so small
        test windows exercise the packed kernel rather than the
        fallback."""
        from repro.align.backends import NumpyBackend

        return NumpyBackend(chain_kernel_min_bits=0)

    def test_chain_window_results_identical(self):
        rng = random.Random(31)
        forced = self._forced_numpy()
        for _ in range(40):
            n = rng.randrange(4, 120)
            text = "".join(rng.choice("ACGT") for _ in range(n))
            m = rng.randrange(2, min(40, n + 1))
            start = rng.randrange(0, n - m + 1)
            pattern = "".join(
                rng.choice("ACGT") if rng.random() < 0.1 else char
                for char in text[start:start + m])
            k = rng.randrange(1, 8)
            lin = self._chain(text)
            anchors = None
            if rng.random() < 0.5:
                anchors = [start]
            ref = bitalign(lin, pattern, k, anchors=anchors,
                           backend="python")
            fast = bitalign(lin, pattern, k, anchors=anchors,
                            backend=forced)
            assert (ref is None) == (fast is None), (text, pattern, k)
            if ref is not None:
                assert (ref.distance, ref.cigar, ref.path,
                        ref.reference) == \
                    (fast.distance, fast.cigar, fast.path,
                     fast.reference), (text, pattern, k, anchors)

    def test_chain_rows_match_reference_band(self):
        """Packed rows agree with the row-major oracle on every bit a
        consumer can observe (the relevance band)."""
        text, pattern, k = "ACGTAGGCTTACGA", "TAGGCTT", 3
        lin = self._chain(text)
        reference = reference_bitvectors(lin, pattern, k)
        packed = self._forced_numpy().chain_bitvectors(text, pattern, k)
        assert len(packed) == len(reference)
        m = len(pattern)
        full = (1 << m) - 1
        for i in range(len(reference)):
            for d in range(k + 1):
                floor = max(0, m - 1 - i - (k - d))
                band = full & ~((1 << floor) - 1)
                assert reference[i][d] & band == packed[i][d] & band

    def test_windowed_aligner_parity_with_forced_kernel(self):
        """A multi-window chain alignment driven entirely through the
        packed kernel matches the python backend exactly."""
        from repro.core.windows import WindowedAligner, WindowingConfig

        rng = random.Random(91)
        text = "".join(rng.choice("ACGT") for _ in range(600))
        read = "".join(
            rng.choice("ACGT") if rng.random() < 0.04 else char
            for char in text[80:480])
        lin = self._chain(text)
        config = WindowingConfig(window_size=128, overlap=48, k=16)
        reference = WindowedAligner(config, backend="python").align(
            lin, read, anchor=(100, 20))
        forced = WindowedAligner(
            config, backend=self._forced_numpy()).align(
            lin, read, anchor=(100, 20))
        assert (reference.distance, reference.cigar, reference.path,
                reference.windows, reference.rescues) == \
            (forced.distance, forced.cigar, forced.path,
             forced.windows, forced.rescues)

    def test_registry_kernel_defers_below_crossover(self):
        """The registered numpy backend opts out of windows narrower
        than its measured crossover — the fallback recurrence is
        faster there and results are identical either way."""
        from repro.align.backends import NumpyBackend

        backend = get_backend("numpy")
        assert isinstance(backend, NumpyBackend)
        assert backend.chain_bitvectors("ACGT" * 16, "ACGTAC", 2) is None
        wide = "ACGT" * ((backend.chain_kernel_min_bits + 3) // 4)
        assert backend.chain_bitvectors(wide + "ACGT", wide, 2) \
            is not None

    def test_kernel_falls_back_on_budget_blowout(self, monkeypatch):
        """A window too large for the packed word budget must fall
        back (return None), never raise — backend interchangeability
        includes inputs only the python path can afford."""
        from repro.align import backends as backends_module

        def exploding(*args, **kwargs):
            raise AlignmentSizeError("forced blowout")

        monkeypatch.setattr(backends_module, "packed_chain_rows",
                            exploding)
        forced = self._forced_numpy()
        assert forced.chain_bitvectors("ACGT" * 200,
                                       "ACGT" * 160, 2) is None


def _random_batch(rng: random.Random) -> tuple[list, int]:
    """One randomized batch of (text, pattern) jobs sharing a ``k``.

    The mix deliberately covers the batched kernel's hazard cases:
    mixed lengths spanning the 64-bit word boundary (so one call
    exercises several packed-width buckets), N-bearing reads, and
    k-overflow jobs (``m > n + k``) riding along with alignable ones.
    """
    k = rng.randrange(0, 10)
    jobs = []
    for _ in range(rng.randrange(1, 12)):
        shape = rng.random()
        if shape < 0.12:
            # k-overflow: more pattern than the text plus k edits
            # can ever absorb.  Must resolve to None in-batch.
            n = rng.randrange(0, 15)
            text = "".join(rng.choice("ACGT") for _ in range(n))
            m = n + k + rng.randrange(1, 10)
            pattern = "".join(rng.choice("ACGT") for _ in range(m))
        elif shape < 0.26:
            # N-containing read over an N-free (or N-bearing) text.
            n = rng.randrange(8, 80)
            alphabet = "ACGTN" if rng.random() < 0.3 else "ACGT"
            text = "".join(rng.choice(alphabet) for _ in range(n))
            m = rng.randrange(1, min(20, n))
            pattern = "".join(rng.choice("ACGTN") for _ in range(m))
        else:
            # Mutated substring; m crosses the word boundary often
            # enough that batches mix packed widths.
            n = rng.randrange(20, 180)
            text = "".join(rng.choice("ACGT") for _ in range(n))
            m = rng.randrange(4, min(130, n))
            start = rng.randrange(0, n - m + 1)
            pattern = "".join(
                rng.choice("ACGT") if rng.random() < 0.1 else char
                for char in text[start:start + m])
        jobs.append((text, pattern))
    return jobs, k


BACKEND_NAMES = sorted(list_backends())


class TestBatchedAlignMany:
    """``align_many`` is the base-class loop over ``align`` on every
    backend: one result per job in order, each job validated and
    budgeted on its own, and — like ``align`` — bit-for-bit the same
    on every backend and true to the independent oracles."""

    def test_matches_scalar_loop_and_python(self):
        python_backend = get_backend("python")
        rng = random.Random(0xBA7C4)
        alignable = 0
        for _ in range(40):
            jobs, k = _random_batch(rng)
            ref = python_backend.align_many(jobs, k)
            assert len(ref) == len(jobs)
            for name in BACKEND_NAMES:
                backend = get_backend(name)
                got = backend.align_many(jobs, k)
                loop = [backend.align(text, pattern, k)
                        for text, pattern in jobs]
                assert got == loop == ref, f"{name} jobs={jobs!r} k={k}"
            alignable += sum(result is not None for result in ref)
        assert alignable > 60

    def test_against_bitap_and_dp_oracles(self):
        """Every result cross-checked against the independent
        1-active Bitap and exact-DP oracles, per job."""
        rng = random.Random(0x04AC1E)
        for _ in range(25):
            jobs, k = _random_batch(rng)
            for name in BACKEND_NAMES:
                results = get_backend(name).align_many(jobs, k)
                for (text, pattern), result in zip(jobs, results):
                    context = f"{name} text={text!r} " \
                        f"pattern={pattern!r} k={k}"
                    oracle = bitap_distance(text, pattern, k)
                    if result is None:
                        assert oracle is None, context
                    else:
                        assert oracle == result.distance, context
                    if text:
                        exact = semiglobal_distance(text, pattern)[0]
                        if exact <= k:
                            assert result is not None \
                                and result.distance == exact, context
                        else:
                            assert result is None, context

    def test_empty_batch(self):
        for name in BACKEND_NAMES:
            assert get_backend(name).align_many([], 3) == []

    def test_batch_of_one(self):
        text = "ACGTAGGCTTACGA"
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            many = backend.align_many([(text, "TAGGCTT")], 2)
            assert many == [backend.align(text, "TAGGCTT", 2)]
            assert many[0] is not None

    def test_k_overflow_job_rides_along(self):
        """An m > n + k job resolves to None without touching its
        batch-mates' results."""
        text = "ACGTACGTTGCA"
        jobs = [(text, "GTAC"), ("AC", "ACGTACGTAC"), (text, "TTGC")]
        for name in BACKEND_NAMES:
            results = get_backend(name).align_many(jobs, 1)
            assert results[1] is None
            assert results[0] is not None \
                and (results[0].distance, results[0].start) == (0, 2)
            assert results[2] is not None \
                and (results[2].distance, results[2].start) == (0, 7)

    def test_validates_every_job(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            with pytest.raises(ValueError):
                backend.align_many([("ACGT", "AC"), ("ACGT", "")], 1)
            with pytest.raises(ValueError):
                backend.align_many([("ACGT", "AC")], -1)

    def test_per_job_word_budget(self):
        """``max_words`` bounds each job, not the batch: two jobs that
        fit one by one pass together, one that does not raises."""
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            small = ("ACGT" * 8, "ACGTAC")
            budget = 2 * align_storage_words(32, 6, 2) - 1
            assert len(backend.align_many([small, small], 2,
                                          max_words=budget)) == 2
            with pytest.raises(AlignmentSizeError):
                backend.align_many(
                    [small, ("ACGT" * 300, "ACGT" * 250)], 100,
                    max_words=10)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"python", "numpy"} <= set(list_backends())

    def test_get_backend_unknown_name(self):
        with pytest.raises(KeyError, match="unknown alignment backend"):
            get_backend("fpga")

    def test_resolve_accepts_instance_name_and_none(self):
        numpy_backend = get_backend("numpy")
        assert resolve_backend(numpy_backend) is numpy_backend
        assert resolve_backend("numpy") is numpy_backend
        assert resolve_backend(None).name == default_backend_name()

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "numpy")
        assert default_backend_name() == "numpy"
        monkeypatch.setenv("REPRO_ALIGN_BACKEND", "quantum")
        with pytest.raises(ValueError, match="unknown alignment"):
            default_backend_name()
        monkeypatch.delenv("REPRO_ALIGN_BACKEND")
        assert default_backend_name() == "python"

    def test_register_backend_rejects_anonymous(self):
        with pytest.raises(ValueError):
            register_backend(AlignmentBackend())

    def test_register_replaces_and_restores(self):
        class Stub(AlignmentBackend):
            name = "stub-backend"

            def distance(self, text, pattern, k):
                return (0, 0)

            def align(self, text, pattern, k, max_words=0):
                return BackendAlignment(0, None, 0)

        try:
            register_backend(Stub())
            assert "stub-backend" in list_backends()
            assert get_backend("stub-backend").distance("A", "A", 0) \
                == (0, 0)
        finally:
            from repro.align import backends as backends_module

            backends_module._REGISTRY.pop("stub-backend", None)
        assert "stub-backend" not in list_backends()


class TestPackedLayout:
    def test_words_and_padding(self):
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        layout = PackedLayout(128)
        assert (layout.words, layout.bytes_per_bitvector,
                layout.padded_bits) == (2, 16, 128)
        layout = PackedLayout(100)
        assert (layout.words, layout.bytes_per_bitvector,
                layout.padded_bits) == (2, 16, 128)
        with pytest.raises(ValueError):
            PackedLayout(0)

    def test_pack_roundtrip(self):
        value = (1 << 130) - 12345
        words = pack_int(value, words_for(131))
        assert words.dtype == "uint64"
        assert unpack_words(words) == value

    def test_cycle_model_reads_packed_layout(self):
        from repro.hw.bitalign_unit import BitAlignCycleModel

        model = BitAlignCycleModel()
        layout = model.packed_layout()
        assert layout.pattern_bits == model.config.bits_per_pe
        assert layout.words == words_for(model.config.bits_per_pe)
        assert model.scratchpad_write_bytes_per_cycle() == \
            layout.bytes_per_bitvector * model.config.pe_count
        # An odd window width is charged for its padded words.
        assert model.packed_layout(100).bytes_per_bitvector == 16

    def test_word_bits_constant(self):
        assert WORD_BITS == 64
