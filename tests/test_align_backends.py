"""What is left of the alignment-backend seam, and the kernel behind it.

The perf harness still names two backends: ``SeGraMConfig.align_backend``
and ``--align-backend`` take ``"python"`` or ``"numpy"``, and both are
accepted and ignored.  Mate rescue, the last caller of the old backend
registry, runs every job on the diagonal BitAlign kernel of
:mod:`repro.core.bitalign` over a hop-free view of its window.

Each test builds a paired-end engine under each backend name and checks
its rescue alignments against two *independent* oracles — the classic
1-active left-to-right Bitap (:mod:`repro.align.bitap`) for the distance
and the exact DP fitting aligner (:mod:`repro.align.dp_linear`) for
optimality — and against linear GenASM, tie-breaks included.  The seeded
case generator covers ``k = 0``, patterns longer than the window, all-N
reads, N-bearing windows and 63–66-bit word-boundary pattern widths.
"""

from __future__ import annotations

import random

import pytest

from repro.align.bitap import bitap_distance
from repro.align.dp_linear import semiglobal_distance
from repro.align.genasm import genasm_align
from repro.core import pairing
from repro.core.alignment import replay_alignment
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.pairing import (
    DEFAULT_MAX_WORDS,
    PairedEndMapper,
    align_storage_words,
)
from repro.core.windows import WindowingConfig
from repro.sim.reference import random_reference

#: The names the perf harness may still pass; both are ignored.
BACKEND_NAMES = ("numpy", "python")

#: Seeded rescue jobs per engine.
CASE_COUNT = 200


def _case(rng: random.Random) -> tuple[str, str, int]:
    """One seeded ``(window, pattern, k)``: patterns longer than the
    window, all-``N`` reads, 63–66-bit word-boundary widths, and mostly
    mutated substrings of N-bearing text.  A rescue window is never
    empty."""
    shape = rng.random()
    if shape < 0.1:
        n = rng.randrange(1, 30)
        window = "".join(rng.choice("ACGT") for _ in range(n))
        pattern = "".join(rng.choice("ACGT")
                          for _ in range(n + rng.randrange(1, 20)))
    elif shape < 0.2:
        alphabet = "ACGTN" if rng.random() < 0.5 else "ACGT"
        window = "".join(rng.choice(alphabet)
                         for _ in range(rng.randrange(1, 60)))
        pattern = "N" * rng.randrange(1, 12)
    elif shape < 0.32:
        m = rng.choice((63, 64, 65, 66))
        window = "".join(rng.choice("ACGT")
                         for _ in range(rng.randrange(1, 2 * m)))
        pattern = "".join(rng.choice("ACGT") for _ in range(m))
    else:
        n = rng.randrange(10, 220)
        window = "".join(rng.choice("ACGTN" if rng.random() < 0.15
                                    else "ACGT") for _ in range(n))
        m = rng.randrange(1, min(48, n))
        start = rng.randrange(0, n - m + 1)
        pattern = "".join(
            rng.choice("ACGT") if rng.random() < 0.12 else char
            for char in window[start:start + m])
    k = 0 if rng.random() < 0.15 else rng.randrange(0, 14)
    return window, pattern, k


def _cases() -> list[tuple[str, str, int]]:
    rng = random.Random(0x5E62A)
    return [_case(rng) for _ in range(CASE_COUNT)]


CASES = _cases()


def _engine(reference: str, backend: str) -> PairedEndMapper:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True,
        early_exit_distance=6, align_backend=backend,
    )
    return PairedEndMapper(
        SeGraM.from_reference(reference, config=config, name="chr1"))


@pytest.fixture(scope="module")
def engines() -> dict[str, PairedEndMapper]:
    reference = random_reference(2_000, random.Random(0x0DD))
    return {name: _engine(reference, name) for name in BACKEND_NAMES}


def _rescue(engine: PairedEndMapper, window: str, pattern: str, k: int):
    return engine._dispatch_rescues([(window, pattern, k, 0, "+")])[0]


def _oracle_rescue(window: str, pattern: str, k: int):
    """``(distance, start, cigar)`` of the linear GenASM fitting
    alignment, or None for "no rescue"."""
    aligned = genasm_align(window, pattern, k)
    if aligned is None or aligned.text_start < 0:
        return None
    return aligned.distance, aligned.text_start, aligned.cigar


def _assert_oracles(result, window: str, pattern: str, k: int,
                    context: str) -> None:
    """Distance against Bitap and exact DP; the CIGAR replays against
    the window span it consumes."""
    oracle = bitap_distance(window, pattern, k)
    exact = semiglobal_distance(window, pattern)[0]
    if result is None:
        assert oracle is None and exact > k, context
        return
    distance, start, cigar = result
    assert distance == oracle == exact, context
    span = window[start:start + cigar.ref_consumed]
    assert replay_alignment(cigar, pattern, span) == distance, context


@pytest.mark.parametrize("left_name,right_name",
                         [("numpy", "python")])
class TestPairwiseParity:
    """Engines built under either ignored backend name rescue alike."""

    def test_distance_and_alignment_parity(self, engines, left_name,
                                           right_name):
        alignable = 0
        for window, pattern, k in CASES:
            left = _rescue(engines[left_name], window, pattern, k)
            right = _rescue(engines[right_name], window, pattern, k)
            assert left == right, \
                f"window={window!r} pattern={pattern!r} k={k}"
            alignable += left is not None
        # The generator must actually exercise the kernel.
        assert alignable > CASE_COUNT // 2

    def test_cigars_replay_exactly(self, engines, left_name, right_name):
        for name in (left_name, right_name):
            for window, pattern, k in CASES:
                context = f"{name} window={window!r} " \
                    f"pattern={pattern!r} k={k}"
                result = _rescue(engines[name], window, pattern, k)
                if result is None:
                    continue
                distance, start, cigar = result
                assert start >= 0 and cigar.ref_consumed > 0, context
                span = window[start:start + cigar.ref_consumed]
                assert replay_alignment(cigar, pattern, span) \
                    == distance, context


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestOracleParity:
    """Rescue alignments against the independent oracles."""

    def test_against_bitap_and_dp(self, engines, name):
        for window, pattern, k in CASES:
            _assert_oracles(_rescue(engines[name], window, pattern, k),
                            window, pattern, k,
                            f"window={window!r} pattern={pattern!r} k={k}")

    def test_matches_linear_genasm(self, engines, name):
        """The contract is genasm_align, tie-breaks included (smallest
        distance, then leftmost start, then its CIGAR)."""
        for window, pattern, k in CASES:
            assert _rescue(engines[name], window, pattern, k) == \
                _oracle_rescue(window, pattern, k), \
                f"window={window!r} pattern={pattern!r} k={k}"


@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestEdgeCases:
    def test_exact_occurrence_at_k0(self, engines, name):
        result = _rescue(engines[name], "ACGTACGTTGCA", "GTAC", 0)
        assert result is not None and result[:2] == (0, 2)
        assert str(result[2]) == "4="

    def test_pattern_longer_than_text(self, engines, name):
        engine = engines[name]
        # 6-char pattern over 2 chars of text: at least 4 insertions.
        assert _rescue(engine, "AC", "ACACAC", 3) is None
        result = _rescue(engine, "AC", "ACACAC", 4)
        assert result is not None and result[0] == 4

    def test_all_n_read_against_acgt_text(self, engines, name):
        """N is a literal: it mismatches ACGT but matches N."""
        engine = engines[name]
        assert _rescue(engine, "ACGTACGT", "NNN", 2) is None
        result = _rescue(engine, "ACGTACGT", "NNN", 3)
        assert result is not None and result[0] == 3
        assert _rescue(engine, "AANNNAA", "NNN", 0)[:2] == (0, 2)

    def test_rejects_empty_pattern_and_negative_k(self, engines, name):
        with pytest.raises(ValueError):
            _rescue(engines[name], "ACGT", "", 1)
        with pytest.raises(ValueError):
            _rescue(engines[name], "ACGT", "AC", -1)

    def test_align_honors_word_budget(self, engines, name, monkeypatch):
        """A job above the traceback-storage budget resolves to None
        and is not counted as a kernel call."""
        def kernel(*args, **kwargs):
            raise AssertionError("over-budget job reached the kernel")

        monkeypatch.setattr(pairing, "bitalign", kernel)
        engine = engines[name]
        pattern, k = "ACGT" * 25, 100
        n = DEFAULT_MAX_WORDS // ((k + 1) * 2)
        assert align_storage_words(n, len(pattern), k) \
            > DEFAULT_MAX_WORDS
        calls = engine.stats.align_calls
        assert _rescue(engine, "A" * n, pattern, k) is None
        assert engine.stats.align_calls == calls


def _random_batch(rng: random.Random) -> list[tuple[str, str, int]]:
    """One randomized batch of ``(window, pattern, k)`` rescue jobs.

    The mix covers the hazards of resolving a batch: mixed pattern
    lengths across the 64-bit word boundary, N-bearing reads, and
    k-overflow jobs (``m > n + k``) riding along with alignable ones.
    """
    jobs = []
    for _ in range(rng.randrange(1, 12)):
        k = rng.randrange(0, 10)
        shape = rng.random()
        if shape < 0.12:
            n = rng.randrange(1, 15)
            window = "".join(rng.choice("ACGT") for _ in range(n))
            m = n + k + rng.randrange(1, 10)
            pattern = "".join(rng.choice("ACGT") for _ in range(m))
        elif shape < 0.26:
            n = rng.randrange(8, 80)
            alphabet = "ACGTN" if rng.random() < 0.3 else "ACGT"
            window = "".join(rng.choice(alphabet) for _ in range(n))
            m = rng.randrange(1, min(20, n))
            pattern = "".join(rng.choice("ACGTN") for _ in range(m))
        else:
            n = rng.randrange(20, 180)
            window = "".join(rng.choice("ACGT") for _ in range(n))
            m = rng.randrange(4, min(130, n))
            start = rng.randrange(0, n - m + 1)
            pattern = "".join(
                rng.choice("ACGT") if rng.random() < 0.1 else char
                for char in window[start:start + m])
        jobs.append((window, pattern, k))
    return jobs


class TestBatchedAlignMany:
    """``_dispatch_rescues`` resolves a batch job by job: one result
    per job in order, one kernel call per job, each job budgeted on
    its own."""

    def test_matches_scalar_loop_and_python(self, engines):
        """A batch equals its jobs resolved one by one, and the engines
        built under the two names agree."""
        rng = random.Random(0xBA7C4)
        alignable = 0
        for _ in range(40):
            jobs = [(window, pattern, k, 0, "+")
                    for window, pattern, k in _random_batch(rng)]
            ref = engines["python"]._dispatch_rescues(jobs)
            assert len(ref) == len(jobs)
            for name in BACKEND_NAMES:
                engine = engines[name]
                got = engine._dispatch_rescues(jobs)
                loop = [_rescue(engine, *job[:3]) for job in jobs]
                assert got == loop == ref, f"{name} jobs={jobs!r}"
            alignable += sum(result is not None for result in ref)
        assert alignable > 60

    def test_against_bitap_and_dp_oracles(self, engines):
        rng = random.Random(0x04AC1E)
        for _ in range(25):
            jobs = _random_batch(rng)
            framed = [(window, pattern, k, 0, "+")
                      for window, pattern, k in jobs]
            per_name = []
            for name in BACKEND_NAMES:
                engine = engines[name]
                calls = engine.stats.align_calls
                results = engine._dispatch_rescues(framed)
                assert engine.stats.align_calls == calls + len(jobs)
                assert len(results) == len(jobs)
                for (window, pattern, k), result in zip(jobs, results):
                    _assert_oracles(result, window, pattern, k,
                                    f"{name} window={window!r} "
                                    f"pattern={pattern!r} k={k}")
                per_name.append(results)
            assert per_name[0] == per_name[1]

    def test_empty_batch(self, engines):
        for name in BACKEND_NAMES:
            calls = engines[name].stats.align_calls
            assert engines[name]._dispatch_rescues([]) == []
            assert engines[name].stats.align_calls == calls

    def test_batch_of_one(self, engines):
        window = "ACGTAGGCTTACGA"
        for name in BACKEND_NAMES:
            many = engines[name]._dispatch_rescues(
                [(window, "TAGGCTT", 2, 0, "+")])
            assert many == [_oracle_rescue(window, "TAGGCTT", 2)]
            assert many[0] is not None

    def test_k_overflow_job_rides_along(self, engines):
        """An m > n + k job resolves to None without touching its
        batch-mates' results."""
        window = "ACGTACGTTGCA"
        jobs = [(window, "GTAC", 1, 0, "+"),
                ("AC", "ACGTACGTAC", 1, 0, "+"),
                (window, "TTGC", 1, 0, "+")]
        for name in BACKEND_NAMES:
            results = engines[name]._dispatch_rescues(jobs)
            assert results[1] is None
            assert results[0] is not None and results[0][:2] == (0, 2)
            assert results[2] is not None and results[2][:2] == (0, 7)

    def test_validates_every_job(self, engines):
        for name in BACKEND_NAMES:
            engine = engines[name]
            with pytest.raises(ValueError):
                engine._dispatch_rescues([("ACGT", "AC", 1, 0, "+"),
                                          ("ACGT", "", 1, 0, "+")])
            with pytest.raises(ValueError):
                engine._dispatch_rescues([("ACGT", "AC", -1, 0, "+")])

    def test_per_job_word_budget(self, engines):
        """The budget bounds each job, not the batch: the jobs beside
        an over-budget one resolve exactly as they do alone."""
        pattern, k = "ACGT" * 25, 100
        big = ("A" * (DEFAULT_MAX_WORDS // ((k + 1) * 2)), pattern, k,
               0, "+")
        small = ("ACGT" * 8, "ACGTAC", 2, 0, "+")
        other = ("TT" + pattern + "GG", pattern, 2, 0, "+")
        for name in BACKEND_NAMES:
            engine = engines[name]
            alone = [_rescue(engine, *job[:3]) for job in (small, other)]
            calls = engine.stats.align_calls
            results = engine._dispatch_rescues([small, big, other])
            assert results == [alone[0], None, alone[1]]
            assert None not in alone
            assert engine.stats.align_calls == calls + 2
