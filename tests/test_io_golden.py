"""Golden-file tests for the SAM and GAF writers.

A small deterministic read set is mapped with a pinned configuration
and the emitted SAM/GAF is compared **byte-for-byte** against files
checked in under ``tests/golden/``.  Any refactor of the pipeline, the
alignment kernel, or the writers that silently changes output
formatting (or mapping results) fails here first.

Regenerate after an *intentional* output change with::

    PYTHONPATH=src python tests/test_io_golden.py --regenerate

and review the golden diff like any other code change.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import pytest

from repro import seq as seqmod
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.io.gaf import (
    GafWriter,
    read_gaf,
    result_to_gaf,
    validate_gaf_record,
)
from repro.io.sam import (
    SamWriter,
    read_sam,
    result_to_sam,
    validate_sam_record,
)
from repro.sim.reference import random_reference

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SAM = GOLDEN_DIR / "expected.sam"
GOLDEN_GAF = GOLDEN_DIR / "expected.gaf"
#: The same workload under ``early_exit_distance``: GAF bytes (MAPQ
#: only sees the regions aligned before the exit; one file, because
#: on this workload no threshold changes a MAPQ) plus, per threshold,
#: the counters that say where each orientation stopped.  At 6 every
#: mapped read retires after its first region; at 0 the exact ones
#: still do, while the distance-3 read stays live — its first
#: alignment subsumes its other three regions, so those are dropped
#: by the subsumption rule, not by the exit.
GOLDEN_EARLY_EXIT_GAF = GOLDEN_DIR / "expected_early_exit.gaf"
GOLDEN_EARLY_EXIT_COUNTERS = GOLDEN_DIR / "expected_early_exit.json"
EARLY_EXIT_DISTANCES = (6, 0)

REFERENCE_NAME = "chr_golden"


def _workload() -> tuple[str, list[tuple[str, str]]]:
    """The pinned reference and read set (fully deterministic)."""
    rng = random.Random(0x601D)
    reference = random_reference(3_000, rng)
    exact = reference[500:740]
    # One substitution, one deletion, one insertion — hand-placed so
    # the expected CIGAR features every operation.
    edited = list(reference[1_200:1_440])
    edited[40] = "A" if edited[40] != "A" else "C"
    del edited[120]
    edited.insert(200, "G")
    reverse = seqmod.reverse_complement(reference[2_100:2_340])
    unmapped = "".join(rng.choice("ACGT") for _ in range(240))
    return reference, [
        ("read_exact", exact),
        ("read_edited", "".join(edited)),
        ("read_reverse", reverse),
        ("read_unmapped", unmapped),
    ]


def _mapper(reference: str, **overrides) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.10,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True, **overrides,
    )
    return SeGraM.from_reference(reference, config=config,
                                 name=REFERENCE_NAME,
                                 max_node_length=1_024)


def _render() -> tuple[str, str]:
    """Map the pinned workload and render SAM + GAF as strings."""
    reference, reads = _workload()
    mapper = _mapper(reference)
    results = [(mapper.map_read(sequence, name), sequence)
               for name, sequence in reads]
    sam_buffer = io.StringIO()
    with SamWriter(sam_buffer, mapper.refs.sam_contigs()) as writer:
        for result, sequence in results:
            writer.write(result_to_sam(result, sequence))
    return sam_buffer.getvalue(), _gaf_text(mapper, results)


def _gaf_text(mapper: SeGraM, results) -> str:
    """GAF for ``(result, sequence)`` pairs (unmapped reads have no
    record)."""
    buffer = io.StringIO()
    records = [result_to_gaf(result, mapper.graph, sequence)
               for result, sequence in results]
    with GafWriter(buffer) as writer:
        for record in records:
            if record is not None:
                writer.write(record)
    return buffer.getvalue()


def _render_early_exit(distance: int,
                       batched: bool = False) -> tuple[str, dict]:
    """Map the pinned workload with the early exit on; render the GAF
    and the exit-sensitive counters."""
    reference, reads = _workload()
    mapper = _mapper(reference, early_exit_distance=distance)
    if batched:
        results = mapper.map_batch(reads)
    else:
        results = [mapper.map_read(sequence, name)
                   for name, sequence in reads]
    gaf_text = _gaf_text(mapper, zip(
        results, (sequence for _, sequence in reads)))
    stats = mapper.stats
    return gaf_text, {
        "regions_aligned": stats.regions_aligned,
        "regions_subsumed": stats.regions_subsumed,
        "windows": stats.windows,
        "rescues": stats.rescues,
        "align_dropped": stats.stage("align").dropped,
    }


@pytest.fixture(scope="module")
def rendered() -> tuple[str, str]:
    return _render()


class TestGoldenOutput:
    def test_sam_matches_golden_bytes(self, rendered):
        sam_text, _ = rendered
        assert GOLDEN_SAM.exists(), \
            "golden SAM missing; run this module with --regenerate"
        assert sam_text.encode("ascii") == GOLDEN_SAM.read_bytes()

    def test_gaf_matches_golden_bytes(self, rendered):
        _, gaf_text = rendered
        assert GOLDEN_GAF.exists(), \
            "golden GAF missing; run this module with --regenerate"
        assert gaf_text.encode("ascii") == GOLDEN_GAF.read_bytes()

    def test_workload_covers_the_format(self, rendered):
        """The fixture must keep exercising every format feature."""
        sam_text, gaf_text = rendered
        records = read_sam(io.StringIO(sam_text))
        assert [r.qname for r in records] == [
            "read_exact", "read_edited", "read_reverse",
            "read_unmapped",
        ]
        by_name = {r.qname: r for r in records}
        assert by_name["read_exact"].cigar == "240="
        assert not by_name["read_exact"].is_reverse
        assert by_name["read_edited"].edit_distance == 3
        for op in "=XID":
            assert op in by_name["read_edited"].cigar
        assert by_name["read_reverse"].is_reverse
        assert by_name["read_unmapped"].is_unmapped
        assert len(read_gaf(io.StringIO(gaf_text))) == 3  # mapped only

    def test_reverse_strand_seq_is_reverse_complement(self, rendered):
        """SAM spec: FLAG 0x10 stores SEQ reverse-complemented.

        The golden read_reverse input is the reverse complement of a
        reference slice, so its stored SEQ must be byte-for-byte the
        reverse complement of the input read — i.e. the reference
        slice itself (the regression the PR 3 bugfix pins)."""
        sam_text, _ = rendered
        _, reads = _workload()
        read_of = dict(reads)
        records = {r.qname: r for r in read_sam(io.StringIO(sam_text))}
        record = records["read_reverse"]
        assert record.seq == \
            seqmod.reverse_complement(read_of["read_reverse"])
        # Forward-strand records keep the read as sequenced.
        assert records["read_exact"].seq == read_of["read_exact"]

    def test_golden_records_validate(self, rendered):
        sam_text, gaf_text = rendered
        for record in read_sam(io.StringIO(sam_text)):
            validate_sam_record(record)
        reference, _ = _workload()
        graph = _mapper(reference).graph
        for record in read_gaf(io.StringIO(gaf_text)):
            validate_gaf_record(record, graph)

    def test_backends_agree_with_golden(self, rendered):
        """The golden bytes are reproduced under the other name the
        ignored ``align_backend`` field accepts."""
        sam_text, gaf_text = rendered
        reference, reads = _workload()
        config = SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.10,
            windowing=WindowingConfig(window_size=128, overlap=48,
                                      k=16),
            max_seeds_per_read=4, both_strands=True,
            align_backend="numpy",
        )
        mapper = SeGraM.from_reference(reference, config=config,
                                       name=REFERENCE_NAME,
                                       max_node_length=1_024)
        results = [(mapper.map_read(sequence, name), sequence)
                   for name, sequence in reads]
        buffer = io.StringIO()
        with SamWriter(buffer, mapper.refs.sam_contigs()) as writer:
            for result, sequence in results:
                writer.write(result_to_sam(result, sequence))
        assert buffer.getvalue() == sam_text
        assert _gaf_text(mapper, results) == gaf_text


class TestEarlyExitGolden:
    """``early_exit_distance`` retires an orientation after the first
    region at or below the threshold: which regions got aligned shows
    in MAPQ and in the counters, whatever the batch shape."""

    @pytest.fixture(scope="class")
    def golden_counters(self) -> dict:
        return json.loads(
            GOLDEN_EARLY_EXIT_COUNTERS.read_text(encoding="ascii"))

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["per_read", "one_batch"])
    @pytest.mark.parametrize("distance", EARLY_EXIT_DISTANCES)
    def test_matches_golden(self, golden_counters, distance, batched):
        gaf_text, counters = _render_early_exit(distance, batched)
        assert gaf_text.encode("ascii") == \
            GOLDEN_EARLY_EXIT_GAF.read_bytes()
        assert counters == golden_counters[str(distance)]

    def test_exit_actually_fires(self, golden_counters):
        # The align stage drops what an alignment subsumed and what
        # the exit left unpulled; only the latter is the exit's doing.
        skipped = [golden_counters[str(distance)]["align_dropped"]
                   - golden_counters[str(distance)]["regions_subsumed"]
                   for distance in EARLY_EXIT_DISTANCES]
        # Fires at both thresholds, and at different regions.
        assert all(skipped) and len(set(skipped)) == len(skipped)


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    sam_text, gaf_text = _render()
    GOLDEN_SAM.write_bytes(sam_text.encode("ascii"))
    GOLDEN_GAF.write_bytes(gaf_text.encode("ascii"))
    print(f"wrote {GOLDEN_SAM} ({len(sam_text)} bytes) and "
          f"{GOLDEN_GAF} ({len(gaf_text)} bytes)")
    rendered = {distance: _render_early_exit(distance)
                for distance in EARLY_EXIT_DISTANCES}
    exit_gaf, = {gaf for gaf, _ in rendered.values()}
    counters = {str(distance): found
                for distance, (_, found) in rendered.items()}
    GOLDEN_EARLY_EXIT_GAF.write_bytes(exit_gaf.encode("ascii"))
    GOLDEN_EARLY_EXIT_COUNTERS.write_text(
        json.dumps(counters, indent=1, sort_keys=True) + "\n",
        encoding="ascii")
    print(f"wrote {GOLDEN_EARLY_EXIT_GAF} and "
          f"{GOLDEN_EARLY_EXIT_COUNTERS}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        raise SystemExit("usage: test_io_golden.py --regenerate")
