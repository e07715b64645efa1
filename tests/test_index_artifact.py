"""Tests for the flat index, ``.sgidx`` artifacts, and worker pools.

Covers the zero-copy artifact contract end to end:

* :class:`~repro.index.FlatIndex` against a catalog assembled from the
  nested-loop minimizer oracle (arrays, statistics, ``layout``), and
  the one-probe ``query`` behind ``frequency`` / ``lookup`` /
  ``lookup_cost`` against its definition;
* artifact round trip (build -> write -> mmap attach) with
  bit-identical mapping results, and version/checksum rejection of
  corrupt, truncated, or stale artifacts;
* fork-shard vs persistent-pool result identity under
  ``jobs in {1, 2, 4}`` for single-end batches and pairs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random

import numpy as np
import pytest

from repro import seq as seqmod
from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.graph.genome_graph import GenomeGraph
from repro.index.flat_index import (
    FlatIndex,
    IndexLayout,
    IndexWidthError,
    LookupCost,
    SeedHit,
    build_flat_index,
)
from repro.core.minseed import MinSeed
from repro.index.minimizer import brute_force_minimizers
from repro.io.artifact import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    ArtifactError,
    is_index_artifact,
    load_index_artifact,
    pack_bases,
    unpack_bases,
)

CONFIG = SeGraMConfig(w=5, k=11, bucket_bits=10)


@pytest.fixture(scope="module")
def reference():
    rng = random.Random(1234)
    seq1 = "".join(rng.choice("ACGT") for _ in range(5_000))
    seq2 = "".join(rng.choice("ACGT") for _ in range(2_500))
    return [("chrA", seq1), ("chrB", seq2)]


@pytest.fixture(scope="module")
def mapper(reference):
    return Mapper(reference, config=CONFIG, max_node_length=512)


@pytest.fixture(scope="module")
def reads(reference):
    rng = random.Random(77)
    out = []
    for i, (_, seq) in enumerate(reference * 10):
        start = rng.randrange(0, len(seq) - 120)
        read = seq[start:start + 120]
        if i % 3 == 0:
            read = seqmod.reverse_complement(read)
        out.append((f"r{i}", read))
    return out


@pytest.fixture()
def artifact(mapper, tmp_path):
    path = tmp_path / "ref.sgidx"
    mapper.save_index(path)
    return path


class TestPackBases:
    def test_roundtrip(self):
        rng = random.Random(5)
        for length in (0, 1, 3, 4, 5, 63, 64, 257):
            text = "".join(rng.choice("ACGT") for _ in range(length))
            assert unpack_bases(pack_bases(text), length) == text

    def test_density(self):
        assert len(pack_bases("A" * 100)) == 25

    def test_non_acgt_rejected(self):
        with pytest.raises(ArtifactError):
            pack_bases("ACGN")


class TestFlatIndexParity:
    """FlatIndex must match the catalog the nested-loop minimizer
    oracle assembles node by node, bit for bit."""

    ARRAYS = ("bucket_starts", "min_hash", "min_loc_start",
              "min_loc_count", "loc_node", "loc_offset")

    @pytest.fixture(scope="class")
    def catalog(self, mapper):
        """``{hash: [(node, offset), ...]}`` from the oracle."""
        catalog: dict[int, list[tuple[int, int]]] = {}
        for node in mapper.graph.nodes():
            for found in brute_force_minimizers(node.sequence,
                                                CONFIG.w, CONFIG.k):
                catalog.setdefault(found.score, []).append(
                    (node.node_id, found.position))
        return catalog

    @pytest.fixture(scope="class")
    def flat(self, mapper):
        return build_flat_index(mapper.graph, w=CONFIG.w, k=CONFIG.k,
                                bucket_bits=CONFIG.bucket_bits)

    def test_layout_across_bucket_widths(self, catalog, flat):
        for bits in (4, 8, 10, 14, 18):
            per_bucket: dict[int, int] = {}
            for hash_value in catalog:
                bucket = hash_value & ((1 << bits) - 1)
                per_bucket[bucket] = per_bucket.get(bucket, 0) + 1
            assert flat.layout(bits) == IndexLayout(
                bucket_bits=bits,
                distinct_minimizers=len(catalog),
                total_locations=sum(map(len, catalog.values())),
                max_minimizers_per_bucket=max(per_bucket.values()),
                max_locations_per_minimizer=max(
                    map(len, catalog.values())),
            )

    def test_statistics(self, catalog, flat):
        assert flat.distinct_minimizers == len(catalog)
        assert flat.total_locations == sum(map(len, catalog.values()))
        assert sorted(flat.frequencies()) == \
            sorted(map(len, catalog.values()))

    @pytest.mark.parametrize("sharding", ["whole"])
    def test_build_matches_brute_force_catalog(self, mapper, catalog,
                                               sharding):
        """The vector build against the oracle's triples laid out by
        :meth:`FlatIndex.from_occurrences`."""
        triples = [(hash_value, node, offset)
                   for hash_value, hits in catalog.items()
                   for node, offset in hits]
        hashes, nodes, offsets = (np.array(column)
                                  for column in zip(*triples))
        expected = FlatIndex.from_occurrences(
            hashes.astype(np.uint64), nodes, offsets,
            w=CONFIG.w, k=CONFIG.k, bucket_bits=CONFIG.bucket_bits)
        built = build_flat_index(
            mapper.graph, w=CONFIG.w, k=CONFIG.k,
            bucket_bits=CONFIG.bucket_bits,
        )
        assert built.distinct_minimizers > 1_000
        for name in self.ARRAYS:
            assert np.array_equal(getattr(built, name),
                                  getattr(expected, name)), name
            assert getattr(built, name).dtype == \
                getattr(expected, name).dtype, name

    def test_empty_index(self):
        flat = FlatIndex.from_occurrences(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint32),
            np.zeros(0, dtype=np.uint32), w=5, k=11, bucket_bits=6,
        )
        assert flat.frequency(42) == 0
        assert flat.lookup(42) == ()
        assert flat.lookup_cost(42).minimizers_scanned == 0
        assert flat.layout().distinct_minimizers == 0


class TestFieldWidths:
    """Values that do not fit the Fig. 6 fields end in a typed error,
    not an ``OverflowError`` or a silent wrap."""

    def test_k_wider_than_the_hash_field(self, mapper):
        with pytest.raises(ValueError, match="k must be <= 32"):
            build_flat_index(mapper.graph, w=5, k=33)
        with pytest.raises(ValueError, match="k must be <= 32"):
            SeGraMConfig(w=5, k=33)
        assert SeGraMConfig(w=5, k=32).k == 32

    @pytest.mark.parametrize("field", ["nodes", "offsets"])
    @pytest.mark.parametrize("value", [1 << 32, -1])
    def test_location_wider_than_32_bits(self, field, value):
        columns = {"hashes": np.array([7, 9], dtype=np.uint64),
                   "nodes": np.array([0, 1], dtype=np.int64),
                   "offsets": np.array([5, 6], dtype=np.int64)}
        columns[field][1] = value
        with pytest.raises(IndexWidthError, match="32-bit"):
            FlatIndex.from_occurrences(**columns, w=5, k=11,
                                       bucket_bits=6)
        columns[field][1] = (1 << 32) - 1
        flat = FlatIndex.from_occurrences(**columns, w=5, k=11,
                                          bucket_bits=6)
        assert flat.total_locations == 2

    def test_hash_wider_than_2k_bits(self):
        with pytest.raises(IndexWidthError, match="22 bits"):
            FlatIndex.from_occurrences(
                np.array([1 << 22], dtype=np.uint64),
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                w=5, k=11, bucket_bits=6)


class TestOneProbeQuery:
    """``query`` answers frequency, access cost and hits from one
    bucket probe, on a built and on a memory-mapped index.  The
    expectation is the definition written out — a linear scan of the
    sorted bucket up to and including the first entry >= the query,
    plus the catalog entry of the minimizer oracle."""

    @pytest.fixture(scope="class")
    def setup(self, mapper, tmp_path_factory):
        path = tmp_path_factory.mktemp("probe") / "ref.sgidx"
        mapper.save_index(path)
        kinds = {
            "flat": build_flat_index(mapper.graph, w=CONFIG.w,
                                     k=CONFIG.k,
                                     bucket_bits=CONFIG.bucket_bits),
            "mapped": load_index_artifact(path).index,
        }
        catalog: dict[int, tuple[SeedHit, ...]] = {}
        for node in mapper.graph.nodes():
            for found in brute_force_minimizers(node.sequence,
                                                CONFIG.w, CONFIG.k):
                catalog[found.score] = catalog.get(found.score, ()) \
                    + (SeedHit(node.node_id, found.position),)
        buckets: dict[int, list[int]] = {}
        for hash_value in catalog:
            buckets.setdefault(hash_value & self.MASK,
                               []).append(hash_value)
        return kinds, catalog, {b: sorted(v)
                                for b, v in buckets.items()}

    MASK = (1 << CONFIG.bucket_bits) - 1
    STEP = 1 << CONFIG.bucket_bits     # next hash of the same bucket

    @staticmethod
    def _expected(catalog, buckets, hash_value):
        scanned = 0
        for candidate in buckets.get(
                hash_value & TestOneProbeQuery.MASK, ()):
            scanned += 1
            if candidate >= hash_value:
                break
        hits = catalog.get(hash_value, ())
        return LookupCost(bucket_probe=1, minimizers_scanned=scanned,
                          locations_fetched=len(hits)), hits

    def _probes(self, catalog, buckets):
        probes = set(catalog)
        for entries in buckets.values():
            # Same bucket: below every entry, just past each entry
            # (between two, or absent), above every entry.
            probes.add(entries[0] % self.STEP)
            probes.update(entry + self.STEP for entry in entries)
        empty = [bucket for bucket in range(self.STEP)
                 if bucket not in buckets]
        assert empty, "fixture lost its empty buckets"
        probes.update(empty[:20])
        probes.update(bucket + 7 * self.STEP for bucket in empty[:20])
        absent = probes - set(catalog)
        assert len(absent) > len(buckets)
        return sorted(probes)

    @pytest.mark.parametrize("kind", ["flat", "mapped"])
    def test_query_matches_the_definition(self, setup, kind):
        kinds, catalog, buckets = setup
        index = kinds[kind]
        for hash_value in self._probes(catalog, buckets):
            cost, hits = self._expected(catalog, buckets, hash_value)
            query = index.query(hash_value)
            assert query.cost == cost, hash_value
            assert query.frequency == len(hits)
            assert query.hits() == hits
            # The three older entry points are views of the query.
            assert index.lookup_cost(hash_value) == cost
            assert index.frequency(hash_value) == len(hits)
            assert index.lookup(hash_value) == hits

    @pytest.mark.parametrize("kind", ["flat", "mapped"])
    def test_probe_is_query_for_arrays(self, setup, kind):
        """One searchsorted over the derived key ≡ one ``query`` per
        hash: stored hashes, absent ones between / below / above the
        rows of their bucket, empty buckets, and hashes wider than any
        stored one."""
        kinds, catalog, buckets = setup
        index = kinds[kind]
        rng = random.Random(31)
        probes = self._probes(catalog, buckets) \
            + [rng.randrange(1 << (2 * CONFIG.k)) for _ in range(500)] \
            + [2**60 + 13, 2**64 - 1, 1 << (2 * CONFIG.k)] \
            + [entry | 1 << (2 * CONFIG.k) for entry in catalog]
        rng.shuffle(probes)
        rows, frequency, scanned = index.probe(
            np.array(probes, dtype=np.uint64))
        present = []
        for hash_value, row, count, steps in zip(
                probes, rows.tolist(), frequency.tolist(),
                scanned.tolist()):
            query = index.query(hash_value)
            assert (1, steps, count) == (
                query.cost.bucket_probe, query.cost.minimizers_scanned,
                query.cost.locations_fetched), hash_value
            if count:
                present.append((row, query.hits()))
        nodes, offsets = index.locations(
            np.array([row for row, _ in present]))
        assert [SeedHit(node, offset) for node, offset
                in zip(nodes.tolist(), offsets.tolist())] == \
            [hit for _, hits in present for hit in hits]

    @pytest.mark.parametrize("k, bucket_bits", [(3, 8), (4, 8), (2, 3)])
    def test_probe_when_the_hash_is_narrower_than_the_bucket_field(
            self, k, bucket_bits):
        """2k <= bucket_bits: every hash is its own bucket and the
        probe key is the hash itself."""
        rng = random.Random(k)
        graph = GenomeGraph.from_linear(
            "".join(rng.choice("ACGT") for _ in range(90)),
            node_length=30)
        index = build_flat_index(graph, w=2, k=k,
                                 bucket_bits=bucket_bits)
        probes = list(range(1 << (2 * k))) + [1 << (2 * k), 2**63]
        rows, frequency, scanned = index.probe(
            np.array(probes, dtype=np.uint64))
        assert 0 < np.count_nonzero(frequency) < 1 << (2 * k)
        for hash_value, count, steps in zip(
                probes, frequency.tolist(), scanned.tolist()):
            cost = index.query(hash_value).cost
            assert (steps, count) == (cost.minimizers_scanned,
                                      cost.locations_fetched)

    def test_seeding_identical_across_index_kinds(self, setup, mapper,
                                                  reads):
        kinds, catalog, buckets = setup
        seeders = {kind: MinSeed(mapper.graph, index, error_rate=0.05)
                   for kind, index in kinds.items()}
        for _, read in reads:
            regions, stats = seeders["flat"].seed(read)
            assert stats.index_accesses == sum(
                self._expected(catalog, buckets,
                               minimizer.score)[0].total_accesses
                for minimizer in seeders["flat"].find_minimizers(read))
            assert seeders["mapped"].seed(read) == (regions, stats)


class TestArtifactRoundTrip:
    def test_artifact_bytes_are_pinned(self, artifact):
        # sha256 of this fixture's artifact as written by the commit
        # before the vector build (663fff1): the build path changed,
        # the bytes must not.
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == \
            "36aee3ee7bd3c8086873638b2d019c88" \
            "fd8600634afb1483547f22d0dc59b6e4"

    def test_magic_sniffer(self, artifact, tmp_path):
        assert is_index_artifact(artifact)
        other = tmp_path / "not.sgidx"
        other.write_bytes(b"definitely not an artifact")
        assert not is_index_artifact(other)
        assert not is_index_artifact(tmp_path / "missing")

    def test_attach_preserves_reference(self, mapper, artifact):
        attached = Mapper.from_artifact(artifact)
        assert attached.contigs == mapper.contigs
        assert attached.reference.names == mapper.reference.names
        assert attached.reference.char_spans() == \
            mapper.reference.char_spans()
        assert attached.graph.node_count == mapper.graph.node_count
        assert attached.graph.edge_count == mapper.graph.edge_count
        for node in range(mapper.graph.node_count):
            assert attached.graph.sequence_of(node) == \
                mapper.graph.sequence_of(node)
            assert attached.graph.successors(node) == \
                mapper.graph.successors(node)

    def test_attach_index_is_memory_mapped(self, artifact):
        attached = Mapper.from_artifact(artifact)
        index = attached.engine.index
        assert isinstance(index, FlatIndex)
        base = index.min_hash
        while isinstance(base, np.ndarray) and \
                not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        assert not index.min_hash.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            index.min_hash[0] = 0  # read-only pages

    def test_mapping_parity(self, mapper, artifact, reads):
        attached = Mapper.from_artifact(artifact)
        assert attached.map_batch(list(reads)) == \
            mapper.map_batch(list(reads))

    def test_pair_parity(self, mapper, artifact, reference):
        rng = random.Random(31)
        seq = reference[0][1]
        pairs = []
        for i in range(8):
            start = rng.randrange(0, len(seq) - 400)
            pairs.append((
                f"p{i}", seq[start:start + 100],
                seqmod.reverse_complement(
                    seq[start + 250:start + 350]),
            ))
        attached = Mapper.from_artifact(artifact)
        assert attached.map_pairs(list(pairs)) == \
            mapper.map_pairs(list(pairs))

    def test_params_override_config(self, artifact):
        attached = Mapper.from_artifact(
            artifact, config=SeGraMConfig(w=99, k=31, bucket_bits=4))
        assert attached.engine.config.w == CONFIG.w
        assert attached.engine.config.k == CONFIG.k
        assert attached.engine.config.bucket_bits == \
            CONFIG.bucket_bits

    def test_graph_backed_contig(self, tmp_path):
        from repro.graph.genome_graph import GenomeGraph

        graph = GenomeGraph(name="toy")
        a = graph.add_node("ACGTACGTACGTACGTACGT")
        b = graph.add_node("TTTT")
        c = graph.add_node("GGGGCCCCAAAATTTTGGGG")
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(a, c)
        original = Mapper(graph, config=SeGraMConfig(
            w=3, k=5, bucket_bits=8))
        path = tmp_path / "g.sgidx"
        original.save_index(path)
        attached = Mapper.from_artifact(path)
        reads = [("x", "ACGTACGTTTTTGGGGCCCC"),
                 ("y", "GGGGCCCCAAAATTTT")]
        assert attached.map_batch(list(reads)) == \
            original.map_batch(list(reads))
        assert attached.contigs == original.contigs


class TestArtifactRejection:
    """Corrupt, truncated, or stale artifacts must be refused."""

    def test_bad_magic(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[0] ^= 0xFF
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="magic"):
            load_index_artifact(artifact)

    def test_stale_version(self, artifact):
        data = bytearray(artifact.read_bytes())
        # The u16 format version sits right after the 6-byte magic.
        version = FORMAT_VERSION + 1
        data[len(MAGIC):len(MAGIC) + 2] = version.to_bytes(2, "little")
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="rebuild"):
            load_index_artifact(artifact)

    def test_corrupt_payload(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[HEADER_SIZE + len(data) // 2] ^= 0x01
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            load_index_artifact(artifact)

    def test_truncated_payload(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[:len(data) - 64])
        with pytest.raises(ArtifactError, match="truncated"):
            load_index_artifact(artifact)

    def test_truncated_header(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:HEADER_SIZE - 8])
        with pytest.raises(ArtifactError, match="truncated"):
            load_index_artifact(artifact)

    def test_verify_false_skips_checksum(self, artifact):
        import json
        import struct

        data = bytearray(artifact.read_bytes())
        # Flip a byte in the alignment padding between two sections:
        # the checksum breaks but every array stays intact, so
        # verify=False must still attach.
        meta_len = struct.unpack_from("<I", data, len(MAGIC) + 2)[0]
        meta = json.loads(
            bytes(data[HEADER_SIZE:HEADER_SIZE + meta_len]))
        used = sorted(
            (entry["offset"], entry["offset"] + entry["nbytes"])
            for entry in meta["arrays"].values()
        )
        pad = next((end for _, end in used
                    if end % 64 and end < len(data)), None)
        assert pad is not None, "no padding byte between sections"
        data[pad] ^= 0x01  # offsets are absolute file positions
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            load_index_artifact(artifact)
        loaded = load_index_artifact(artifact, verify=False)
        assert loaded.index.total_locations > 0


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestPoolIdentity:
    """An artifact-attached mapper, a mapper built in-process, and the
    sequential drive agree at every ``jobs``: both shard across their
    engine's standing forked pool."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_single_end(self, artifact, reference, reads, jobs):
        with Mapper.from_artifact(artifact) as attached, \
                Mapper(reference, config=CONFIG,
                       max_node_length=512) as built:
            sequential = attached.map_batch(list(reads))
            assert attached.map_batch(list(reads), jobs=jobs) \
                == sequential
            assert built.map_batch(list(reads), jobs=jobs) \
                == sequential

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pairs(self, artifact, reference, jobs):
        rng = random.Random(55)
        seq = reference[0][1]
        pairs = []
        for i in range(6):
            start = rng.randrange(0, len(seq) - 400)
            pairs.append((
                f"p{i}", seq[start:start + 100],
                seqmod.reverse_complement(
                    seq[start + 250:start + 350]),
            ))
        with Mapper.from_artifact(artifact) as attached, \
                Mapper(reference, config=CONFIG,
                       max_node_length=512) as built:
            sequential = attached.map_pairs(list(pairs))
            assert attached.map_pairs(list(pairs), jobs=jobs) \
                == sequential
            assert built.map_pairs(list(pairs), jobs=jobs) \
                == sequential

    def test_pool_reuse_across_batches(self, artifact, reads):
        """Two ``jobs=2`` calls on one attached mapper run on the same
        standing workers, and their records concatenate to the
        sequential result."""
        before = _worker_pids()
        half = len(reads) // 2
        with Mapper.from_artifact(artifact) as attached:
            expected = attached.map_batch(list(reads))
            first = attached.map_batch(list(reads[:half]), jobs=2)
            workers = _worker_pids() - before
            second = attached.map_batch(list(reads[half:]), jobs=2)
            assert _worker_pids() - before == workers
        assert len(workers) == 2
        assert first + second == expected

    def test_pool_requires_artifact(self, reference, reads):
        """No artifact is needed to map at ``jobs > 1``: a mapper
        built in-process forks its own workers."""
        with Mapper(reference, config=CONFIG,
                    max_node_length=512) as fresh:
            expected = fresh.map_batch(list(reads))
            assert fresh.map_batch(list(reads), jobs=2) == expected

    def test_pool_stats_merge(self, artifact, reads):
        """Per-shard statistics merge back through ``jobs=2``."""
        baseline = Mapper.from_artifact(artifact)
        baseline.map_batch(list(reads))
        with Mapper.from_artifact(artifact) as attached:
            attached.map_batch(list(reads), jobs=2)
        assert attached.stats.reads == baseline.stats.reads
        assert attached.stats.reads_mapped == \
            baseline.stats.reads_mapped
        assert attached.stats.regions_aligned == \
            baseline.stats.regions_aligned
