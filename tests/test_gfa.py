"""Tests for GFA import/export."""

from __future__ import annotations

import gzip
import io

import pytest

from repro.graph.genome_graph import GenomeGraph
from repro.io.gfa import GfaFormatError, read_gfa, write_gfa


def diamond() -> GenomeGraph:
    graph = GenomeGraph("diamond")
    a, b, c, d = (graph.add_node(s) for s in ("ACG", "T", "G", "ACGT"))
    graph.add_edge(a, b)
    graph.add_edge(a, c)
    graph.add_edge(b, d)
    graph.add_edge(c, d)
    return graph


class TestWrite:
    def test_format(self):
        buffer = io.StringIO()
        write_gfa(diamond(), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("H")
        assert "S\t0\tACG" in lines
        assert "L\t0\t+\t1\t+\t0M" in lines


class TestRead:
    def test_roundtrip(self):
        buffer = io.StringIO()
        original = diamond()
        write_gfa(original, buffer)
        buffer.seek(0)
        parsed = read_gfa(buffer)
        assert parsed.node_count == original.node_count
        assert sorted(parsed.edges()) == sorted(original.edges())
        assert [n.sequence for n in parsed.nodes()] == \
            [n.sequence for n in original.nodes()]

    def test_gzipped_file(self, tmp_path, small_graph):
        path = tmp_path / "graph.gfa"
        write_gfa(small_graph, path)
        packed = tmp_path / "graph.gfa.gz"
        packed.write_bytes(gzip.compress(path.read_bytes()))
        parsed = read_gfa(packed)
        assert [n.sequence for n in parsed.nodes()] == \
            [n.sequence for n in small_graph.nodes()]
        assert sorted(parsed.edges()) == sorted(small_graph.edges())

    def test_gz_path_writes_gzip(self, tmp_path, small_graph):
        plain, packed = tmp_path / "graph.gfa", tmp_path / "graph.gfa.gz"
        write_gfa(small_graph, plain)
        write_gfa(small_graph, packed)
        assert gzip.decompress(packed.read_bytes()) == \
            plain.read_bytes()
        parsed = read_gfa(packed)
        assert [n.sequence for n in parsed.nodes()] == \
            [n.sequence for n in small_graph.nodes()]
        assert sorted(parsed.edges()) == sorted(small_graph.edges())

    def test_roundtrip_file(self, tmp_path, small_graph):
        path = tmp_path / "graph.gfa"
        write_gfa(small_graph, path)
        parsed = read_gfa(path)
        assert parsed.node_count == small_graph.node_count
        assert parsed.edge_count == small_graph.edge_count
        assert parsed.total_sequence_length == \
            small_graph.total_sequence_length

    def test_arbitrary_segment_names(self):
        text = "S\tfoo\tAC\nS\tbar\tGT\nL\tfoo\t+\tbar\t+\t0M\n"
        graph = read_gfa(io.StringIO(text))
        assert graph.node_count == 2
        assert list(graph.edges()) == [(0, 1)]

    def test_links_before_segments_accepted(self):
        text = "L\ta\t+\tb\t+\t0M\nS\ta\tAC\nS\tb\tGT\n"
        graph = read_gfa(io.StringIO(text))
        assert list(graph.edges()) == [(0, 1)]

    def test_path_lines_ignored(self):
        text = "S\ta\tAC\nP\tp1\ta+\t*\n"
        assert read_gfa(io.StringIO(text)).node_count == 1

    def test_duplicate_segment_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("S\ta\tAC\nS\ta\tGT\n"))

    def test_reverse_strand_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t-\t0M\n"))

    def test_star_sequence_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("S\ta\t*\n"))

    def test_unknown_record_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("Z\tx\n"))

    def test_link_to_missing_segment_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("S\ta\tAC\nL\ta\t+\tb\t+\t0M\n"))

    def test_nonzero_overlap_rejected(self):
        with pytest.raises(GfaFormatError):
            read_gfa(io.StringIO("S\ta\tAC\nS\tb\tGT\nL\ta\t+\tb\t+\t5M\n"))
