"""Tests for character-level linearization and hop statistics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_linearize as oracle

from repro.core.bitalign import _hop_distances
from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph, GraphError
from repro.graph.linearize import (
    LinearizedGraph,
    hop_coverage,
    hop_length_distribution,
    linearize,
)
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


def bubble() -> GenomeGraph:
    """AC -> (G | T) -> AC, topologically sorted."""
    graph = GenomeGraph()
    a = graph.add_node("AC")
    b = graph.add_node("G")
    c = graph.add_node("T")
    d = graph.add_node("AC")
    graph.add_edge(a, b)
    graph.add_edge(a, c)
    graph.add_edge(b, d)
    graph.add_edge(c, d)
    return graph


class TestLinearize:
    def test_chars_concatenated_in_node_order(self):
        lin = linearize(bubble())
        assert lin.chars == "ACGTAC"

    def test_within_node_successors(self):
        lin = linearize(bubble())
        assert lin.successors[0] == (1,)  # A -> C within node 0

    def test_branch_successors(self):
        lin = linearize(bubble())
        # C (last char of node 0) -> G (pos 2) and T (pos 3).
        assert lin.successors[1] == (2, 3)

    def test_hop_into_merge_node(self):
        lin = linearize(bubble())
        # G (pos 2) -> A of node 3 (pos 4): distance 2 hop.
        assert lin.successors[2] == (4,)
        # T (pos 3) -> A (pos 4): adjacent.
        assert lin.successors[3] == (4,)

    def test_last_char_no_successors(self):
        lin = linearize(bubble())
        assert lin.successors[5] == ()

    def test_node_ids_and_offsets(self):
        lin = linearize(bubble())
        assert lin.node_ids == [0, 0, 1, 2, 3, 3]
        assert lin.node_offsets == [0, 1, 0, 0, 0, 1]

    def test_hop_counting(self):
        lin = linearize(bubble())
        # Inter-node hops with distance > 1: C->T (2), G->A (2).
        assert lin.total_hops == 2
        assert lin.dropped_hops == 0
        assert lin.hop_coverage == 1.0

    def test_hop_limit_drops_long_hops(self):
        lin = linearize(bubble(), hop_limit=1)
        assert lin.dropped_hops == 2
        assert lin.successors[1] == (2,)   # C->T dropped
        assert lin.successors[2] == ()     # G->A dropped
        assert lin.hop_coverage == 0.0

    def test_hop_limit_validation(self):
        with pytest.raises(GraphError):
            linearize(bubble(), hop_limit=0)

    def test_requires_topological_sort(self):
        graph = GenomeGraph()
        a, b = graph.add_node("A"), graph.add_node("C")
        graph.add_edge(b, a)
        with pytest.raises(GraphError):
            linearize(graph)

    def test_linear_graph_is_chain(self):
        graph = GenomeGraph.from_linear("ACGTACGT", node_length=3)
        lin = linearize(graph)
        assert lin.is_chain()
        assert lin.total_hops == 0


class TestSlice:
    def test_slice_clips_successors(self):
        lin = linearize(bubble())
        window = lin.slice(0, 4)  # ACGT, hop G->A (pos 4) clipped
        assert window.chars == "ACGT"
        assert window.successors[2] == ()
        assert window.successors[1] == (2, 3)

    def test_slice_positions_rebased(self):
        lin = linearize(bubble())
        window = lin.slice(2, 6)
        assert window.chars == "GTAC"
        assert window.successors[0] == (2,)  # G -> A rebased

    def test_invalid_slice_rejected(self):
        lin = linearize(bubble())
        with pytest.raises(GraphError):
            lin.slice(3, 3)
        with pytest.raises(GraphError):
            lin.slice(0, 99)


class TestReversed:
    """``reversed_view()`` reads the same address range through the
    predecessor table; pinned here on hop-bearing graphs, where
    positions have several predecessors."""

    @pytest.fixture(params=["bubble", "variants"])
    def lin(self, request):
        if request.param == "bubble":
            return linearize(bubble())
        built = build_graph("ACGTACGTACGTACGT", [
            Variant(3, 4, "G"), Variant(6, 6, "TT"),
            Variant(9, 12, ""), Variant(9, 10, "A")])
        return linearize(built.graph)

    def test_successors_are_sorted_predecessors(self, lin):
        n = len(lin)
        rev = lin.reversed_view()
        assert max(len(s) for s in rev.successors) > 1
        for position, succs in enumerate(rev.successors):
            assert list(succs) == sorted(set(succs))
            assert {n - 1 - s for s in succs} == {
                source for source, targets in enumerate(lin.successors)
                if n - 1 - position in targets}

    def test_random_dags_match_per_edge_rebuild(self):
        """Any forward-edged successor table — missing ``i + 1``
        edges, dead ends, hops to anywhere — reverses to the sorted
        predecessor table a per-edge rebuild gives."""
        rng = random.Random(0x2E7)
        for _ in range(300):
            n = rng.choice((1, 2, 3, 5, 9, 40))
            successors = []
            for i in range(n):
                succs = {i + 1} if i + 1 < n and rng.random() < 0.85 \
                    else set()
                if i + 2 < n and rng.random() < 0.25:
                    succs.update(rng.randint(i + 1, n - 1)
                                 for _ in range(rng.randint(1, 3)))
                successors.append(tuple(sorted(succs)))
            lin = LinearizedGraph(
                chars="A" * n, successors=successors,
                node_ids=list(range(n)), node_offsets=[0] * n)
            expected = [[] for _ in range(n)]
            for position, succs in enumerate(successors):
                for succ in succs:
                    expected[n - 1 - succ].append(n - 1 - position)
            assert lin.reversed_view().successors == \
                [tuple(sorted(s)) for s in expected], successors

    def test_round_trip(self, lin):
        rev = lin.reversed_view()
        assert rev.chars == lin.chars[::-1]
        assert rev.node_ids == lin.node_ids[::-1]
        assert rev.reversed_view().successors == lin.successors
        assert lin.reversed_view() is lin.reversed_view()


class TestLinearizeLongNodes:
    def test_per_node_fields_of_multi_character_nodes(self):
        """Nodes are expanded a whole node at a time; only a node's
        last character carries its hop targets."""
        built = build_graph("ACGTACGTAC", [Variant(4, 6, "T")])
        lin = linearize(built.graph)
        graph = built.graph
        position = 0
        for node in graph.nodes():
            for local in range(len(node.sequence)):
                assert lin.node_ids[position] == node.node_id
                assert lin.node_offsets[position] == local
                assert lin.chars[position] == node.sequence[local]
                if local < len(node.sequence) - 1:
                    assert lin.successors[position] == (position + 1,)
                else:
                    offsets = graph.offsets()
                    assert lin.successors[position] == tuple(sorted(
                        offsets[s]
                        for s in graph.successors(node.node_id)))
                position += 1
        assert position == len(lin) == len(lin.successors)


class TestHopBits:
    def test_matrix_matches_successors(self):
        lin = linearize(bubble())
        bits = lin.hopbits()
        for position, succs in enumerate(lin.successors):
            for succ in succs:
                assert bits[position, succ]
        assert bits.sum() == sum(len(s) for s in lin.successors)

    def test_size_guard(self):
        lin = linearize(bubble())
        with pytest.raises(GraphError):
            lin.hopbits(max_size=2)


class TestHopStatistics:
    def test_distribution_of_bubble(self):
        histogram = hop_length_distribution(bubble())
        assert histogram == {2: 2}

    def test_linear_graph_has_no_hops(self):
        graph = GenomeGraph.from_linear("ACGTACGT", node_length=2)
        assert hop_length_distribution(graph) == {}
        assert hop_coverage(graph, [1, 4]) == {1: 1.0, 4: 1.0}

    def test_coverage_monotone_in_limit(self, small_graph):
        limits = list(range(1, 20))
        coverage = hop_coverage(small_graph, limits)
        values = [coverage[l] for l in limits]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_snp_bubbles_have_short_hops(self):
        # Paper Fig. 13 rationale: SNPs create hops of length 2.
        built = build_graph("ACGTACGTACGT", [Variant(5, 6, "T")])
        histogram = hop_length_distribution(built.graph)
        assert set(histogram) == {2}

    def test_sv_creates_long_hop(self):
        # A 6-base deletion creates a hop skipping 6 characters.
        built = build_graph("ACGTACGTACGT", [Variant(3, 9, "")])
        histogram = hop_length_distribution(built.graph)
        assert max(histogram) == 7


# ----------------------------------------------------------------------
# Sparse views against the dense oracle
# ----------------------------------------------------------------------

@st.composite
def sorted_graphs(draw):
    """A topologically sorted graph with every shape a node end can
    take: the next node only, the next node plus hops, hops only (its
    only successors are *not* the next id), or nothing (a dead end);
    single-base nodes are common."""
    count = draw(st.integers(1, 9))
    graph = GenomeGraph()
    for _ in range(count):
        graph.add_node(draw(st.text("ACGT", min_size=1, max_size=4)))
    for node in range(count - 1):
        shape = draw(st.sampled_from(
            ["next", "next", "next+hops", "hops", "none"]))
        if shape in ("next", "next+hops"):
            graph.add_edge(node, node + 1)
        if shape in ("next+hops", "hops") and node + 2 < count:
            for target in draw(st.sets(
                    st.integers(node + 2, count - 1), min_size=1,
                    max_size=3)):
                graph.add_edge(node, target)
    return graph


def _cut(draw, length):
    start = draw(st.integers(0, length - 1))
    return start, draw(st.integers(start + 1, length))


def _assert_same(sparse: LinearizedGraph, dense: oracle.LinearizedGraph):
    assert len(sparse) == len(dense)
    assert sparse.chars == dense.chars
    assert sparse.successors == dense.successors
    assert sparse.node_ids == dense.node_ids
    assert sparse.node_offsets == dense.node_offsets
    assert sparse.total_hops == dense.total_hops
    assert sparse.dropped_hops == dense.dropped_hops
    assert sparse.hop_coverage == dense.hop_coverage
    assert sparse.hop_limit == dense.hop_limit
    assert sparse.is_chain() == dense.is_chain()
    assert _hop_distances(sparse) == \
        oracle.hop_distances(dense.successors)
    assert [sparse.node_at(p) for p in range(len(sparse))] == \
        list(zip(dense.node_ids, dense.node_offsets))


class TestSparseMatchesDense:
    """The hop-sparse graph and every view of it against the dense
    per-character implementation it replaced (``tests/oracles``)."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), sorted_graphs(),
           st.sampled_from([None, 1, 3, 12]))
    def test_graph_slices_and_reversals(self, data, graph, hop_limit):
        sparse = linearize(graph, hop_limit=hop_limit)
        dense = oracle.linearize(graph, hop_limit=hop_limit)
        _assert_same(sparse, dense)
        _assert_same(sparse.reversed_view(), dense.reversed())

        a, b = _cut(data.draw, len(dense))
        view, window = sparse.slice(a, b), dense.slice(a, b)
        _assert_same(view, window)
        c, d = _cut(data.draw, b - a)
        _assert_same(view.slice(c, d), window.slice(c, d))

        rev, mirror = view.reversed_view(), window.reversed()
        _assert_same(rev, mirror)
        _assert_same(rev.reversed_view(), window)
        _assert_same(rev.slice(c, d), mirror.slice(c, d))
        _assert_same(rev.slice(c, d).reversed_view(),
                     mirror.slice(c, d).reversed())
        _assert_same(sparse.reversed_view().slice(a, b),
                     dense.reversed().slice(a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), sorted_graphs())
    def test_dense_input_form_round_trips(self, data, graph):
        """The keyword constructor compresses any dense table —
        here a dense *slice*, whose node offsets do not start at 0 —
        to the same graph."""
        dense = oracle.linearize(graph)
        a, b = _cut(data.draw, len(dense))
        window = dense.slice(a, b)
        _assert_same(LinearizedGraph(
            chars=window.chars, successors=window.successors,
            node_ids=window.node_ids,
            node_offsets=window.node_offsets,
            total_hops=window.total_hops,
            dropped_hops=window.dropped_hops), window)

    def test_views_share_the_tables(self):
        lin = linearize(bubble())
        view = lin.slice(1, 5)
        assert view._tables is lin._tables \
            is view.reversed_view()._tables
        with pytest.raises(GraphError):
            view.reversed_view().slice(2, 2)


@st.composite
def variant_graphs(draw):
    """A bubble graph from ``simulate_variants`` + ``build_graph``:
    SNP and indel bubbles plus structural deletions whose hops skip
    far enough to leave most views."""
    rng = random.Random(draw(st.integers(0, 1_000_000)))
    text = random_reference(rng.randint(30, 200), rng)
    variants = simulate_variants(text, rng, VariantProfile(
        snp_rate=0.05, insertion_rate=0.02, deletion_rate=0.02,
        sv_rate=0.01, sv_min=5, sv_max=30, small_indel_max=4))
    return build_graph(text, variants).graph


class TestIsStraight:
    """``is_straight(start, end)`` against the dense oracle over the
    *root* graph: no position of the range, mapped back to the root
    (or to the root's reversal for a flipped view), has a successor
    set other than the next position — successors the view drops
    included."""

    # The example count comes from the hypothesis profile (tier-1 or
    # ``--hypothesis-profile=deep``, see ``conftest.py``).
    @settings(deadline=None)
    @given(st.data(), st.one_of(sorted_graphs(), variant_graphs()))
    def test_matches_the_dense_root(self, data, graph):
        dense = oracle.linearize(graph)
        roots = {False: dense.successors,
                 True: dense.reversed().successors}
        n = len(dense)
        # The view, whether it reads the root backward, and the root
        # position (in that direction) of its position 0.
        view, flipped, offset = linearize(graph), False, 0
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                offset = n - offset - len(view)
                view, flipped = view.reversed_view(), not flipped
            else:
                c, d = _cut(data.draw, len(view))
                view, offset = view.slice(c, d), offset + c
        start = data.draw(st.integers(0, len(view)))
        end = data.draw(st.integers(start, len(view)))
        succs = roots[flipped]
        assert view.is_straight(start, end) == (not any(
            succs[p] != (p + 1,)
            for p in range(offset + start, offset + end)))

    def test_hop_leaving_the_view_counts(self):
        """The trap: in ``slice(0, 3)`` of AC(G|T)AC position 1 keeps
        only its edge to 2, so the slice is a chain — but position 1
        also hops to 3, outside it, so the range is not straight."""
        lin = linearize(bubble())
        view = lin.slice(0, 3)
        assert view.is_chain() and view.successors_of(1) == (2,)
        assert view.is_straight(0, 1) and not view.is_straight(0, 3)
        # Backward, G (reversed position 3) has the predecessor C only;
        # the merge A (reversed position 1) has two: G and T.
        rev = lin.reversed_view()
        assert rev.chars == "CATGCA"
        assert rev.is_straight(0, 1) and not rev.is_straight(0, 2)
        assert rev.slice(1, 4).is_straight(2, 3)
        assert view.is_straight(2, 2)
        with pytest.raises(GraphError):
            view.is_straight(1, 4)
