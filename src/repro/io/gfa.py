"""GFA v1 import/export for genome graphs.

The paper's pre-processing converts VG-formatted graphs to GFA
(Graphical Fragment Assembly) because "GFA is easier to work with for
the later steps" (Section 5).  We support the GFA v1 subset that a
variation graph needs: ``S`` (segment) and ``L`` (link) lines with
``0M``/``*`` overlaps on the forward strand.
"""

from __future__ import annotations

from repro.graph.genome_graph import GenomeGraph
from repro.io.text import PathOrHandle, open_text, open_write, \
    source_name


class GfaFormatError(ValueError):
    """Raised when a GFA line cannot be parsed or is unsupported."""


def write_gfa(graph: GenomeGraph, target: PathOrHandle) -> None:
    """Write a genome graph as GFA v1.

    Segment names are the node IDs; links are forward-strand with ``0M``
    overlap, which is how variation graphs represent adjacency.
    """
    handle, owned = open_write(target)
    try:
        handle.write("H\tVN:Z:1.0\n")
        for node in graph.nodes():
            handle.write(f"S\t{node.node_id}\t{node.sequence}\n")
        for src, dst in graph.edges():
            handle.write(f"L\t{src}\t+\t{dst}\t+\t0M\n")
    finally:
        if owned:
            handle.close()


def read_gfa(source: PathOrHandle, name: str = "gfa") -> GenomeGraph:
    """Read a GFA v1 file (plain or gzipped) into a genome graph.

    Segment names may be arbitrary strings; they are mapped to dense
    integer node IDs in order of appearance.  Only forward-strand links
    are supported — a reverse-strand link raises
    :class:`GfaFormatError`, matching the topologically-sorted-DAG
    requirement of the aligner.
    """
    handle, owned = open_text(source)
    try:
        graph = GenomeGraph(name=name)
        ids: dict[str, int] = {}
        pending_links: list[tuple[str, str]] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.isascii():
                raise GfaFormatError(
                    f"line {line_number}: non-ASCII character"
                )
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            kind = fields[0]
            if kind == "H":
                continue
            if kind == "S":
                if len(fields) < 3:
                    raise GfaFormatError(
                        f"line {line_number}: S line needs name and sequence"
                    )
                seg_name, sequence = fields[1], fields[2]
                if seg_name in ids:
                    raise GfaFormatError(
                        f"line {line_number}: duplicate segment {seg_name!r}"
                    )
                if sequence == "*":
                    raise GfaFormatError(
                        f"line {line_number}: segment {seg_name!r} has no "
                        "sequence ('*' unsupported)"
                    )
                ids[seg_name] = graph.add_node(sequence)
            elif kind == "L":
                if len(fields) < 5:
                    raise GfaFormatError(
                        f"line {line_number}: L line needs 5+ columns"
                    )
                src, src_orient, dst, dst_orient = fields[1:5]
                if src_orient != "+" or dst_orient != "+":
                    raise GfaFormatError(
                        f"line {line_number}: only forward-strand links "
                        "are supported"
                    )
                overlap = fields[5] if len(fields) > 5 else "*"
                if overlap not in ("0M", "*"):
                    raise GfaFormatError(
                        f"line {line_number}: only 0M/'*' overlaps are "
                        f"supported, got {overlap!r}"
                    )
                pending_links.append((src, dst))
            elif kind in ("P", "W", "C"):
                # Path/walk/containment lines are ignored: the mapper
                # derives its own coordinates.
                continue
            else:
                raise GfaFormatError(
                    f"line {line_number}: unsupported record type {kind!r}"
                )
        for src, dst in pending_links:
            if src not in ids or dst not in ids:
                missing = src if src not in ids else dst
                raise GfaFormatError(f"link references unknown segment "
                                     f"{missing!r}")
            graph.add_edge(ids[src], ids[dst])
        return graph
    except GfaFormatError as exc:
        raise GfaFormatError(f"{source_name(source)}: {exc}") from None
    finally:
        if owned:
            handle.close()
