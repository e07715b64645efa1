"""The public mapping facade: :class:`Mapper` and
:class:`MappingRecord`.

SeGraM's headline claim is *universality* — one pipeline serving both
sequence-to-graph and sequence-to-sequence mapping (paper Section 9).
This module is that claim as an API: construct a :class:`Mapper` once
from any reference shape, then every entry point returns the same
unified :class:`MappingRecord` with contig-qualified coordinates::

    from repro.api import Mapper

    mapper = Mapper.from_fasta("ref.fa")          # multi-record OK
    record = mapper.map("ACGT...")                 # one read
    records = mapper.map_batch(reads, jobs=4)      # batch, sharded
    rec1, rec2 = mapper.map_pair(r1, r2)           # one FR pair
    pairs = mapper.map_pairs(reads1, reads2)       # R1/R2 lists

Accepted references: a multi-record FASTA (``from_fasta``, with an
optional VCF routed to contigs by CHROM), a GFA genome graph
(``from_gfa``), a raw sequence string, ``(name, sequence)`` records,
a :class:`~repro.refs.ReferenceSet`, or a
:class:`~repro.graph.genome_graph.GenomeGraph`.

The one *engine* behind this facade —
:class:`~repro.core.mapper.SeGraM` over a
:class:`~repro.refs.ReferenceSet`, which maps reads
(``map_batch``) and read pairs (``map_pairs``) alike — stays public
(``Mapper.engine``).  What the facade adds is the reference coercion
(:func:`as_reference_set`), artifact attach, and the unified
:class:`MappingRecord`; its results are parity-tested against the
engine (``tests/test_api.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence, Union

from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.pairing import PairedEndConfig, PairResult, PairStats
from repro.graph.genome_graph import GenomeGraph
from repro.refs.reference import Contig, ReferenceSet, ReferenceSetError

if TYPE_CHECKING:  # pragma: no cover - only for hints
    from repro.core.pipeline import PipelineStats

#: Any accepted reference shape (see :func:`as_reference_set`): a
#: pre-built set, a genome graph, a raw sequence, or an iterable of
#: ``(name, sequence)`` / FASTA-record objects.
ReferenceLike = Union[ReferenceSet, GenomeGraph, str, Iterable[Any]]

#: One batch read: a bare sequence or a ``(name, sequence)`` entry.
ReadLike = Union[str, Sequence[str]]


@dataclass(frozen=True)
class MappingRecord:
    """One read's mapping, in contig-qualified coordinates.

    The unified return type of every :class:`Mapper` entry point —
    single-end and paired-end, linear and graph references alike.

    Attributes:
        read_name: identifier of the read (pair mates carry ``/1`` /
            ``/2``).
        mapped: whether any alignment was reported.
        contig: name of the reference contig of the placement (None
            when unmapped).
        position: 0-based leftmost position *within the contig* (None
            when unmapped, or for graph-backed contigs with no linear
            projection — use ``path_nodes`` there).
        strand: ``'+'`` or ``'-'``.
        mapq: calibrated mapping quality (pair-aware for pairs).
        cigar: extended CIGAR string (None when unmapped).
        edit_distance: alignment edit distance (None when unmapped).
        read_length: bases in the read.
        path_nodes: graph nodes visited, for graph references.
        paired / proper_pair: pair context flags.
        mate_contig / mate_position: the mate's placement (None for
            single-end records or unmapped mates).
        template_length: observed template length; None for
            single-end records, unmapped mates, and mates on
            different contigs (undefined across references).
        pair_category: the pair's concordance classification (one of
            :data:`repro.core.pairing.PAIR_CATEGORIES`, e.g.
            ``different_reference`` for inter-contig pairs).
        result: the underlying engine
            :class:`~repro.core.mapper.MappingResult` (advanced use:
            candidates, seeding statistics, SAM/GAF writers).
    """

    read_name: str
    mapped: bool
    contig: str | None
    position: int | None
    strand: str
    mapq: int
    cigar: str | None
    edit_distance: int | None
    read_length: int
    path_nodes: tuple[int, ...] = ()
    paired: bool = False
    proper_pair: bool = False
    mate_contig: str | None = None
    mate_position: int | None = None
    template_length: int | None = None
    pair_category: str | None = None
    result: MappingResult | None = field(default=None, repr=False,
                                         compare=False)
    pair: "PairResult | None" = field(default=None, repr=False,
                                      compare=False)

    @property
    def identity(self) -> float | None:
        """Fraction of read bases matching the reference."""
        return self.result.identity if self.result is not None \
            else None


def _record_from_result(result: MappingResult) -> MappingRecord:
    return MappingRecord(
        read_name=result.read_name,
        mapped=result.mapped,
        contig=result.contig,
        position=result.linear_position,
        strand=result.strand,
        mapq=result.mapq,
        cigar=str(result.cigar) if result.cigar is not None else None,
        edit_distance=result.distance,
        read_length=result.read_length,
        path_nodes=result.path_nodes,
        result=result,
    )


def _pair_records(
        pair: PairResult) -> tuple[MappingRecord, MappingRecord]:
    records: list[MappingRecord] = []
    for me, mate in ((pair.mate1, pair.mate2),
                     (pair.mate2, pair.mate1)):
        record = _record_from_result(me)
        mate_contig = mate.contig if mate.mapped else None
        records.append(replace(
            record,
            mapq=me.mapq_with(proper_pair=pair.proper),
            paired=True,
            proper_pair=pair.proper,
            mate_contig=mate_contig,
            mate_position=mate.linear_position if mate.mapped
            else None,
            template_length=pair.template_length,
            pair_category=pair.category,
            pair=pair,
        ))
    return records[0], records[1]


def as_reference_set(
    reference: ReferenceLike,
    variants: Iterable[Any] = (),
    name: str = "reference",
    max_node_length: int = 0,
) -> ReferenceSet:
    """Coerce any accepted reference shape into a
    :class:`~repro.refs.ReferenceSet`.

    Accepts an existing set (returned as-is; variants must then be
    empty), a raw sequence string (one linear contig called
    ``name``), a :class:`~repro.graph.genome_graph.GenomeGraph` (one
    graph-backed contig), or an iterable of ``(name, sequence)`` /
    FASTA-record objects.
    """
    if isinstance(reference, ReferenceSet):
        if tuple(variants):
            raise ReferenceSetError(
                "pass variants when *building* a ReferenceSet, not "
                "alongside a pre-built one"
            )
        return reference
    if isinstance(reference, GenomeGraph):
        if tuple(variants):
            raise ReferenceSetError(
                "variants cannot be applied to a pre-built genome "
                "graph; build from the linear sequence instead"
            )
        return ReferenceSet([Contig.from_graph(reference.name or name,
                                               reference)])
    records: list[tuple[str, str]]
    if isinstance(reference, str):
        records = [(name, reference)]
    else:
        records = []
        for record in reference:
            record_name = getattr(record, "name", None)
            sequence = getattr(record, "sequence", None)
            if record_name is None and sequence is None:
                record_name, sequence = record
            records.append((record_name, sequence))
    return ReferenceSet.from_records(records, variants,
                                     max_node_length=max_node_length)


class Mapper:
    """The universal mapping front-end.

    Args:
        reference: any shape accepted by :func:`as_reference_set`.
        variants: optional variants
            (:class:`~repro.io.vcf.VcfRecord` routed to contigs by
            CHROM, or bare :class:`~repro.graph.builder.Variant` for
            single-contig references).
        config: :class:`~repro.core.mapper.SeGraMConfig` engine
            configuration; pairing defaults to ``both_strands`` via
            the engine's candidate machinery regardless.
        pair_config: :class:`~repro.core.pairing.PairedEndConfig`
            insert-size model used by the pair entry points.
        name: contig name used when ``reference`` is a raw sequence.
        max_node_length: backbone chunking for linear contigs.
    """

    def __init__(
        self,
        reference: ReferenceLike,
        variants: Iterable[Any] = (),
        config: SeGraMConfig | None = None,
        pair_config: PairedEndConfig | None = None,
        name: str = "reference",
        max_node_length: int = 0,
    ) -> None:
        self.reference = as_reference_set(
            reference, variants, name=name,
            max_node_length=max_node_length,
        )
        self.engine = SeGraM(self.reference, config=config)
        self.pair_config = pair_config or PairedEndConfig()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_fasta(
        cls,
        path: str | Path,
        vcf: str | Path | None = None,
        config: SeGraMConfig | None = None,
        pair_config: PairedEndConfig | None = None,
        max_node_length: int = 4_096,
    ) -> "Mapper":
        """Build from a (multi-record) FASTA, plus an optional VCF.

        Every FASTA record becomes one linear contig, in file order;
        VCF variants are routed to contigs by their CHROM column.
        """
        from repro.io.fasta import read_fasta
        from repro.io.vcf import read_vcf

        records = read_fasta(path)
        if not records:
            raise ReferenceSetError(f"no FASTA records in {path}")
        variants = read_vcf(vcf) if vcf is not None else ()
        return cls(records, variants, config=config,
                   pair_config=pair_config,
                   max_node_length=max_node_length)

    @classmethod
    def from_gfa(
        cls,
        path: str | Path,
        name: str | None = None,
        config: SeGraMConfig | None = None,
        pair_config: PairedEndConfig | None = None,
    ) -> "Mapper":
        """Build from a GFA genome graph (one graph-backed contig)."""
        from repro.io.gfa import read_gfa

        graph = read_gfa(path)
        return cls(graph, config=config, pair_config=pair_config,
                   name=name or Path(str(path).removesuffix(".gz")).stem)

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        config: SeGraMConfig | None = None,
        pair_config: PairedEndConfig | None = None,
    ) -> "Mapper":
        """Attach to a ``.sgidx`` index artifact (O(ms), no rebuild).

        The artifact (written by :meth:`save_index` / ``repro index
        build``) carries the reference set, the combined graph, and
        the flat minimizer index; the index arrays stay memory-mapped
        read-only, so N mappers attached to one artifact share one
        physical copy.  The artifact's indexing parameters (``w``,
        ``k``, ``bucket_bits``, scoring) override the corresponding
        fields of ``config`` — they are baked into the index.
        """
        from repro.io.artifact import load_index_artifact

        loaded = load_index_artifact(path)
        config = replace(
            config or SeGraMConfig(),
            w=loaded.params["w"], k=loaded.params["k"],
            bucket_bits=loaded.params["bucket_bits"],
        )
        mapper = cls.__new__(cls)
        mapper.reference = loaded.refs
        mapper.engine = SeGraM(loaded.refs, config=config,
                               index=loaded.index)
        mapper.pair_config = pair_config or PairedEndConfig()
        return mapper

    # ------------------------------------------------------------------
    # Index artifacts and the worker pool
    # ------------------------------------------------------------------

    def save_index(self, path: str | Path) -> Path:
        """Write this mapper's reference + index as a ``.sgidx``
        artifact (:meth:`from_artifact` attaches to it).

        The engine's index already is the paper's three-level array
        layout; it is written as it stands.
        """
        from repro.io.artifact import write_index_artifact

        write_index_artifact(path, self.reference, self.engine.index)
        return Path(path)

    def close(self) -> None:
        """Stop the engine's standing workers, the ones ``jobs > 1``
        calls share (idempotent; see
        :meth:`~repro.core.mapper.SeGraM.worker_pool`)."""
        self.engine.close()

    def __enter__(self) -> "Mapper":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def contigs(self) -> list[tuple[str, int]]:
        """``(name, length)`` per contig, in ``@SQ`` order."""
        return self.reference.sam_contigs()

    @property
    def graph(self) -> GenomeGraph:
        """The combined genome graph (for GAF emission etc.)."""
        return self.engine.graph

    @property
    def stats(self) -> "PipelineStats":
        """Cumulative pipeline statistics."""
        return self.engine.stats

    @property
    def pair_stats(self) -> PairStats:
        """Cumulative pair statistics, ``stats.pairs`` (zeros before
        any pair call)."""
        return self.engine.stats.pairs

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(self, read: str, name: str = "read") -> MappingRecord:
        """Map one read; returns its contig-qualified record."""
        return _record_from_result(self.engine.map_read(read, name))

    def map_batch(self, reads: Iterable[ReadLike],
                  jobs: int = 1) -> list[MappingRecord]:
        """Map a batch of reads, optionally sharded across workers.

        ``reads`` holds ``(name, sequence)`` pairs, or bare sequence
        strings (auto-named ``read0``, ``read1``, ...).  ``jobs > 1``
        shards the batch across the engine's standing pool of ``jobs``
        workers, forked by the first such call and kept until
        :meth:`close`.  Results come back in input order and are
        identical to mapping each read alone, for any ``jobs``.
        """
        named: list[tuple[str, ...]] = [
            (f"read{i}", r) if isinstance(r, str) else tuple(r)
            for i, r in enumerate(reads)]
        return [_record_from_result(result)
                for result in self.engine.map_batch(named, jobs=jobs)]

    def map_pair(self, read1: str, read2: str,
                 name: str = "pair"
                 ) -> tuple[MappingRecord, MappingRecord]:
        """Map one FR read pair; returns both mates' records."""
        pair, = self.engine.map_pairs([(name, read1, read2)],
                                      self.pair_config)
        return _pair_records(pair)

    def map_pairs(
        self,
        reads1: Sequence[ReadLike],
        reads2: Sequence[ReadLike] | None = None,
        jobs: int = 1,
    ) -> list[tuple[MappingRecord, MappingRecord]]:
        """Map FR read pairs; returns ``(mate1, mate2)`` records.

        Two call shapes:

        * ``map_pairs(reads1, reads2)`` — parallel R1/R2 lists of
          ``(name, sequence)`` pairs or bare strings (the mate files
          convention).  Named entries are cross-checked after
          stripping any ``/1``/``/2`` suffix, exactly like
          :func:`repro.io.fasta.read_mate_pairs` — silently pairing
          unrelated reads (e.g. a re-sorted R2 list) corrupts every
          pair statistic, so a mismatch raises :class:`ValueError`;
        * ``map_pairs(pairs)`` — one list of ``(name, read1, read2)``
          triples.
        """
        from repro.io.fasta import mate_base_name

        if reads2 is not None:
            if len(reads1) != len(reads2):
                raise ValueError(
                    f"mate lists disagree: {len(reads1)} vs "
                    f"{len(reads2)} reads"
                )

            def norm(entry: ReadLike) -> tuple[str | None, str]:
                if isinstance(entry, str):
                    return None, entry
                name, sequence = entry
                return name, sequence

            pairs: list[tuple[str, ...]] = []
            for index, (e1, e2) in enumerate(zip(reads1, reads2)):
                name1, r1 = norm(e1)
                name2, r2 = norm(e2)
                if name1 is not None and name2 is not None \
                        and mate_base_name(name1) \
                        != mate_base_name(name2):
                    raise ValueError(
                        f"mate name mismatch at index {index}: "
                        f"{name1!r} vs {name2!r}"
                    )
                name = name1 if name1 is not None else name2
                name = mate_base_name(name) if name is not None \
                    else f"pair{index}"
                pairs.append((name, r1, r2))
        else:
            pairs = [tuple(p) for p in reads1]
        results = self.engine.map_pairs(pairs, self.pair_config,
                                        jobs=jobs)
        return [_pair_records(pair) for pair in results]

    def __repr__(self) -> str:
        return (f"Mapper({len(self.reference)} contigs, "
                f"{self.graph.total_sequence_length} bases)")
