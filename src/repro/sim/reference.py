"""Synthetic reference genomes.

Stand-in for GRCh38 (see :mod:`repro.sim`): uniform random DNA
plus an optional planted-repeat mode.  Repeats matter because they
reproduce the minimizer-frequency skew of real genomes — without them
the top-0.02 % frequency filter and the Fig. 7 bucket-occupancy curve
would see an unrealistically flat distribution.
"""

from __future__ import annotations

import random

from repro import seq as seqmod


def random_reference(length: int, rng: random.Random) -> str:
    """A uniform random reference of the given length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return seqmod.random_sequence(length, rng)


def multi_contig_reference(
    lengths: "list[int] | tuple[int, ...]",
    rng: random.Random,
    name_prefix: str = "chr",
) -> list[tuple[str, str]]:
    """Independent random contigs: ``[(name, sequence), ...]``.

    One contig per entry of ``lengths``, named ``chr1``, ``chr2``,
    ... — the multi-contig stand-in workload (a real genome is many
    chromosomes, not one sequence).  Feed the result to
    :meth:`repro.refs.ReferenceSet.from_records` or
    :class:`repro.api.Mapper`, and to
    :func:`repro.sim.pairedend.simulate_multi_contig_fragments` for
    paired ground truth.
    """
    if not lengths:
        raise ValueError("lengths must not be empty")
    return [(f"{name_prefix}{index + 1}",
             random_reference(length, rng))
            for index, length in enumerate(lengths)]


def reference_with_exact_repeats(
    length: int,
    rng: random.Random,
    repeat_length: int = 400,
    copies: int = 2,
) -> tuple[str, list[int]]:
    """A reference with one repeat family of *byte-identical* copies.

    Unlike :func:`reference_with_repeats` (whose copies diverge by a
    few point mutations), the planted copies here are exact, so a
    read drawn from inside one copy has perfectly tied alignments at
    every copy — the worst case for MAPQ calibration (ties must be
    reported at MAPQ <= 3) and for pairing (only the mate's insert
    model can break the tie).

    Returns ``(reference, copy_starts)``: the ground truth needed to
    decide whether a mapping landed in *some* copy versus a genuinely
    wrong locus.  Copies are evenly spaced with unique flanks between
    them.
    """
    if copies < 2:
        raise ValueError(f"copies must be >= 2, got {copies}")
    if repeat_length < 10:
        raise ValueError("repeat_length must be >= 10")
    if copies * repeat_length * 2 > length:
        raise ValueError(
            f"length {length} too small for {copies} copies of "
            f"{repeat_length} bases with unique flanks"
        )
    backbone = list(seqmod.random_sequence(length, rng))
    template = seqmod.random_sequence(repeat_length, rng)
    spacing = length // copies
    copy_starts = []
    for index in range(copies):
        start = index * spacing + (spacing - repeat_length) // 2
        backbone[start:start + repeat_length] = template
        copy_starts.append(start)
    return "".join(backbone), copy_starts


def reference_with_repeats(
    length: int,
    rng: random.Random,
    repeat_fraction: float = 0.2,
    repeat_length: int = 300,
    family_count: int = 5,
) -> str:
    """A reference where a fraction of the bases come from repeats.

    ``family_count`` repeat templates of ``repeat_length`` bases are
    generated; copies of the templates (with a couple of random point
    mutations each, as real repeat families diverge) are planted at
    random positions until ``repeat_fraction`` of the genome consists
    of repeat copies.
    """
    if not 0.0 <= repeat_fraction < 1.0:
        raise ValueError(
            f"repeat_fraction must be in [0, 1), got {repeat_fraction}"
        )
    if repeat_length < 10 or repeat_length > length:
        raise ValueError("repeat_length must be in [10, length]")
    backbone = list(seqmod.random_sequence(length, rng))
    families = [seqmod.random_sequence(repeat_length, rng)
                for _ in range(family_count)]
    planted = 0
    target = int(repeat_fraction * length)
    while planted < target:
        template = rng.choice(families)
        copy = list(template)
        # A few diverging point mutations per copy.
        for _ in range(rng.randint(0, 3)):
            position = rng.randrange(len(copy))
            copy[position] = rng.choice(seqmod.ALPHABET)
        start = rng.randrange(0, length - repeat_length + 1)
        backbone[start:start + repeat_length] = copy
        planted += repeat_length
    return "".join(backbone)
