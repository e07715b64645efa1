"""Versioned on-disk index artifacts (``.sgidx``) with mmap attach.

An artifact freezes everything a mapper needs — the flat three-level
minimizer index (:class:`~repro.index.FlatIndex`, paper Fig. 6), the
combined genome graph's node/edge/character tables (paper Fig. 5) and
the :class:`~repro.refs.ReferenceSet` projection tables — into one
file that processes *attach to* instead of rebuilding:

* ``repro index build ref.fa -o ref.sgidx`` pays the construction cost
  once;
* ``repro map --index ref.sgidx`` (or
  :meth:`repro.api.Mapper.from_artifact`) memory-maps the arrays
  read-only in O(ms), and N worker processes mapping against the same
  artifact share one physical copy of the pages — no fork-time
  copy-on-write drift, no per-process rebuild.

File layout::

    [64 B header] [JSON metadata] [pad] [array 0] [pad] [array 1] ...

The header is ``magic (6 B) | format version (u16) | metadata length
(u32) | CRC-32 (u32) | payload length (u64)`` plus zero padding.  The
CRC covers every byte after the header, so truncation and bit rot are
rejected at load time; a format-version mismatch is reported as a
stale artifact that needs rebuilding.  Arrays are little-endian and
64-byte aligned (mmap-sliceable on any platform); node sequences and
linear backbones are stored 2 bits per base (paper Section 5) and
re-expanded on load.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro import seq as seqmod

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.index.flat_index import FlatIndex
    from repro.refs.reference import ReferenceSet

#: First bytes of every index artifact.
MAGIC = b"SGIDX\x00"

#: Current artifact format version; bump on any layout change.
FORMAT_VERSION = 1

#: Fixed total header size (magic + version + lengths + checksum,
#: zero-padded); everything after it is checksummed.
HEADER_SIZE = 64

#: Alignment (bytes) of the metadata block and every array section.
SECTION_ALIGN = 64

_HEADER_STRUCT = struct.Struct("<6sHIIQ")

_CRC_CHUNK = 1 << 20


class ArtifactError(ValueError):
    """Raised when an artifact is missing, corrupt, stale, or invalid."""


# ----------------------------------------------------------------------
# 2-bit character packing (paper Section 5: 2 bits per base)
# ----------------------------------------------------------------------

_CODE_OF_BASE = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(seqmod.ALPHABET.encode("ascii")):
    _CODE_OF_BASE[_b] = _i
_BASE_OF_CODE = np.frombuffer(seqmod.ALPHABET.encode("ascii"),
                              dtype=np.uint8)


def pack_bases(text: str) -> np.ndarray:
    """Pack an ACGT string into 2-bit codes, 4 bases per byte.

    Base ``j`` occupies bits ``2*(j % 4)`` of byte ``j // 4`` (LSB
    first).  The caller stores ``len(text)`` separately — trailing
    pad bits are zero.
    """
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    codes = _CODE_OF_BASE[raw]
    if codes.size and int(codes.max()) > 3:
        bad = int(np.argmax(codes > 3))
        raise ArtifactError(
            f"non-ACGT base {text[bad]!r} at position {bad} cannot be "
            "2-bit packed"
        )
    padded = np.zeros((codes.size + 3) // 4 * 4, dtype=np.uint8)
    padded[:codes.size] = codes
    return (padded[0::4]
            | (padded[1::4] << 2)
            | (padded[2::4] << 4)
            | (padded[3::4] << 6)).astype(np.uint8)


def unpack_bases(packed: np.ndarray, length: int) -> str:
    """Expand :func:`pack_bases` output back into an ACGT string."""
    packed = np.asarray(packed, dtype=np.uint8)
    codes = np.empty(len(packed) * 4, dtype=np.uint8)
    codes[0::4] = packed & 3
    codes[1::4] = (packed >> 2) & 3
    codes[2::4] = (packed >> 4) & 3
    codes[3::4] = (packed >> 6) & 3
    return _BASE_OF_CODE[codes[:length]].tobytes().decode("ascii")


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def _aligned(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN


def _array_bytes(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - BE hosts only
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def write_index_artifact(
    path: Union[str, Path],
    refs: "ReferenceSet",
    index: "FlatIndex",
) -> None:
    """Serialize a reference set plus its flat index to ``path``."""
    graph = refs.graph
    arrays: dict[str, np.ndarray] = {
        "bucket_starts": index.bucket_starts,
        "min_hash": index.min_hash,
        "min_loc_start": index.min_loc_start,
        "min_loc_count": index.min_loc_count,
        "loc_node": index.loc_node,
        "loc_offset": index.loc_offset,
    }
    node_len = np.asarray(
        [len(graph.sequence_of(n)) for n in range(graph.node_count)],
        dtype=np.uint32,
    )
    out_lists = [graph.successors(n) for n in range(graph.node_count)]
    edge_starts = np.zeros(graph.node_count + 1, dtype=np.uint32)
    np.cumsum([len(dsts) for dsts in out_lists],
              out=edge_starts[1:], dtype=np.uint32)
    edge_dst = np.asarray(
        [dst for dsts in out_lists for dst in dsts], dtype=np.uint32,
    )
    char_codes = pack_bases(
        "".join(graph.sequence_of(n) for n in range(graph.node_count))
    )
    arrays.update(
        node_len=node_len, edge_starts=edge_starts, edge_dst=edge_dst,
        char_codes=char_codes,
    )
    contig_meta: list[dict] = []
    for i, name in enumerate(refs.names):
        placed = refs._contigs[i]
        entry: dict = {
            "name": name,
            "node_base": placed.node_base,
            "node_end": placed.node_end,
            "char_start": placed.char_start,
            "char_end": placed.char_end,
        }
        if placed.backbone is not None:
            entry["kind"] = "linear"
            entry["backbone_len"] = len(placed.backbone)
            arrays[f"backbone_{i}"] = pack_bases(placed.backbone)
            arrays[f"ref_pos_{i}"] = np.asarray(
                placed.ref_positions, dtype=np.uint32)
            arrays[f"alt_nodes_{i}"] = np.asarray(
                placed.alt_nodes, dtype=np.uint32)
        else:
            entry["kind"] = "graph"
        contig_meta.append(entry)

    meta: dict = {
        "params": {
            "w": index.w,
            "k": index.k,
            "bucket_bits": index.bucket_bits,
            "scoring": index.scoring,
        },
        "max_node_length": refs.max_node_length,
        "graph_name": graph.name,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "char_count": graph.total_sequence_length,
        "contigs": contig_meta,
        "arrays": {},
    }
    # Lay out sections: metadata first, then each array 64-aligned.
    prepared = {name: _array_bytes(arr) for name, arr in arrays.items()}
    # Two-pass metadata sizing: offsets depend on the metadata length,
    # which depends on the offsets' digits.  Iterate until stable.
    meta_blob = b""
    for _ in range(8):
        offset = _aligned(HEADER_SIZE + len(meta_blob))
        for name, arr in prepared.items():
            meta["arrays"][name] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
            offset = _aligned(offset + arr.nbytes)
        blob = json.dumps(meta, separators=(",", ":"),
                          sort_keys=True).encode("ascii")
        if len(blob) == len(meta_blob):
            meta_blob = blob
            break
        meta_blob = blob
    else:  # pragma: no cover - sizes stabilize in 2 iterations
        raise ArtifactError("metadata layout failed to stabilize")

    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(b"\x00" * HEADER_SIZE)
        handle.write(meta_blob)
        for name, arr in prepared.items():
            section = meta["arrays"][name]
            handle.write(b"\x00" * (section["offset"] - handle.tell()))
            handle.write(arr.tobytes())
        payload_len = handle.tell() - HEADER_SIZE
    crc = 0
    with open(path, "rb") as handle:
        handle.seek(HEADER_SIZE)
        while True:
            chunk = handle.read(_CRC_CHUNK)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    header = _HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, len(meta_blob), crc, payload_len,
    )
    with open(path, "r+b") as handle:
        handle.write(header)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

@dataclass
class LoadedArtifact:
    """Everything :func:`load_index_artifact` attaches.

    ``refs`` and ``index`` are live objects (the index's arrays are
    read-only views into the artifact's pages); ``params`` echoes the
    indexing parameters the artifact was built with so callers can
    align their config.
    """

    refs: "ReferenceSet"
    index: "FlatIndex"
    params: dict
    path: Path


def is_index_artifact(path: Union[str, Path]) -> bool:
    """Whether ``path`` starts with the artifact magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_header(path: Path) -> tuple[int, int, int]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") \
            from None
    if len(raw) < HEADER_SIZE:
        raise ArtifactError(f"{path} is truncated (no complete header)")
    magic, version, meta_len, crc, payload_len = \
        _HEADER_STRUCT.unpack_from(raw)
    if magic != MAGIC:
        raise ArtifactError(
            f"{path} is not an index artifact (bad magic)"
        )
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path} has artifact format v{version}, this build reads "
            f"v{FORMAT_VERSION} — rebuild it with 'repro index build'"
        )
    return meta_len, crc, payload_len


def load_index_artifact(
    path: Union[str, Path],
    verify: bool = True,
) -> LoadedArtifact:
    """Attach to an artifact: mmap arrays, rebuild refs + flat index.

    ``verify=True`` (default) streams the CRC-32 over the payload
    before trusting it; corrupt or truncated files raise
    :class:`ArtifactError`.  The index arrays stay memory-mapped
    read-only — attach cost is dominated by re-expanding node
    sequences to strings, not by the index size.
    """
    from repro.graph.genome_graph import GenomeGraph
    from repro.index.flat_index import FlatIndex
    from repro.refs.reference import Contig, ReferenceSet, _BuiltContig

    path = Path(path)
    meta_len, expected_crc, payload_len = _read_header(path)
    actual_size = path.stat().st_size
    if actual_size != HEADER_SIZE + payload_len:
        raise ArtifactError(
            f"{path} is truncated or padded: header declares "
            f"{HEADER_SIZE + payload_len} bytes, file has {actual_size}"
        )
    if verify:
        crc = 0
        with open(path, "rb") as handle:
            handle.seek(HEADER_SIZE)
            while True:
                chunk = handle.read(_CRC_CHUNK)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
        if crc != expected_crc:
            raise ArtifactError(
                f"{path} failed checksum verification (stored "
                f"{expected_crc:#010x}, computed {crc:#010x}) — the "
                "artifact is corrupt; rebuild it"
            )
    with open(path, "rb") as handle:
        handle.seek(HEADER_SIZE)
        meta_blob = handle.read(meta_len)
    try:
        meta = json.loads(meta_blob.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(
            f"{path} has unreadable metadata: {exc}"
        ) from None

    mm = np.memmap(path, dtype=np.uint8, mode="r")

    def view(name: str) -> np.ndarray:
        try:
            section = meta["arrays"][name]
        except KeyError:
            raise ArtifactError(
                f"{path} is missing array section {name!r}"
            ) from None
        start, nbytes = section["offset"], section["nbytes"]
        if start + nbytes > len(mm):
            raise ArtifactError(
                f"{path}: array {name!r} extends past end of file"
            )
        return mm[start:start + nbytes].view(section["dtype"]) \
            .reshape(section["shape"])

    params = meta["params"]
    index = FlatIndex(
        bucket_starts=view("bucket_starts"),
        min_hash=view("min_hash"),
        min_loc_start=view("min_loc_start"),
        min_loc_count=view("min_loc_count"),
        loc_node=view("loc_node"),
        loc_offset=view("loc_offset"),
        w=params["w"], k=params["k"],
        bucket_bits=params["bucket_bits"],
        scoring=params["scoring"],
    )

    # Re-expand node sequences (2-bit -> str) and edge lists.
    node_len = view("node_len")
    chars = unpack_bases(view("char_codes"), meta["char_count"])
    bounds = np.zeros(len(node_len) + 1, dtype=np.int64)
    np.cumsum(node_len, out=bounds[1:])
    sequences = [chars[bounds[n]:bounds[n + 1]]
                 for n in range(len(node_len))]
    edge_starts = view("edge_starts")
    edge_dst = view("edge_dst").tolist()
    out_lists = [edge_dst[edge_starts[n]:edge_starts[n + 1]]
                 for n in range(len(node_len))]
    graph = GenomeGraph._restore(meta["graph_name"], sequences,
                                 out_lists)
    if graph.node_count != meta["node_count"]:
        raise ArtifactError(
            f"{path}: node table holds {graph.node_count} nodes, "
            f"metadata declares {meta['node_count']}"
        )

    placements: list[_BuiltContig] = []
    for i, entry in enumerate(meta["contigs"]):
        if entry["kind"] == "linear":
            backbone = unpack_bases(view(f"backbone_{i}"),
                                    entry["backbone_len"])
            contig = Contig.linear(entry["name"], backbone)
            ref_positions = view(f"ref_pos_{i}").tolist()
            alt_nodes = tuple(view(f"alt_nodes_{i}").tolist())
        else:
            subgraph, _ = graph.extract_node_range(
                entry["node_base"], entry["node_end"] - 1)
            subgraph.name = entry["name"]
            contig = Contig.from_graph(entry["name"], subgraph)
            backbone = None
            ref_positions = None
            alt_nodes = ()
        placements.append(_BuiltContig(
            contig=contig,
            node_base=entry["node_base"],
            node_end=entry["node_end"],
            char_start=entry["char_start"],
            char_end=entry["char_end"],
            ref_positions=ref_positions,
            backbone=backbone,
            alt_nodes=alt_nodes,
        ))
    refs = ReferenceSet._restore(graph, placements,
                                 meta["max_node_length"])
    return LoadedArtifact(refs=refs, index=index, params=dict(params),
                          path=path)
