"""Out-of-core partitioned index store with streamed, prefetched reads.

The resident store (:mod:`repro.store.index_store`) maps every shard's
full manifest, so peak memory grows with database size N.  This module
makes N memory-bound no longer: the precursor-major span set — already
the product of Algorithm B's counting sort — is promoted to the on-disk
layout itself, cut into *mass-contiguous partitions* small enough to
decode one (plus one prefetched) at a time.

On-disk format (schema ``repro.index_store_partitioned/2``)::

    <store_dir>/
        header.json           # schema, fingerprint, build config,
                              # database manifest, partition directory
        database/
            residues.npy      # the source database's flat buffers,
            offsets.npy       # mmap-able: hit emission and every
            ids.npy           # directly scored span read them
        partitions/
            p_00000.bin       # one compressed blob per partition
            p_00001.bin
            ...
            overflow.bin      # out-of-envelope spans (see below)

``header.json`` carries the always-resident *partition directory*: per
partition its span-mass range ``[mass_lo, mass_hi]``, compressed and
decoded byte sizes, a SHA-256 of the blob, the section table (name,
codec, offset, nbytes per stored array), and the full
:class:`~repro.index.layout.IndexLayout` manifest of the decoded
arrays.  The directory is a few KB per partition — the only part of the
index a streaming search keeps resident for the whole pass.

Each blob is the concatenation of independently compressed *sections*
(:data:`~repro.index.layout.PARTITION_STORED_ARRAYS`), encoded with the
codecs in :mod:`repro.store.codec` (sorted posting keys delta+varint,
floats zlib-raw).  A posting list's ``row`` column and bin-start table
are stored as one combined sorted key (``bin * (num_rows + 1) + row``)
and taken apart again at decode time, exactly reproducing the builder's
arrays; the key itself is never a decoded array.  Because sections are
independent, a decode inflates only those it is asked for
(``decode_partition_blob(i, blob, lists)``: the ``row_*`` columns plus
the posting lists the pass's scorer probes); the blob is read and
checksummed whole either way.

Spans outside the index envelope (length < 2 or > ``max_length``) go to
``overflow.bin`` — their (seq_index, start, stop, mass) columns, mass
sorted, the same four columns a partition carries for its rows — and
are scored through the direct
:class:`~repro.candidates.batch.CandidateBatch` path against the
mmapped database, exactly as the resident index routes its ``row == -1``
spans.  Union over partitions + overflow is the complete candidate set,
so streamed hits are bitwise identical to the resident path.

Durability and validation follow the resident store: atomic tmp-sibling
assembly with per-file fsync, fingerprint validation against the
caller's database, and typed :class:`~repro.errors.IndexStoreError` on
any truncated, corrupt, or mismatched artifact — including a blob whose
SHA-256 no longer matches its directory entry *mid-stream*.

:class:`StreamingIndexReader` drives the pass: a background prefetch
thread reads (and checksums) blob k+1 while the main thread decodes and
scores blob k — a double buffer of two partitions, optionally gated by
a memory-budget knob — and records ``stream.*`` metrics plus
prefetch-hit/stall spans in the obs layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import queue
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.candidates.mass_index import CandidateSpans, MassIndex
from repro.chem.protein import ProteinDatabase
from repro.errors import IndexStoreError
from repro.index.fragment_index import FragmentIndex, IndexBuilder
from repro.index.layout import (
    PARTITION_STORED_ARRAYS,
    IndexLayout,
    partition_arrays,
)
from repro.obs.metrics import get_metrics
from repro.store.codec import codec_for, decode_array, encode_array
from repro.store.index_store import (
    HEADER_NAME,
    StoredIndex,
    _fsync_dir,
    compute_fingerprint,
    load_buffer,
    open_index,
    _read_header,
)

#: schema identifier for the partitioned store directory format
PARTITIONED_SCHEMA = "repro.index_store_partitioned/2"

DATABASE_DIR = "database"
PARTITIONS_DIR = "partitions"
OVERFLOW_NAME = "overflow.bin"

#: database buffer name -> attribute, in canonical write order
_DB_BUFFERS = ("residues", "offsets", "ids")

#: overflow section (a ``CandidateSpans`` column) -> dtype, in blob order
_OVERFLOW_DTYPES = {
    "seq_index": "int64",
    "start": "int64",
    "stop": "int64",
    "mass": "float64",
}


def _partition_filename(i: int) -> str:
    return f"p_{i:05d}.bin"


@dataclass(frozen=True)
class Section:
    """One stored array's slice of a partition blob."""

    name: str
    codec: str
    offset: int
    nbytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "codec": self.codec,
            "offset": self.offset,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "Section":
        try:
            return cls(
                name=str(payload["name"]),
                codec=str(payload["codec"]),
                offset=int(payload["offset"]),
                nbytes=int(payload["nbytes"]),
            )
        except (KeyError, TypeError, ValueError):
            raise IndexStoreError(
                f"malformed partition section entry: {payload!r}"
            ) from None


@dataclass(frozen=True)
class PartitionEntry:
    """Always-resident directory entry for one m/z partition."""

    name: str
    mass_lo: float
    mass_hi: float
    num_rows: int
    num_fragments: int
    blob_bytes: int
    decoded_bytes: int
    sha256: str
    layout: IndexLayout
    sections: Tuple[Section, ...]

    def decoded_nbytes(self, lists: Optional[Sequence[str]] = None) -> int:
        """Bytes of the arrays a decode of posting ``lists`` produces
        (``None``: every list, i.e. ``decoded_bytes``)."""
        return int(self.layout.nbytes_of(partition_arrays(lists)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "mass_lo": self.mass_lo,
            "mass_hi": self.mass_hi,
            "num_rows": self.num_rows,
            "num_fragments": self.num_fragments,
            "blob_bytes": self.blob_bytes,
            "decoded_bytes": self.decoded_bytes,
            "sha256": self.sha256,
            "layout": self.layout.to_dict(),
            "sections": [s.to_dict() for s in self.sections],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "PartitionEntry":
        try:
            return cls(
                name=str(payload["name"]),
                mass_lo=float(payload["mass_lo"]),
                mass_hi=float(payload["mass_hi"]),
                num_rows=int(payload["num_rows"]),
                num_fragments=int(payload["num_fragments"]),
                blob_bytes=int(payload["blob_bytes"]),
                decoded_bytes=int(payload["decoded_bytes"]),
                sha256=str(payload["sha256"]),
                layout=IndexLayout.from_dict(payload["layout"]),
                sections=tuple(
                    Section.from_dict(s) for s in payload["sections"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, IndexStoreError):
                raise
            raise IndexStoreError(
                f"malformed partition directory entry: {exc!r}"
            ) from None


@dataclass(frozen=True)
class OverflowEntry:
    """Directory entry for the out-of-envelope span blob."""

    count: int
    blob_bytes: int
    sha256: str
    sections: Tuple[Section, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "blob_bytes": self.blob_bytes,
            "sha256": self.sha256,
            "sections": [s.to_dict() for s in self.sections],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "OverflowEntry":
        try:
            return cls(
                count=int(payload["count"]),
                blob_bytes=int(payload["blob_bytes"]),
                sha256=str(payload["sha256"]),
                sections=tuple(
                    Section.from_dict(s) for s in payload["sections"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, IndexStoreError):
                raise
            raise IndexStoreError(
                f"malformed overflow directory entry: {exc!r}"
            ) from None


def _encode_blob(
    arrays: Dict[str, np.ndarray], names: Sequence[str]
) -> Tuple[bytes, Tuple[Section, ...]]:
    """Concatenate per-array compressed sections; returns (blob, table)."""
    parts: List[bytes] = []
    sections: List[Section] = []
    offset = 0
    for name in names:
        arr = arrays[name]
        codec = codec_for(name, arr)
        buf = encode_array(arr, codec)
        sections.append(Section(name, codec, offset, len(buf)))
        parts.append(buf)
        offset += len(buf)
    return b"".join(parts), tuple(sections)


#: stored key section -> the posting list whose ``row`` column and
#: bin-start table it encodes
_KEY_SECTIONS = {"ladder_key": "ladder", "series_key": "series"}


def stored_sections(lists: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The blob sections a decode of posting ``lists`` inflates: the
    ``row_*`` columns plus each list's ``<list>_*`` sections (``None``:
    every section)."""
    if lists is None:
        return PARTITION_STORED_ARRAYS
    names = partition_arrays(lists)  # typed refusal of an unknown list
    return tuple(
        name
        for name in PARTITION_STORED_ARRAYS
        if name in names or _KEY_SECTIONS.get(name) in lists
    )


def _with_posting_keys(
    arrays: Dict[str, np.ndarray], num_rows: int
) -> Dict[str, np.ndarray]:
    """``arrays`` plus the stored ``*_key`` encoding of each posting list.

    ``key = bin * (num_rows + 1) + row`` — the sorted key the builder
    ordered the list by — folds ``row`` and ``bin_start`` into one
    non-decreasing column whose deltas are tiny.
    """
    out = dict(arrays)
    for name, prefix in _KEY_SECTIONS.items():
        bin_start = arrays[f"{prefix}_bin_start"]
        bins = np.repeat(np.arange(len(bin_start) - 1), np.diff(bin_start))
        out[name] = bins * (num_rows + 1) + arrays[f"{prefix}_row"]
    return out


def _split_posting_keys(arrays: Dict[str, np.ndarray], num_rows: int) -> None:
    """Inverse of :func:`_with_posting_keys`, in place: each decoded
    ``*_key`` section becomes the ``row`` column and bin-start table it
    encodes — bitwise the built arrays, which ``layout.check_arrays``
    then re-verifies shape/dtype for (and reports as missing where a
    blob had no key section)."""
    base = num_rows + 1
    for name, prefix in _KEY_SECTIONS.items():
        key = arrays.pop(name, None)
        if key is None:
            continue
        arrays[f"{prefix}_row"] = key % base
        if len(key) == 0:
            arrays[f"{prefix}_bin_start"] = np.zeros(1, dtype=np.int64)
            continue
        bins = key // base
        arrays[f"{prefix}_bin_start"] = np.searchsorted(
            bins, np.arange(int(bins[-1]) + 2)
        ).astype(np.int64)


def _decoded_row_bytes(lengths: np.ndarray) -> np.ndarray:
    """Estimated decoded bytes each span contributes to its partition.

    Per row: four int64/float64 span columns, and 2·(L-1) postings in
    each list (ladder 16 B, series 17 B apiece).  Used only to cut
    partition boundaries; the directory records exact sizes after the
    build.
    """
    return 32 + 66 * (lengths - 1)


def enumerate_spans(
    db: ProteinDatabase, max_length: int
) -> Tuple[CandidateSpans, CandidateSpans]:
    """Mass-sorted (indexable, overflow) span split for ``db``.

    ``indexable`` carries spans with ``2 <= length <= max_length`` —
    the index envelope, identical to :meth:`IndexBuilder.build`'s filter
    — and ``overflow`` everything else.  Both are sorted by unmodified
    mass with the same stable argsort the resident build uses, so a
    partition is a contiguous slice of exactly the resident row order.
    """
    spans = MassIndex(db).candidates_in_window(0.0, np.inf)
    lengths = spans.lengths
    keep = (lengths >= 2) & (lengths <= max_length)
    indexable = spans.take(keep)
    overflow = spans.take(~keep)
    indexable = indexable.take(np.argsort(indexable.mass, kind="stable"))
    overflow = overflow.take(np.argsort(overflow.mass, kind="stable"))
    return indexable, overflow


def partition_boundaries(
    lengths: np.ndarray, partition_bytes: int
) -> List[Tuple[int, int]]:
    """Cut mass-sorted spans into contiguous decoded-size-bounded slices."""
    n = len(lengths)
    if n == 0:
        return []
    cum = np.cumsum(_decoded_row_bytes(lengths))
    bounds = [0]
    while bounds[-1] < n:
        lo = bounds[-1]
        base = cum[lo - 1] if lo else 0
        hi = int(np.searchsorted(cum, base + partition_bytes, side="left")) + 1
        bounds.append(min(max(hi, lo + 1), n))
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass
class PartitionedIndex:
    """Handle to an opened partitioned store: resident directory only.

    Opening reads ``header.json`` alone; no blob is touched until
    :meth:`read_partition_blob` / :meth:`decode_partition`.  The handle
    is what stays resident for a whole streaming pass.
    """

    path: Path
    schema: str
    fingerprint: str
    build: Dict[str, Any]
    created: float
    database_arrays: Dict[str, Tuple[str, Tuple[int, ...]]]
    partitions: List[PartitionEntry] = field(default_factory=list)
    overflow: Optional[OverflowEntry] = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def blob_bytes(self) -> int:
        """Total compressed partition bytes on disk (overflow included)."""
        total = sum(p.blob_bytes for p in self.partitions)
        if self.overflow is not None:
            total += self.overflow.blob_bytes
        return int(total)

    @property
    def decoded_bytes(self) -> int:
        """Total bytes of every partition's decoded arrays."""
        return int(sum(p.decoded_bytes for p in self.partitions))

    def max_visit_bytes(self, lists: Optional[Sequence[str]] = None) -> int:
        """Largest single partition's blob + decoded footprint when a
        pass decodes posting ``lists`` (``None``: everything).

        The unit the streaming memory budget reasons in: a double-
        buffered pass holds at most two of these at once.
        """
        return max(
            (p.blob_bytes + p.decoded_nbytes(lists) for p in self.partitions),
            default=0,
        )

    @property
    def max_partition_bytes(self) -> int:
        """:meth:`max_visit_bytes` of a full decode."""
        return self.max_visit_bytes()

    @property
    def num_rows(self) -> int:
        return int(sum(p.num_rows for p in self.partitions))

    def validate_against(self, db: ProteinDatabase) -> None:
        """Reject the store if it was not built from exactly ``db``."""
        expect = compute_fingerprint(db, self.build)
        if expect != self.fingerprint:
            raise IndexStoreError(
                f"partitioned index store at {self.path} was built from a "
                f"different database or configuration (store fingerprint "
                f"{self.fingerprint[:12]}..., database fingerprint "
                f"{expect[:12]}...); rebuild with `repro index build "
                f"--partition-mb ...`"
            )

    # -- database + overflow ---------------------------------------------

    def load_database(self, mmap: bool = True) -> ProteinDatabase:
        """Open the stored database buffers (mmap read-only by default)."""
        bufs = []
        for name in _DB_BUFFERS:
            buf_path = self.path / DATABASE_DIR / f"{name}.npy"
            arr = load_buffer(
                buf_path,
                mmap,
                f"partitioned store at {self.path} is missing database "
                f"buffer {buf_path.name}",
            )
            dtype, shape = self.database_arrays[name]
            if str(arr.dtype) != dtype or tuple(arr.shape) != shape:
                raise IndexStoreError(
                    f"database buffer {buf_path.name} has dtype/shape "
                    f"{arr.dtype}/{tuple(arr.shape)}, manifest says "
                    f"{dtype}/{shape}"
                )
            bufs.append(arr)
        return ProteinDatabase.from_buffers(*bufs)

    def load_overflow(self) -> CandidateSpans:
        """The out-of-envelope spans (mass-sorted, read-only).

        Read, checksummed and decoded on first use, then kept on the
        handle: the planner and every searcher over this handle share
        one copy.
        """
        return self._overflow_spans

    @functools.cached_property
    def _overflow_spans(self) -> CandidateSpans:
        entry = self.overflow
        if entry is None or entry.count == 0:
            return CandidateSpans.empty()
        blob = self._read_blob(
            self.path / PARTITIONS_DIR / OVERFLOW_NAME,
            entry.blob_bytes,
            entry.sha256,
            "overflow blob",
        )
        cols: Dict[str, np.ndarray] = {}
        for section in entry.sections:
            buf = blob[section.offset : section.offset + section.nbytes]
            col = cols[section.name] = decode_array(
                buf,
                section.codec,
                _OVERFLOW_DTYPES[section.name],
                (entry.count,),
            )
            col.flags.writeable = False
        mod_delta = np.zeros(entry.count, dtype=np.float64)
        mod_delta.flags.writeable = False
        return CandidateSpans(
            cols["seq_index"], cols["start"], cols["stop"], cols["mass"], mod_delta
        )

    # -- partition reads --------------------------------------------------

    def _read_blob(
        self, blob_path: Path, expect_bytes: int, expect_sha: str, what: str
    ) -> bytes:
        try:
            with open(blob_path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise IndexStoreError(
                f"partitioned store at {self.path} is missing {what} "
                f"{blob_path.name}"
            ) from None
        except OSError as exc:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is unreadable: {exc}"
            ) from None
        if len(blob) != expect_bytes:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is truncated: "
                f"{len(blob)} bytes on disk, directory says {expect_bytes}"
            )
        digest = hashlib.sha256(blob).hexdigest()
        if digest != expect_sha:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is corrupt: SHA-256 "
                f"{digest[:12]}... does not match directory entry "
                f"{expect_sha[:12]}..."
            )
        return blob

    def read_partition_blob(self, i: int) -> bytes:
        """Read + checksum partition ``i``'s raw blob (no decode).

        The I/O half of a partition visit — what the prefetch thread
        runs.  Truncation or corruption raises
        :class:`~repro.errors.IndexStoreError` here, before any decode.
        """
        entry = self._entry(i)
        return self._read_blob(
            self.path / PARTITIONS_DIR / entry.name,
            entry.blob_bytes,
            entry.sha256,
            f"partition blob {i}",
        )

    def decode_partition_blob(
        self, i: int, blob: bytes, lists: Optional[Sequence[str]] = None
    ) -> FragmentIndex:
        """Decode a checksummed blob into a partition FragmentIndex view.

        ``lists`` names the posting lists to inflate beside the four
        ``row_*`` columns (``FragmentIndex.lists_for(scorer)``: one for
        shared_peaks / hyperscore, none for a scorer scored directly);
        ``None`` decodes every section.  Sections are compressed
        independently, so an unrequested one costs nothing here — its
        bytes were still read and hashed with the rest of the blob.
        """
        entry = self._entry(i)
        layout = entry.layout
        wanted = None if lists is None else stored_sections(lists)
        arrays: Dict[str, np.ndarray] = {}
        for section in entry.sections:
            if wanted is not None and section.name not in wanted:
                continue
            # a key section decodes to the shape of the ``row`` column
            # it encodes
            prefix = _KEY_SECTIONS.get(section.name)
            spec = layout.arrays.get(f"{prefix}_row" if prefix else section.name)
            if spec is None:
                raise IndexStoreError(
                    f"partition {i} section {section.name!r} has no manifest "
                    f"entry"
                )
            buf = blob[section.offset : section.offset + section.nbytes]
            arrays[section.name] = decode_array(
                buf, section.codec, spec.dtype, spec.shape
            )
        _split_posting_keys(arrays, layout.num_rows)
        problems = layout.check_arrays(arrays, partition_arrays(lists))
        if problems:
            raise IndexStoreError(
                f"partition {i} of store {self.path} does not match its "
                f"manifest: " + "; ".join(problems)
            )
        return FragmentIndex.from_arrays(layout, arrays)

    def decode_partition(
        self, i: int, lists: Optional[Sequence[str]] = None
    ) -> FragmentIndex:
        """Read + decode partition ``i`` in one step (no prefetch)."""
        return self.decode_partition_blob(i, self.read_partition_blob(i), lists)

    def _entry(self, i: int) -> PartitionEntry:
        if not 0 <= i < self.num_partitions:
            raise IndexStoreError(
                f"partitioned store at {self.path} has {self.num_partitions} "
                f"partitions; partition {i} does not exist"
            )
        return self.partitions[i]

    # -- reporting ---------------------------------------------------------

    def provenance(self, lists: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """Index-provenance record for RunReport extras (``source``
        ``"streamed"``: partitions are decoded as the pass reaches them;
        ``sections``: the blob sections a pass decoding posting ``lists``
        inflates — which bytes of each visited partition it touched)."""
        return {
            "source": "streamed",
            "fingerprint": self.fingerprint,
            "schema": self.schema,
            "build": dict(self.build),
            "sections": list(stored_sections(lists)),
        }

    def describe(self) -> Dict[str, Any]:
        """Inspection summary (what ``repro index inspect`` prints)."""
        overflow = self.overflow
        return {
            "path": str(self.path),
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "build": dict(self.build),
            "num_partitions": self.num_partitions,
            "num_rows": self.num_rows,
            "blob_bytes": self.blob_bytes,
            "decoded_bytes": self.decoded_bytes,
            "max_partition_bytes": self.max_partition_bytes,
            "overflow_spans": overflow.count if overflow is not None else 0,
            "partitions": [
                {
                    "name": p.name,
                    "mass_lo": p.mass_lo,
                    "mass_hi": p.mass_hi,
                    "num_rows": p.num_rows,
                    "postings": p.num_fragments,
                    "blob_bytes": p.blob_bytes,
                    "decoded_bytes": p.decoded_bytes,
                }
                for p in self.partitions
            ],
        }


def save_partitioned_index(
    db: ProteinDatabase,
    path: Union[str, Path],
    *,
    partition_mb: float = 32.0,
    fragment_tolerance: float = 0.5,
    max_length: int = 48,
    monoisotopic: bool = True,
    overwrite: bool = False,
) -> PartitionedIndex:
    """Build ``db``'s partitioned out-of-core index under ``path``.

    Enumerates the precursor-major span set once, cuts it into
    mass-contiguous partitions of ~``partition_mb`` MiB decoded size,
    builds each partition with :meth:`IndexBuilder.build_partition`,
    and writes the directory format described in the module docstring.
    The write is atomic (tmp-sibling assembly + rename) and durable
    (per-file and directory fsync).  Peak builder memory is one
    partition's arrays, not the whole index.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise IndexStoreError(
            f"index store path {path} already exists (pass overwrite to "
            f"replace it)"
        )
    if partition_mb <= 0:
        raise IndexStoreError(
            f"partition_mb must be > 0, got {partition_mb}"
        )
    build = {
        "fragment_tolerance": float(fragment_tolerance),
        "max_length": int(max_length),
        "monoisotopic": bool(monoisotopic),
        "partition_mb": float(partition_mb),
    }
    fingerprint = compute_fingerprint(db, build)
    builder = IndexBuilder(
        fragment_tolerance=fragment_tolerance,
        max_length=max_length,
        monoisotopic=monoisotopic,
    )
    indexable, overflow_spans = enumerate_spans(db, max_length)
    slices = partition_boundaries(
        indexable.lengths, int(partition_mb * (1 << 20))
    )
    metrics = get_metrics()
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        db_dir = tmp / DATABASE_DIR
        db_dir.mkdir()
        database_arrays: Dict[str, Any] = {}
        for name, arr in zip(_DB_BUFFERS, db.to_buffers()):
            buf_path = db_dir / f"{name}.npy"
            with open(buf_path, "wb") as fh:
                np.save(fh, arr)
                fh.flush()
                os.fsync(fh.fileno())
            database_arrays[name] = {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
        _fsync_dir(db_dir)

        part_dir = tmp / PARTITIONS_DIR
        part_dir.mkdir()
        entries: List[PartitionEntry] = []
        for i, (lo, hi) in enumerate(slices):
            part_spans = indexable.take(np.arange(lo, hi))
            with metrics.span(
                "partition.build", category="store", partition=i, rows=hi - lo
            ):
                layout, arrays = builder.build_partition(db, part_spans)
            blob, sections = _encode_blob(
                _with_posting_keys(arrays, layout.num_rows), PARTITION_STORED_ARRAYS
            )
            name = _partition_filename(i)
            blob_path = part_dir / name
            with open(blob_path, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            entries.append(
                PartitionEntry(
                    name=name,
                    mass_lo=float(part_spans.mass[0]),
                    mass_hi=float(part_spans.mass[-1]),
                    num_rows=layout.num_rows,
                    num_fragments=layout.num_fragments,
                    blob_bytes=len(blob),
                    decoded_bytes=int(layout.nbytes),
                    sha256=hashlib.sha256(blob).hexdigest(),
                    layout=layout,
                    sections=sections,
                )
            )

        over_blob, over_sections = _encode_blob(
            {name: getattr(overflow_spans, name) for name in _OVERFLOW_DTYPES},
            list(_OVERFLOW_DTYPES),
        )
        with open(part_dir / OVERFLOW_NAME, "wb") as fh:
            fh.write(over_blob)
            fh.flush()
            os.fsync(fh.fileno())
        overflow_entry = OverflowEntry(
            count=len(overflow_spans),
            blob_bytes=len(over_blob),
            sha256=hashlib.sha256(over_blob).hexdigest(),
            sections=over_sections,
        )
        _fsync_dir(part_dir)

        header = {
            "schema": PARTITIONED_SCHEMA,
            "fingerprint": fingerprint,
            "created": time.time(),
            "build": build,
            "database": database_arrays,
            "partitions": [entry.to_dict() for entry in entries],
            "overflow": overflow_entry.to_dict(),
        }
        with open(tmp / HEADER_NAME, "w") as fh:
            json.dump(header, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(tmp)
        if path.exists():  # overwrite: drop the stale store just before rename
            shutil.rmtree(path)
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return open_partitioned_index(path)


def open_partitioned_index(path: Union[str, Path]) -> PartitionedIndex:
    """Open and header-validate a partitioned store directory.

    Cheap: reads only ``header.json`` (the partition directory); no
    blob or database buffer is touched until a partition is streamed.
    """
    path = Path(path)
    header_path = path / HEADER_NAME
    header = _read_header(path)
    schema = header.get("schema")
    if not isinstance(schema, str) or not schema.startswith(
        "repro.index_store_partitioned/"
    ):
        raise IndexStoreError(
            f"unrecognized partitioned store schema {schema!r} in {header_path}"
        )
    if schema != PARTITIONED_SCHEMA:
        raise IndexStoreError(
            f"unsupported partitioned store schema {schema!r} in "
            f"{header_path} (this build reads {PARTITIONED_SCHEMA}); rebuild "
            f"the store with `repro index build --partition-mb ...`"
        )
    try:
        fingerprint = header["fingerprint"]
        build = header["build"]
        created = float(header.get("created", 0.0))
        if not isinstance(fingerprint, str) or not isinstance(build, dict):
            raise TypeError("fingerprint/build have wrong types")
        database_arrays = {
            name: (str(spec["dtype"]), tuple(int(d) for d in spec["shape"]))
            for name, spec in header["database"].items()
        }
        partitions = [
            PartitionEntry.from_dict(entry) for entry in header["partitions"]
        ]
        overflow = OverflowEntry.from_dict(header["overflow"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, IndexStoreError):
            raise
        raise IndexStoreError(
            f"malformed partitioned store header {header_path}: {exc!r}"
        ) from None
    missing = [name for name in _DB_BUFFERS if name not in database_arrays]
    if missing:
        raise IndexStoreError(
            f"partitioned store header {header_path} is missing database "
            f"buffers {missing}"
        )
    return PartitionedIndex(
        path=path,
        schema=schema,
        fingerprint=fingerprint,
        build=build,
        created=created,
        database_arrays=database_arrays,
        partitions=partitions,
        overflow=overflow,
    )


def open_any_index(
    path: Union[str, Path]
) -> Union[StoredIndex, PartitionedIndex]:
    """Open a store directory of either schema by dispatching on its header.

    The single entry point CLI / engines / service use when the store
    flavor is the user's choice: resident stores
    (``repro.index_store/2``) come back as :class:`StoredIndex`,
    partitioned stores as :class:`PartitionedIndex`.
    """
    path = Path(path)
    schema = _read_header(path).get("schema")
    if isinstance(schema, str) and schema.startswith(
        "repro.index_store_partitioned/"
    ):
        return open_partitioned_index(path)
    return open_index(path)


@dataclass
class StreamStats:
    """Work and overlap counters from one streaming pass."""

    partitions: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    prefetch_hits: int = 0
    prefetch_stalls: int = 0
    io_seconds: float = 0.0
    decode_seconds: float = 0.0
    stall_seconds: float = 0.0

    def merge(self, other: "StreamStats") -> None:
        self.partitions += other.partitions
        self.bytes_read += other.bytes_read
        self.bytes_decoded += other.bytes_decoded
        self.prefetch_hits += other.prefetch_hits
        self.prefetch_stalls += other.prefetch_stalls
        self.io_seconds += other.io_seconds
        self.decode_seconds += other.decode_seconds
        self.stall_seconds += other.stall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "partitions": self.partitions,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_stalls": self.prefetch_stalls,
            "io_seconds": self.io_seconds,
            "decode_seconds": self.decode_seconds,
            "stall_seconds": self.stall_seconds,
        }


@dataclass
class StreamedPartition:
    """One decoded partition yielded by :class:`StreamingIndexReader`."""

    pid: int
    entry: PartitionEntry
    index: FragmentIndex


class StreamingIndexReader:
    """Iterate a store's partitions with background read-ahead.

    A background thread reads (and checksums) the *next* partition's
    blob while the caller decodes and scores the current one — a double
    buffer of two partitions, which is all the paper's overlap argument
    needs when queries visit each partition exactly once in mass order.

    ``memory_budget_mb`` bounds the bytes the pass may hold (current
    decoded arrays + prefetched blob).  A budget smaller than two
    partitions degrades gracefully to serial reads (every visit stalls);
    a budget smaller than *one* partition is refused up front with
    :class:`~repro.errors.IndexStoreError` — the store must be rebuilt
    with a smaller ``--partition-mb``.

    I/O failures in the prefetch thread (truncated blob, checksum
    mismatch) are re-raised on the consuming thread at the partition
    they struck, typed, so a mid-stream store outage surfaces exactly
    like a mid-stream resident read error would.

    ``lists`` is passed to :meth:`PartitionedIndex.decode_partition_blob`
    (the posting lists the pass's scorer probes; ``None`` decodes
    everything), and the budget and ``bytes_decoded`` charge what that
    decode produces.
    """

    def __init__(
        self,
        store: PartitionedIndex,
        partition_ids: Optional[Sequence[int]] = None,
        *,
        lists: Optional[Sequence[str]] = None,
        memory_budget_mb: Optional[float] = None,
        prefetch: bool = True,
    ):
        self.store = store
        self.lists = None if lists is None else tuple(lists)
        self.ids = (
            list(range(store.num_partitions))
            if partition_ids is None
            else [int(i) for i in partition_ids]
        )
        for pid in self.ids:
            store._entry(pid)  # typed range check up front
        self.stats = StreamStats()
        self._budget = (
            int(memory_budget_mb * (1 << 20))
            if memory_budget_mb is not None
            else None
        )
        if self._budget is not None and self.ids:
            worst = max(self._cost(pid) for pid in self.ids)
            if worst > self._budget:
                raise IndexStoreError(
                    f"streaming memory budget {self._budget} B cannot hold "
                    f"partition of {worst} B; rebuild the store with a "
                    f"smaller --partition-mb or raise the budget"
                )
        self._prefetch = prefetch and len(self.ids) > 0
        self._queue: "queue.Queue" = queue.Queue(maxsize=1)
        self._held = threading.Semaphore(2)  # current + prefetched
        self._resident = 0
        self._resident_lock = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        if self._prefetch:
            self._thread = threading.Thread(
                target=self._prefetch_loop, name="stream-prefetch", daemon=True
            )
            self._thread.start()

    def _cost(self, pid: int) -> int:
        entry = self.store.partitions[pid]
        return entry.blob_bytes + entry.decoded_nbytes(self.lists)

    def _reserve(self, pid: int) -> None:
        if self._budget is None:
            return
        cost = self._cost(pid)
        with self._resident_lock:
            while self._resident + cost > self._budget:
                self._resident_lock.wait()
            self._resident += cost

    def _release(self, pid: int) -> None:
        if self._budget is None:
            return
        with self._resident_lock:
            self._resident -= self._cost(pid)
            self._resident_lock.notify_all()

    def _prefetch_loop(self) -> None:
        for pid in self.ids:
            self._held.acquire()
            self._reserve(pid)
            t0 = time.perf_counter()
            try:
                blob = self.store.read_partition_blob(pid)
            except BaseException as exc:  # re-raised on the consumer side
                self._queue.put((pid, None, exc, 0.0))
                return
            self._queue.put((pid, blob, None, time.perf_counter() - t0))
        self._queue.put((None, None, None, 0.0))

    def __iter__(self) -> Iterator[StreamedPartition]:
        metrics = get_metrics()
        prev: Optional[int] = None
        if not self._prefetch:
            for pid in self.ids:
                if prev is not None:
                    self._release(prev)
                self._reserve(pid)
                t0 = time.perf_counter()
                blob = self.store.read_partition_blob(pid)
                read_seconds = time.perf_counter() - t0
                self.stats.prefetch_stalls += 1  # serial reads always wait on I/O
                self.stats.stall_seconds += read_seconds
                yield self._decode(pid, blob, read_seconds, metrics)
                prev = pid
            if prev is not None:
                self._release(prev)
            return
        while True:
            # the *previous* partition's arrays are dead once the caller
            # asks for the next one; release its budget before blocking
            # on the queue — under a tight budget the prefetcher may be
            # waiting on exactly this release to read the next blob
            if prev is not None:
                self._held.release()
                self._release(prev)
                prev = None
            if self._queue.empty():
                self.stats.prefetch_stalls += 1
                t0 = time.perf_counter()
                with metrics.span("stream.stall", category="stream"):
                    item = self._queue.get()
                self.stats.stall_seconds += time.perf_counter() - t0
            else:
                self.stats.prefetch_hits += 1
                item = self._queue.get()
            pid, blob, error, io_seconds = item
            if pid is None:
                return
            if error is not None:
                raise error
            prev = pid
            yield self._decode(pid, blob, io_seconds, metrics)

    def _decode(
        self, pid: int, blob: bytes, io_seconds: float, metrics
    ) -> StreamedPartition:
        """Decode one read blob and account for the visit."""
        entry = self.store.partitions[pid]
        self.stats.io_seconds += io_seconds
        self.stats.bytes_read += len(blob)
        t0 = time.perf_counter()
        with metrics.span(
            "stream.decode",
            category="stream",
            partition=pid,
            blob_bytes=entry.blob_bytes,
        ):
            index = self.store.decode_partition_blob(pid, blob, self.lists)
        self.stats.decode_seconds += time.perf_counter() - t0
        decoded = entry.decoded_nbytes(self.lists)
        self.stats.bytes_decoded += decoded
        self.stats.partitions += 1
        metrics.count("stream.partitions")
        metrics.count("stream.bytes_read", entry.blob_bytes)
        metrics.count("stream.bytes_decoded", decoded)
        return StreamedPartition(pid=pid, entry=entry, index=index)

    def close(self) -> None:
        """Drain the prefetch thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        # unblock the producer whatever it is waiting on, then drain
        with self._resident_lock:
            self._resident = -(1 << 62)
            self._resident_lock.notify_all()
        self._held.release()
        self._held.release()
        while thread.is_alive():
            try:
                self._queue.get_nowait()
            except queue.Empty:
                time.sleep(0.001)
        metrics = get_metrics()
        metrics.count("stream.prefetch_hits", self.stats.prefetch_hits)
        metrics.count("stream.prefetch_stalls", self.stats.prefetch_stalls)

    def __enter__(self) -> "StreamingIndexReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
