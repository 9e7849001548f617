"""Minimal FASTA reader/writer."""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, TextIO, Union

from repro.chem.protein import ProteinDatabase, ProteinRecord
from repro.errors import FastaError

_PathOrHandle = Union[str, os.PathLike, TextIO]


def read_fasta(path: _PathOrHandle) -> ProteinDatabase:
    """Read a whole FASTA file into a :class:`ProteinDatabase`."""
    if hasattr(path, "read"):
        return ProteinDatabase.from_records(_iter_records(path))  # type: ignore[arg-type]
    with open(path, "r", encoding="ascii") as fh:
        return ProteinDatabase.from_records(_iter_records(fh))


def write_fasta(path: _PathOrHandle, database: ProteinDatabase, width: int = 60) -> None:
    """Write a database as FASTA with lines wrapped at ``width`` residues."""
    own = not hasattr(path, "write")
    fh: TextIO = open(path, "w", encoding="ascii") if own else path  # type: ignore[assignment]
    try:
        for record in database:
            fh.write(f">{record.name}\n")
            seq = record.sequence
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width])
                fh.write("\n")
    finally:
        if own:
            fh.close()


def _iter_records(fh: Iterable[str]) -> Iterator[ProteinRecord]:
    name = None
    parts: List[str] = []
    for line in fh:
        line = line.rstrip("\n")
        if line.startswith(">"):
            if name is not None:
                yield ProteinRecord(name, "".join(parts))
            name = line[1:].strip()
            parts = []
        elif line:
            if name is None:
                raise FastaError("FASTA content before first '>' header")
            parts.append(line.strip())
    if name is not None:
        yield ProteinRecord(name, "".join(parts))
