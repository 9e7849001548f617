"""Unit tests for repro.chem.fasta."""

import io

import pytest

from repro.chem.fasta import read_fasta, write_fasta
from repro.chem.protein import ProteinDatabase, ProteinRecord
from repro.errors import FastaError, ReproError


def parse_fasta(text):
    return list(read_fasta(io.StringIO(text)))


class TestParse:
    def test_basic(self):
        records = parse_fasta(">a\nPEPTIDE\n>b\nKR\n")
        assert records == [ProteinRecord("a", "PEPTIDE"), ProteinRecord("b", "KR")]

    def test_multiline_sequences_joined(self):
        records = parse_fasta(">a\nPEP\nTIDE\n")
        assert records[0].sequence == "PEPTIDE"

    def test_blank_lines_ignored(self):
        records = parse_fasta(">a\nPEP\n\nTIDE\n\n>b\nKR\n")
        assert [r.sequence for r in records] == ["PEPTIDE", "KR"]

    def test_content_before_header_rejected(self):
        with pytest.raises(ValueError):
            parse_fasta("PEPTIDE\n>a\nKR\n")

    def test_parse_errors_are_typed(self):
        """Malformed input raises FastaError — a ReproError subclass the
        CLI maps to a clean exit, and still a ValueError for old callers."""
        with pytest.raises(FastaError, match="before first '>' header"):
            parse_fasta("PEPTIDE\n>a\nKR\n")
        assert issubclass(FastaError, ValueError)
        assert issubclass(FastaError, ReproError)

    def test_header_whitespace_stripped(self):
        assert parse_fasta(">  spaced  \nAA\n")[0].name == "spaced"


class TestRoundtrip:
    def test_write_read(self, tmp_path, tiny_db):
        path = tmp_path / "db.fasta"
        write_fasta(path, tiny_db)
        loaded = read_fasta(path)
        assert len(loaded) == len(tiny_db)
        for i in range(len(tiny_db)):
            assert loaded.sequence_str(i) == tiny_db.sequence_str(i)
            assert loaded.name(i) == tiny_db.name(i)

    def test_line_wrapping(self, tmp_path):
        db = ProteinDatabase.from_sequences(["A" * 150])
        path = tmp_path / "wrap.fasta"
        write_fasta(path, db, width=60)
        lines = path.read_text().splitlines()
        assert lines[0] == ">seq0"
        assert [len(line) for line in lines[1:]] == [60, 60, 30]

    def test_stringio_handles(self):
        db = ProteinDatabase.from_sequences(["PEPTIDE"])
        buf = io.StringIO()
        write_fasta(buf, db)
        buf.seek(0)
        assert read_fasta(buf).sequence_str(0) == "PEPTIDE"
