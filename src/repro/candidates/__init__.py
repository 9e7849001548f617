"""Candidate generation: prefix/suffix mass indexing and enumeration."""

from repro.candidates.mass_index import MassIndex, CandidateSpans
from repro.candidates.batch import CandidateBatch, LengthGroup
from repro.candidates.generator import CandidateGenerator, mass_window
from repro.candidates.tryptic import TrypticIndex

__all__ = [
    "MassIndex",
    "CandidateSpans",
    "CandidateBatch",
    "LengthGroup",
    "CandidateGenerator",
    "mass_window",
    "TrypticIndex",
]
