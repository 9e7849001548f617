"""Biochemistry substrate: residues, peptides, proteins, digestion, FASTA I/O."""

from repro.chem.amino_acids import (
    RESIDUE_CODES,
    encode_sequence,
    decode_sequence,
    mass_table,
    is_valid_sequence,
    Modification,
    STANDARD_MODIFICATIONS,
)
from repro.chem.peptide import peptide_mass, peptide_mz
from repro.chem.protein import ProteinRecord, ProteinDatabase
from repro.chem.digest import cleavage_sites
from repro.chem.fasta import read_fasta, write_fasta
from repro.chem.decoy import reverse_decoy, shuffle_decoy, with_decoys, is_decoy_id
from repro.chem.enzymes import Protease, PROTEASES, get_protease

__all__ = [
    "RESIDUE_CODES",
    "encode_sequence",
    "decode_sequence",
    "mass_table",
    "is_valid_sequence",
    "Modification",
    "STANDARD_MODIFICATIONS",
    "peptide_mass",
    "peptide_mz",
    "ProteinRecord",
    "ProteinDatabase",
    "cleavage_sites",
    "read_fasta",
    "write_fasta",
    "reverse_decoy",
    "shuffle_decoy",
    "with_decoys",
    "is_decoy_id",
    "Protease",
    "PROTEASES",
    "get_protease",
]
