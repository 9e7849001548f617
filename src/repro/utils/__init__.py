"""Shared utilities: seeded RNG construction, stable hashing, formatting."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.format import format_si, render_table

__all__ = ["derive_seed", "make_rng", "format_si", "render_table"]
