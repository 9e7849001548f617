"""Shard-resident fragment-ion index (HiCOPS-style precomputation)."""

from repro.index.layout import ArraySpec, IndexLayout

__all__ = ["ArraySpec", "BuiltIndex", "FragmentIndex", "IndexBuilder", "IndexLayout"]


def __getattr__(name):
    # fragment_index imports the candidate row table, whose module reads
    # its dtypes from repro.index.layout: importing it here, eagerly, would
    # make ``import repro.candidates`` circular
    if name in ("BuiltIndex", "FragmentIndex", "IndexBuilder"):
        from repro.index import fragment_index

        return getattr(fragment_index, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
