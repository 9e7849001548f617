"""Shared fixtures: small deterministic databases, queries, configs."""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.streaming import StreamingSearcher
from repro.index import IndexBuilder
from repro.store import LoadedShard
from repro.workloads.queries import QueryWorkload
from repro.workloads.synthetic import generate_database


def loaded_index(db, config, max_length=48):
    """What ``StoredIndex.load_shard`` returns for a resident store of
    ``db``, built on the heap: the database and a view over its row table
    and postings.

    Searches never build one; the index-flavour identity suites build it
    here, the way ``save_index`` would, without a directory.
    """
    built = IndexBuilder(
        fragment_tolerance=config.fragment_tolerance, max_length=max_length
    ).build(db)
    return LoadedShard(
        database=db, index=built.view(), seconds=0.0, nbytes=db.nbytes + built.layout.nbytes
    )


def store_searcher(db, config, max_length=48, **kwargs):
    """The store searcher over a heap-built resident store of ``db``: a
    stand-in store whose ``load_shard`` returns :func:`loaded_index`."""
    loaded = loaded_index(db, config, max_length)
    store = SimpleNamespace(partitioned=False, load_shard=lambda **_: loaded)
    return StreamingSearcher(store, config, **kwargs)


@pytest.fixture(scope="module")
def short_switch_interval():
    """Run a module's threads under a 0.1 ms switch interval.

    At CPython's default 5 ms a thread usually finishes its critical
    section before it is preempted, which hides lost updates,
    check-then-act bugs and hand-off races; at 0.1 ms the interleavings a
    loaded host would produce show up on an idle one.  Module scope: in
    force before class-scoped fixtures start their storms.  Autouse under
    ``tests/faults/``; the service integration suite asks for it by name.
    """
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


@pytest.fixture(scope="session")
def host_slowdown():
    """How much slower than nominal this host runs right now (>= 1).

    The end-to-end benchmark's fixed calibration kernel
    (``benchmarks/e2e/calibrate.py``), sampled twice: a deadline that
    bounds work in another process is multiplied by it, so a slow shared
    host stretches the bound instead of failing the test.
    """
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "e2e_calibrate",
        Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "calibrate.py",
    )
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    calibrator = calibrate.Calibrator()
    calibrator.sample()
    calibrator.sample()
    return max(1.0, calibrator.slowdown())


@pytest.fixture(scope="session")
def tiny_db():
    """60 synthetic proteins (~19K residues): fast, non-trivial."""
    return generate_database(60, seed=11)


@pytest.fixture(scope="session")
def small_db():
    """400 synthetic proteins, for integration tests."""
    return generate_database(400, seed=12)


@pytest.fixture(scope="session")
def tiny_queries(tiny_db):
    """12 spectra whose targets come from tiny_db itself (findable)."""
    spectra, targets = QueryWorkload(num_queries=12, seed=5, source=tiny_db).build()
    return spectra


@pytest.fixture(scope="session")
def foreign_queries():
    """10 spectra from an unrelated source (mostly miss the databases)."""
    return QueryWorkload(num_queries=10, seed=99).build()[0]


@pytest.fixture()
def config():
    return SearchConfig(tau=10)


@pytest.fixture()
def fast_config():
    return SearchConfig(tau=10, scorer="shared_peaks")
