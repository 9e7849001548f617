"""Integration: the multiproc direct path builds its mass index once, in
the parent, on the caller's database.

Fork workers and the inline path search the parent's searcher as is;
spawn workers receive it pickled, as its database, config and scorer,
and rebuild the index themselves — a ``MassIndex`` never crosses a pipe.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.candidates.mass_index import MassIndex
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import ShardSearcher, search_serial
from repro.engines.multiproc import run_multiprocess_search
from repro.scoring.hits import pack_hit_columns

_CONFIG = SearchConfig(tau=10)


def _fresh(database):
    """An equal database object with no mass index cached on it."""
    copy = pickle.loads(pickle.dumps(database))
    assert copy._mass_index is None
    return copy


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_fork_workers_inherit_the_parents_index(tiny_db, tiny_queries, monkeypatch):
    """Two fork runs over one database object build one index, in the
    parent.  The counters are shared memory the workers inherit, so a
    build in a worker would show."""
    serial = search_serial(tiny_db, tiny_queries, _CONFIG)
    database = _fresh(tiny_db)
    fork = multiprocessing.get_context("fork")
    builds, worker_builds = fork.Value("i", 0), fork.Value("i", 0)
    parent, init = os.getpid(), MassIndex.__init__

    def counting_init(self, shard, reach=float("inf")):
        with builds.get_lock():
            builds.value += 1
        if os.getpid() != parent:
            with worker_builds.get_lock():
                worker_builds.value += 1
        init(self, shard, reach)

    monkeypatch.setattr(MassIndex, "__init__", counting_init)
    for _ in range(2):
        rep = run_multiprocess_search(
            database, tiny_queries, num_workers=2, config=_CONFIG,
            query_blocks=3, start_method="fork",
        )
        assert reports_equal(serial, rep, score_rtol=0)
    assert (builds.value, worker_builds.value) == (1, 0)


def test_the_inline_path_keeps_the_databases_index(tiny_db, tiny_queries):
    database = _fresh(tiny_db)
    run_multiprocess_search(database, tiny_queries, num_workers=1, config=_CONFIG)
    index = database._mass_index
    assert index is not None
    run_multiprocess_search(
        database, tiny_queries, num_workers=1, config=_CONFIG, query_blocks=3
    )
    assert database._mass_index is index


def test_a_pickled_searcher_carries_no_index(tiny_db):
    searcher = ShardSearcher(tiny_db, _CONFIG)
    payload = pickle.dumps(searcher)
    buffers = sum(buf.nbytes for buf in tiny_db.to_buffers())
    assert len(payload) < buffers + 4096 < searcher.generator.index.nbytes
    assert b"MassIndex" not in payload


@pytest.mark.parametrize("scorer", ["likelihood", "hyperscore"])
def test_an_unpickled_searcher_returns_the_same_hits(tiny_db, tiny_queries, scorer):
    config = SearchConfig(tau=10, scorer=scorer, sweep_cohort=4)
    original = ShardSearcher(tiny_db, config)
    copy = pickle.loads(pickle.dumps(original))
    assert copy.generator.index is not original.generator.index
    qids = [q.query_id for q in tiny_queries]
    results = []
    for searcher in (original, copy):
        hitlists = {}
        stats = searcher.run(tiny_queries, hitlists)
        results.append((stats, pack_hit_columns(hitlists, qids)))
    (stats_a, hits_a), (stats_b, hits_b) = results
    assert stats_a == stats_b
    for a, b in zip(hits_a, hits_b):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
