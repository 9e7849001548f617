"""Unit tests for the master-worker baseline's entry point."""

import pickle

import numpy as np
import pytest

from repro.candidates.mass_index import MassIndex
from repro.core import master_worker
from repro.core.config import SearchConfig
from repro.core.master_worker import run_master_worker
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.errors import ConfigError

_CONFIG = SearchConfig(scorer="likelihood", tau=5)


def test_one_rank_builds_one_searcher_and_one_index(tiny_db, tiny_queries, monkeypatch):
    """At p = 1 the run is the serial search: the whole-database searcher
    of the p > 1 path is never built, and the mass index is built once."""
    database = pickle.loads(pickle.dumps(tiny_db))  # an equal database, nothing cached
    assert database._mass_index is None
    index_builds, searchers = [], []
    build = MassIndex.__init__

    def counted_build(self, shard, reach=float("inf")):
        index_builds.append(shard)
        build(self, shard, reach)

    class CountedSearcher(master_worker.ShardSearcher):
        def __init__(self, *args, **kwargs):
            searchers.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(MassIndex, "__init__", counted_build)
    monkeypatch.setattr(master_worker, "ShardSearcher", CountedSearcher)
    report = run_master_worker(database, tiny_queries, 1, _CONFIG)
    assert report.algorithm == "master_worker"
    assert (len(index_builds), searchers) == (1, [])
    assert reports_equal(search_serial(tiny_db, tiny_queries, _CONFIG), report, score_rtol=0)


def test_negative_batch_size_is_refused(tiny_db, tiny_queries):
    """It made no batches, so the workers were sent their poison pills at
    once and the run returned 0 hits and 0 candidates."""
    with pytest.raises(ConfigError, match="batch_size"):
        run_master_worker(tiny_db, tiny_queries, 3, _CONFIG, batch_size=-1)


def test_zero_batch_size_is_refused(tiny_db, tiny_queries):
    """It raised an untyped ValueError from ``range``."""
    with pytest.raises(ConfigError, match="batch_size"):
        run_master_worker(tiny_db, tiny_queries, 3, _CONFIG, batch_size=0)


@pytest.mark.parametrize("batch_size", [2.0, 2.5, "4", True, None])
def test_non_integer_batch_size_is_refused(tiny_db, tiny_queries, batch_size):
    with pytest.raises(ConfigError, match="batch_size"):
        run_master_worker(tiny_db, tiny_queries, 3, _CONFIG, batch_size=batch_size)


def test_numpy_integer_batch_size_is_a_batch_size(tiny_db, tiny_queries):
    report = run_master_worker(tiny_db, tiny_queries, 3, _CONFIG, batch_size=np.int64(5))
    assert report.extras["batch_size"] == 5 and type(report.extras["batch_size"]) is int
    assert reports_equal(search_serial(tiny_db, tiny_queries, _CONFIG), report, score_rtol=0)
