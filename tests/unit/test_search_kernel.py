"""Unit tests for the shared per-shard search kernel."""

import numpy as np
import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.partition import partition_database
from repro.core.results import merge_rank_hits
from repro.core.search import ShardSearcher, search_serial
from repro.scoring.hits import TopHitList, pack_hit_columns
from tests.conftest import store_searcher
from tests.reference import assert_same_hitlists, candidates_evaluated, reference_search

_MODS = (STANDARD_MODIFICATIONS["oxidation"], STANDARD_MODIFICATIONS["phosphorylation_s"])


class TestShardSearcher:
    def test_search_counts_match_generator(self, tiny_db, tiny_queries, config):
        searcher = ShardSearcher(tiny_db, config)
        hitlists = {}
        stats = searcher.run(tiny_queries, hitlists)
        expected = int(searcher.count_each(tiny_queries).sum())
        assert stats.candidates_evaluated == expected
        assert stats.queries_processed == len(tiny_queries)

    def test_every_query_gets_a_hitlist(self, tiny_db, tiny_queries, config):
        searcher = ShardSearcher(tiny_db, config)
        hitlists = {}
        searcher.run(tiny_queries, hitlists)
        assert set(hitlists) == {q.query_id for q in tiny_queries}

    def test_hits_respect_tau(self, tiny_db, tiny_queries):
        cfg = SearchConfig(tau=2, delta=20.0)
        searcher = ShardSearcher(tiny_db, cfg)
        hitlists = {}
        searcher.run(tiny_queries, hitlists)
        assert all(len(hl) <= 2 for hl in hitlists.values())

    def test_hit_spans_are_real_database_spans(self, tiny_db, tiny_queries, config):
        searcher = ShardSearcher(tiny_db, config)
        hitlists = {}
        searcher.run(tiny_queries, hitlists)
        id_to_index = {int(pid): i for i, pid in enumerate(tiny_db.ids)}
        for hl in hitlists.values():
            for hit in hl.sorted_hits():
                seq = tiny_db.sequence(id_to_index[hit.protein_id])
                assert 0 <= hit.start < hit.stop <= len(seq)

    def test_min_candidate_length_filters(self, tiny_db, tiny_queries):
        long_cfg = SearchConfig(tau=100, delta=10.0, min_candidate_length=12)
        searcher = ShardSearcher(tiny_db, long_cfg)
        hitlists = {}
        searcher.run(tiny_queries, hitlists)
        for hl in hitlists.values():
            for hit in hl.sorted_hits():
                assert hit.length >= 12

    def test_score_cutoff_filters(self, tiny_db, tiny_queries):
        cfg = SearchConfig(tau=100, score_cutoff=1e9)
        searcher = ShardSearcher(tiny_db, cfg)
        hitlists = {}
        searcher.run(tiny_queries, hitlists)
        assert all(len(hl) == 0 for hl in hitlists.values())

    def test_modeled_counts_without_hits(self, tiny_db, tiny_queries, config):
        modeled = SearchConfig(tau=config.tau, execution=ExecutionMode.MODELED)
        real = SearchConfig(tau=config.tau)
        m = ShardSearcher(tiny_db, modeled)
        r = ShardSearcher(tiny_db, real)
        mh, rh = {}, {}
        mstats = m.run(tiny_queries, mh)
        rstats = r.run(tiny_queries, rh)
        assert mstats.candidates_evaluated == rstats.candidates_evaluated
        assert all(len(hl) == 0 for hl in mh.values())

    @pytest.mark.parametrize(
        "cfg, indexed",
        [
            (SearchConfig(tau=10), True),
            (SearchConfig(tau=3, scorer="hyperscore", sweep_cohort=2), False),
            (SearchConfig(tau=100, delta=10.0, min_candidate_length=12, scorer="xcorr"), True),
            (SearchConfig(tau=10, score_cutoff=4.0, scorer="shared_peaks", sweep_cohort=1), True),
            (SearchConfig(tau=10, scorer="hyperscore", modifications=_MODS), True),
        ],
        ids=["default", "direct-cap2", "length-floor", "cutoff-cap1", "ptm-store"],
    )
    def test_run_equals_scalar_reference(self, tiny_db, tiny_queries, cfg, indexed):
        """Hits, per-query ``evaluated`` and the candidate total are the
        scalar reference's, two shards folding into one set of hit lists,
        store-served (a heap-built row table and index per shard) or
        direct."""
        shards = partition_database(tiny_db, 2)
        reference, hitlists, candidates = {}, {}, 0
        for shard in shards:
            reference_search(shard, cfg, tiny_queries, reference)
            searcher = store_searcher(shard, cfg) if indexed else ShardSearcher(shard, cfg)
            candidates += searcher.run(tiny_queries, hitlists).candidates_evaluated
        assert_same_hitlists(reference, hitlists)
        assert candidates == candidates_evaluated(reference)

    def test_count_batch_matches_per_query(self, tiny_db, tiny_queries, config):
        searcher = ShardSearcher(tiny_db, config)
        assert searcher.count_each(tiny_queries).tolist() == [
            int(searcher.count_each([q])[0]) for q in tiny_queries
        ]

    def test_shard_decomposition_is_exhaustive(self, tiny_db, tiny_queries, config):
        """Candidates over shards partition the whole database's candidates
        — the correctness foundation of every parallel algorithm here."""
        whole = ShardSearcher(tiny_db, config)
        shards = [ShardSearcher(s, config) for s in partition_database(tiny_db, 5)]
        assert np.array_equal(
            whole.count_each(tiny_queries), sum(s.count_each(tiny_queries) for s in shards)
        )

    def test_per_shard_merge_equals_whole(self, tiny_db, tiny_queries, config):
        whole_hits = {}
        ShardSearcher(tiny_db, config).run(tiny_queries, whole_hits)
        shard_hitlists = []
        for shard in partition_database(tiny_db, 4):
            h = {}
            ShardSearcher(shard, config).run(tiny_queries, h)
            shard_hitlists.append(h)
        merged = merge_rank_hits(
            [pack_hit_columns(h, h) for h in shard_hitlists], config.tau
        )
        for q in tiny_queries:
            assert merged[q.query_id] == whole_hits[q.query_id].sorted_hits()


class TestSearchSerial:
    def test_report_fields(self, tiny_db, tiny_queries, config):
        report = search_serial(tiny_db, tiny_queries, config)
        assert report.algorithm == "serial"
        assert report.num_ranks == 1
        assert report.virtual_time > 0
        assert set(report.hits) == {q.query_id for q in tiny_queries}

    def test_finds_true_peptide_as_top_hit(self, tiny_db, config):
        """Queries generated FROM the database should usually hit their
        own source span at rank 1 (the quality sanity check)."""
        from repro.workloads.queries import QueryWorkload

        spectra, targets = QueryWorkload(num_queries=12, seed=5, source=tiny_db).build()
        report = search_serial(tiny_db, spectra, config)
        top_correct = 0
        for spec, target in zip(spectra, targets):
            top = report.top_hit(spec.query_id)
            if top is None:
                continue
            idx = {int(pid): i for i, pid in enumerate(tiny_db.ids)}[top.protein_id]
            span = tiny_db.sequence(idx)[top.start : top.stop]
            if np.array_equal(span, target):
                top_correct += 1
        assert top_correct >= 8, f"only {top_correct}/12 targets recovered"
