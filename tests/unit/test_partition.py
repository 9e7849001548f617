"""Unit tests for database/query partitioning (paper step A1)."""

import numpy as np
import pytest

from repro.chem.protein import ProteinDatabase
from repro.core.partition import (
    effective_query_blocks,
    partition_bounds,
    partition_database,
    partition_queries,
    partition_queries_by_mass,
)
from repro.workloads.synthetic import generate_database


class TestPartitionDatabase:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 16])
    def test_concat_reproduces_database(self, p):
        db = generate_database(50, seed=9)
        shards = partition_database(db, p)
        assert len(shards) == p
        assert ProteinDatabase.concat(shards) == db

    def test_byte_balance(self):
        db = generate_database(200, seed=9)
        shards = partition_database(db, 8)
        sizes = [s.total_residues for s in shards]
        mean = db.total_residues / 8
        # every shard within one max-sequence-length of the ideal chunk
        max_len = int(db.lengths.max())
        assert all(abs(sz - mean) <= max_len for sz in sizes)

    def test_more_ranks_than_sequences_gives_empty_shards(self):
        db = generate_database(3, seed=9)
        shards = partition_database(db, 8)
        assert sum(len(s) for s in shards) == 3
        assert ProteinDatabase.concat(shards) == db

    def test_ids_preserved(self):
        db = generate_database(30, seed=9)
        shards = partition_database(db, 4)
        all_ids = np.concatenate([s.ids for s in shards])
        assert np.array_equal(all_ids, db.ids)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            partition_database(generate_database(5, seed=1), 0)

    def test_bounds_monotone(self):
        db = generate_database(100, seed=9)
        bounds = partition_bounds(db.offsets, 7)
        assert bounds[0] == 0
        assert bounds[-1] == len(db)
        assert np.all(np.diff(bounds) >= 0)

    def test_sequence_assigned_to_chunk_of_first_byte(self):
        db = generate_database(40, seed=9)
        p = 5
        bounds = partition_bounds(db.offsets, p)
        total = db.total_residues
        for i in range(p):
            for k in range(int(bounds[i]), int(bounds[i + 1])):
                start_byte = int(db.offsets[k])
                assert i * total / p <= start_byte
                assert start_byte < (i + 1) * total / p or i == p - 1


class TestPartitionQueries:
    def test_contiguous_blocks_cover_all(self):
        queries = list(range(25))
        blocks = partition_queries(queries, 4)
        assert [q for block in blocks for q in block] == queries
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_queries(self):
        blocks = partition_queries([], 4)
        assert blocks == [[], [], [], []]

    def test_single_rank(self):
        assert partition_queries([1, 2, 3], 1) == [[1, 2, 3]]

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            partition_queries([1], 0)


class TestPartitionQueriesByMass:
    def test_blocks_are_contiguous_mass_ranges(self, tiny_queries, foreign_queries):
        queries = list(tiny_queries) + list(foreign_queries)
        blocks = partition_queries_by_mass(queries, 4)
        flat = [q for block in blocks for q in block]
        assert sorted(map(id, flat)) == sorted(map(id, queries))
        masses = [q.parent_mass for q in flat]
        assert masses == sorted(masses)
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_input_order_does_not_matter(self, tiny_queries):
        forward = partition_queries_by_mass(tiny_queries, 3)
        backward = partition_queries_by_mass(tiny_queries[::-1], 3)
        assert [[q.parent_mass for q in b] for b in forward] == [
            [q.parent_mass for q in b] for b in backward
        ]


class TestEffectiveQueryBlocks:
    @pytest.mark.parametrize(
        "query_blocks,num_workers,num_queries,expected",
        [
            (1, 1, 100, 1),  # inline
            (1, 2, 100, 2),  # the query axis feeds both workers
            (4, 2, 100, 4),  # the caller's count is a floor, not a ceiling
            (1, 5, 100, 5),  # one task per worker at least
            (8, 2, 3, 3),  # never more blocks than queries
            (3, 1, 0, 1),  # no queries: one empty block
        ],
    )
    def test_floor_and_caps(self, query_blocks, num_workers, num_queries, expected):
        assert effective_query_blocks(query_blocks, num_workers, num_queries) == expected

    def test_invalid_query_blocks(self):
        with pytest.raises(ValueError):
            effective_query_blocks(0, 1, 10)
