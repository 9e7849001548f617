"""Integration: the scaling shapes behind Tables II-IV and Figure 4.

Absolute numbers are cluster constants; these tests pin the *shapes* the
paper reports:

* run-time grows ~linearly with database size at fixed p (Table II columns);
* run-time falls with p for large-enough inputs, with near-linear
  speedup (Figure 4a);
* small inputs stop scaling and eventually slow down at large p
  (Table II footnote: "for input sizes < 16K the algorithm scales only
  until 8 processors");
* candidates/second grows ~linearly with p (Table III);
* Algorithm B's sorting time grows with p until B loses to A (Table IV).
"""

import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import run_search
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

MODELED = SearchConfig(execution=ExecutionMode.MODELED, tau=10)


@pytest.fixture(scope="module")
def queries():
    return generate_queries(120, seed=50)


def run_time(n, p, algorithm="algorithm_a", queries=None):
    db = generate_database(n, seed=51)
    return run_search(db, queries, algorithm, p, MODELED)


class TestTableIIShapes:
    def test_runtime_linear_in_database_size(self, queries):
        t1 = run_time(500, 4, queries=queries).virtual_time
        t2 = run_time(1000, 4, queries=queries).virtual_time
        t4 = run_time(2000, 4, queries=queries).virtual_time
        assert t2 / t1 == pytest.approx(2.0, rel=0.3)
        assert t4 / t2 == pytest.approx(2.0, rel=0.3)

    def test_runtime_falls_with_p_for_large_input(self, queries):
        times = {p: run_time(3000, p, queries=queries).virtual_time for p in (1, 2, 4, 8, 16)}
        for a, b in zip((1, 2, 4, 8), (2, 4, 8, 16)):
            assert times[b] < times[a]

    def test_speedup_roughly_doubles(self, queries):
        times = {p: run_time(3000, p, queries=queries).virtual_time for p in (1, 8, 16)}
        assert times[1] / times[8] > 5.0
        assert times[8] / times[16] > 1.5

    def test_small_input_stops_scaling(self, queries):
        """The 1K row of Table II turns back up by p = 128."""
        small = {p: run_time(120, p, queries=queries).virtual_time for p in (8, 128)}
        large_gain = run_time(3000, 8, queries=queries).virtual_time / run_time(
            3000, 128, queries=queries
        ).virtual_time
        small_gain = small[8] / small[128]
        assert small_gain < large_gain, "small inputs must benefit less from 128 ranks"
        assert small_gain < 4.0


class TestTableIIIShape:
    def test_candidates_per_second_scales(self, queries):
        rates = {}
        for p in (8, 16, 32):
            rep = run_time(3000, p, queries=queries)
            rates[p] = rep.candidates_per_second
        assert rates[16] / rates[8] == pytest.approx(2.0, rel=0.35)
        assert rates[32] / rates[16] == pytest.approx(2.0, rel=0.35)


class TestPaperGridRows:
    """Cells of ``scenarios/paper_tables.yaml`` (1,210 queries, seed 202):
    the shapes of its 16K and 1K rows behind Table II, Table III and
    Figure 4."""

    @pytest.fixture(scope="class")
    def grid(self):
        queries = generate_queries(1210, seed=17)
        cells = {}
        for n, ranks in ((16_000, (1, 8, 16, 64, 128)), (1_000, (64, 128))):
            db = generate_database(n, seed=202)
            for p in ranks:
                cells[n, p] = run_search(db, queries, "algorithm_a", p, MODELED)
        return cells

    def test_large_row_keeps_gaining_through_p64(self, grid):
        t = {p: grid[16_000, p].virtual_time for p in (1, 8, 64)}
        assert t[64] < t[8] < t[1]

    def test_small_row_stops_scaling(self, grid):
        assert grid[1_000, 128].virtual_time > 0.6 * grid[1_000, 64].virtual_time

    def test_figure4_speedup_and_efficiency(self, grid):
        t1 = grid[16_000, 1].virtual_time
        s = {p: t1 / grid[16_000, p].virtual_time for p in (8, 16, 64)}
        assert s[16] / s[8] == pytest.approx(2.0, rel=0.35)
        assert s[64] > 4 * s[8] * 0.55
        assert 0.3 < s[64] / 64 <= 1.05

    def test_table3_rate(self, grid):
        rate = {p: grid[16_000, p].candidates_per_second for p in (8, 128)}
        # same order of magnitude as the paper's 41,429/s at p = 8
        assert 10_000 < rate[8] < 400_000
        assert rate[128] > 6 * rate[8]


class TestTableIVShapes:
    def test_sorting_time_grows_with_p(self, queries):
        sort_times = {}
        for p in (2, 8, 32):
            rep = run_time(1500, p, algorithm="algorithm_b", queries=queries)
            sort_times[p] = rep.extras["sorting_time"]
        assert sort_times[8] > sort_times[2]
        assert sort_times[32] > sort_times[8]

    def test_b_loses_to_a_at_large_p(self, queries):
        """The crossover: B's sorting overhead eventually dominates."""
        p = 64
        a = run_time(1500, p, "algorithm_a", queries=queries).virtual_time
        b = run_time(1500, p, "algorithm_b", queries=queries).virtual_time
        assert b > a

    def test_b_competitive_at_small_p(self, queries):
        """At small p the sorting overhead is negligible; B stays within
        ~1.5x of A (it also pays a systematic post-sort compute skew:
        m/z-sorted shards concentrate candidate-dense sequences)."""
        p = 2
        a = run_time(1500, p, "algorithm_a", queries=queries).virtual_time
        b = run_time(1500, p, "algorithm_b", queries=queries).virtual_time
        assert b < a * 1.5


    def test_b_advantage_is_bounded(self, queries):
        """With human-complexity queries every sender group spans nearly
        all ranks, so B's query phase cannot beat A's by much."""
        p = 8
        a = run_time(1500, p, "algorithm_a", queries=queries).virtual_time
        b = run_time(1500, p, "algorithm_b", queries=queries).virtual_time
        assert b > 0.5 * a


class TestXbangSpeed:
    def test_xbang_much_faster_than_accurate_search(self, queries):
        """X!!Tandem finished in minutes where MSPolygraph took hours."""
        a = run_time(1500, 8, "algorithm_a", queries=queries)
        x = run_time(1500, 8, "xbang", queries=queries)
        assert x.virtual_time < a.virtual_time / 5
        assert x.candidates_evaluated < a.candidates_evaluated / 5
