"""Integration: streamed search through the serial path, engines, and CLI.

The out-of-core contract: a search served from a partitioned store
(``save_partitioned_index``: the row table and a partition directory) —
serial, multiprocess with
workers streaming the partitions their query blocks' mass ranges meet,
or the long-lived service — returns hits bitwise identical to the
resident index path, while holding at most ~two partitions of rows per
consumer.  The CLI half covers ``index build --partition-mb`` →
``inspect`` → ``search --stream`` end to end, plus clean typed errors
for the misuse cases (``--stream`` on a resident store, simulated
engines, stale fingerprints, index-shape flags beside
``--partition-mb``).
"""

import multiprocessing

import pytest

from repro.cli import main
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.engines.multiproc import run_multiprocess_search
from repro.errors import IndexCompatError, IndexStoreError
from repro.service import SearchService, ServiceConfig
from repro.store import STORE_SCHEMA, save_index, save_partitioned_index

_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def _cfg(**kw):
    # hyperscore: posting-served from the resident store these suites
    # compare with, scored directly from a partition's rows like every
    # scorer (all five are held to the reference in test_persist.py and
    # test_prop_stream.py)
    kw.setdefault("scorer", "hyperscore")
    return SearchConfig(tau=10, **kw)


@pytest.fixture(scope="module")
def pstore(tiny_db, tmp_path_factory):
    """tiny_db partitioned at ~64 KiB so every pass crosses partitions."""
    path = tmp_path_factory.mktemp("pstream") / "pidx"
    return save_partitioned_index(tiny_db, path, partition_mb=1.0 / 16.0)


@pytest.fixture(scope="module")
def rstore(tiny_db, tmp_path_factory):
    return save_index(tiny_db, tmp_path_factory.mktemp("resident") / "ridx")


@pytest.fixture(scope="module")
def resident_report(tiny_db, tiny_queries, rstore):
    return search_serial(tiny_db, tiny_queries, _cfg(), index_store=rstore)


class TestSerialStreaming:
    def test_streamed_serial_matches_resident(
        self, tiny_db, tiny_queries, pstore, resident_report
    ):
        streamed = search_serial(
            tiny_db, tiny_queries, _cfg(), index_store=pstore
        )
        assert reports_equal(streamed, resident_report)
        stream = streamed.extras["stream"]
        # only partitions overlapping the query mass windows are visited
        assert 0 < stream["partitions"] <= pstore.num_partitions
        assert 0 < stream["bytes_read"] <= pstore.row_bytes
        assert streamed.extras["index_provenance"]["source"] == "streamed"
        assert (
            streamed.extras["index_provenance"]["fingerprint"]
            == pstore.fingerprint
        )

    def test_streamed_sweep_matches_resident_sweep(
        self, tiny_db, tiny_queries, pstore, rstore
    ):
        cfg = _cfg(sweep_cohort=4)  # several blocks per pass
        streamed = search_serial(tiny_db, tiny_queries, cfg, index_store=pstore)
        resident = search_serial(tiny_db, tiny_queries, cfg, index_store=rstore)
        assert streamed.extras["sweep_queries"] > 0
        assert reports_equal(streamed, resident)

    def test_memory_budget_too_small_is_typed(
        self, tiny_db, tiny_queries, pstore
    ):
        too_small = pstore.max_partition_bytes / (1 << 20) * 0.5
        with pytest.raises(IndexStoreError, match="memory budget"):
            search_serial(
                tiny_db, tiny_queries, _cfg(),
                index_store=pstore, memory_budget_mb=too_small,
            )

    def test_a_pass_opens_no_partition_above_its_heaviest_query(
        self, tiny_db, tiny_queries, pstore, monkeypatch
    ):
        """Long prefixes and suffixes are ordinary rows of high-mass
        partitions; a pass reads none of them its windows cannot reach."""
        from repro.store import StoredIndex

        opened = []
        read = StoredIndex.read_partition

        def spy(self, i):
            opened.append(i)
            return read(self, i)

        monkeypatch.setattr(StoredIndex, "read_partition", spy)
        cfg = _cfg()
        search_serial(tiny_db, tiny_queries, cfg, index_store=pstore)
        reach = max(q.parent_mass for q in tiny_queries) + cfg.delta
        assert opened == sorted(set(opened))  # each at most once, in mass order
        assert all(pstore.partitions[i].mass_lo <= reach for i in opened)
        unopened = set(range(pstore.num_partitions)) - set(opened)
        assert any(pstore.partitions[i].mass_lo > reach for i in unopened)

    def test_stale_fingerprint_refused(self, tiny_queries, pstore):
        from repro.workloads.synthetic import generate_database

        other = generate_database(61, seed=11)
        with pytest.raises(IndexStoreError, match="different database"):
            search_serial(other, tiny_queries, _cfg(), index_store=pstore)


class TestMultiprocStreaming:
    @pytest.mark.parametrize("start_method", _START_METHODS)
    @pytest.mark.parametrize("num_workers,query_blocks", [(1, 1), (2, 2), (3, 1)])
    def test_workers_stream_disjoint_ranges_bitwise(
        self, tiny_db, tiny_queries, pstore, resident_report,
        start_method, num_workers, query_blocks,
    ):
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=num_workers, config=_cfg(),
            query_blocks=query_blocks, start_method=start_method,
            index_path=str(pstore.path),
        )
        assert reports_equal(report, resident_report)
        ex = report.extras
        assert ex["index_path"] == str(pstore.path)
        assert ex["num_partitions"] == pstore.num_partitions
        assert ex["index_provenance"]["source"] == "streamed"
        # the store stays whole: the query blocks carry the parallelism
        assert ex["tasks_total"] == ex["query_blocks"] >= min(num_workers, len(tiny_queries))

    def test_more_workers_than_partitions_still_bitwise(
        self, tiny_db, tiny_queries, tmp_path, resident_report
    ):
        # one giant partition, several workers: every block's pass opens it
        store = save_partitioned_index(
            tiny_db, tmp_path / "one", partition_mb=64.0
        )
        assert store.num_partitions < 4
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=4, config=_cfg(),
            index_path=str(store.path),
        )
        assert reports_equal(report, resident_report)

    def test_streaming_incompatible_config_refused(
        self, tiny_db, tiny_queries, pstore
    ):
        with pytest.raises(IndexCompatError, match="modeled execution"):
            run_multiprocess_search(
                tiny_db, tiny_queries, num_workers=2,
                config=_cfg(execution=ExecutionMode.MODELED),
                index_path=str(pstore.path),
            )


class TestServiceStreaming:
    def test_service_over_partitioned_store_bitwise(
        self, tiny_db, tiny_queries, pstore, resident_report
    ):
        # a cheap scorer, then the paper's
        for cfg, report in (
            (_cfg(), resident_report),
            (_cfg(scorer="likelihood"), None),
        ):
            report = report or search_serial(tiny_db, tiny_queries, cfg)
            reference = {
                qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()
            }
            with SearchService(
                cfg, ServiceConfig(workers=2), store=str(pstore.path)
            ) as service:
                response = service.search(tiny_queries).raise_for_status()
            assert response.hits  # non-trivial workload
            for qid, hits in response.hits.items():
                assert [h.sort_key() for h in hits] == reference[qid], qid

    def test_service_refuses_unstreamable_config(self, pstore):
        with pytest.raises(IndexCompatError, match="modeled execution"):
            SearchService(
                _cfg(execution=ExecutionMode.MODELED),
                ServiceConfig(workers=1),
                store=str(pstore.path),
            )


_DB_ARGS = ["-n", "150", "--seed", "9"]
_SEARCH_ARGS = ["-m", "8", "--tau", "5", "--query-seed", "3"]


class TestCLI:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli_stream") / "pidx"
        rc = main(
            ["index", "build", str(path), *_DB_ARGS, "--partition-mb", "0.0625"]
        )
        assert rc == 0
        return path

    def test_build_then_inspect_prints_partition_stats(self, built, capsys):
        rc = main(["index", "inspect", str(built)])
        assert rc == 0
        out = capsys.readouterr().out
        assert STORE_SCHEMA in out
        assert "partition     0  rows [0, " in out
        assert "m/z" in out and "sha256" in out
        assert "rows" in out and "double_buffer_unit" in out
        assert "postings" not in out and "overflow" not in out

    @pytest.mark.parametrize(
        "flag", [["--fragment-tolerance", "0.3"], ["--index-max-length", "30"]]
    )
    def test_index_shape_flags_beside_partition_mb_are_refused(
        self, flag, tmp_path, capsys
    ):
        err = self._expect_error(
            ["index", "build", str(tmp_path / "p"), *_DB_ARGS,
             "--partition-mb", "1", *flag],
            capsys,
        )
        assert flag[0] in err and len(err.splitlines()) == 1
        assert not (tmp_path / "p").exists()

    def test_streamed_search_matches_resident_search(self, built, capsys):
        rc = main([
            "search", "-a", "serial", "-p", "1", "--stream",
            "--index-path", str(built), *_DB_ARGS, *_SEARCH_ARGS,
        ])
        assert rc == 0
        streamed = capsys.readouterr().out
        assert "streamed" in streamed
        rc = main(["search", "-a", "serial", "-p", "1", *_DB_ARGS, *_SEARCH_ARGS])
        assert rc == 0
        resident = capsys.readouterr().out
        assert [l for l in streamed.splitlines() if l.startswith("  query")] == [
            l for l in resident.splitlines() if l.startswith("  query")
        ]

    def test_stream_without_store_builds_a_temporary_one(self, capsys):
        rc = main([
            "search", "-a", "serial", "-p", "1", "--stream",
            "--partition-mb", "0.0625", *_DB_ARGS, *_SEARCH_ARGS,
        ])
        assert rc == 0
        assert "streamed" in capsys.readouterr().out

    def test_multiproc_streamed_search_matches_resident(self, built, capsys):
        rc = main([
            "search", "-a", "multiproc", "-p", "2", "--index-path", str(built),
            *_DB_ARGS, *_SEARCH_ARGS,
        ])
        assert rc == 0
        streamed = capsys.readouterr().out
        rc = main(["search", "-a", "serial", "-p", "1", *_DB_ARGS, *_SEARCH_ARGS])
        assert rc == 0
        resident = capsys.readouterr().out
        assert [l for l in streamed.splitlines() if l.startswith("  query")] == [
            l for l in resident.splitlines() if l.startswith("  query")
        ]

    def _expect_error(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_stream_flag_on_resident_store_is_clean_error(
        self, tiny_db, tmp_path, capsys
    ):
        resident = save_index(tiny_db, tmp_path / "ridx")
        err = self._expect_error(
            ["search", "-a", "serial", "-p", "1", "--stream",
             "--index-path", str(resident.path),
             "-n", "60", "--seed", "11", *_SEARCH_ARGS],
            capsys,
        )
        assert "partitioned" in err

    def test_stale_fingerprint_is_clean_error(self, built, capsys):
        err = self._expect_error(
            ["search", "-a", "serial", "-p", "1", "--index-path", str(built),
             "-n", "151", "--seed", "9", *_SEARCH_ARGS],
            capsys,
        )
        assert "different database" in err

    def test_simulated_engine_cannot_stream(self, built, capsys):
        err = self._expect_error(
            ["search", "-a", "algorithm_a", "--index-path", str(built),
             *_DB_ARGS, *_SEARCH_ARGS],
            capsys,
        )
        assert "simulated engine" in err
