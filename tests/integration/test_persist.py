"""Integration: persisted fragment indexes through the engines and CLI.

The mmap-once transport contract: an engine pointed at a
``repro index build`` directory returns hits bitwise identical to the
direct path — under both fork and spawn start methods — while shipping
only a path string to workers instead of the database buffers.  A store
holds one whole database, an empty one included, serves variable
modifications like the direct search, and a resident store refuses a
memory budget wherever one meets it.  The CLI
half covers the build → inspect → search workflow end to end, and that
every misuse (missing store, stale fingerprint, simulated engine,
corrupt header) exits with a one-line typed error, never a traceback.
"""

import json
import multiprocessing

import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.cli import main
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.driver import run_search
from repro.core.search import ShardSearcher, search_serial
from repro.core.streaming import StreamingSearcher
from repro.engines.multiproc import run_multiprocess_search
from repro.errors import ConfigError, IndexStoreError
from repro.scoring import SCORER_NAMES
from repro.service import SearchService, ServiceConfig
from repro.store import (
    HEADER_NAME,
    STORE_SCHEMA,
    open_index,
    save_index,
    save_partitioned_index,
)
from tests.reference import assert_same_hitlists, assert_report_matches, reference_search

_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def _cfg(**kw):
    return SearchConfig(tau=10, **kw)


@pytest.fixture(scope="module")
def tiny_store(tiny_db, tmp_path_factory):
    """tiny_db persisted as a resident store: one whole-database shard."""
    return save_index(tiny_db, tmp_path_factory.mktemp("store") / "idx")


class TestMmapTransport:
    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_mmap_round_trip_identical_hits(
        self, tiny_db, tiny_queries, tiny_store, start_method
    ):
        from_store = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(),
            start_method=start_method, index_path=str(tiny_store.path),
        )
        direct = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(),
            start_method=start_method,
        )
        assert reports_equal(from_store, direct)
        assert reports_equal(search_serial(tiny_db, tiny_queries, _cfg()), from_store)
        ex = from_store.extras
        assert ex["index_path"] == str(tiny_store.path)
        assert ex["index_load_time"] > 0.0
        assert ex["index_mmap_bytes"] == tiny_store.nbytes
        assert ex["index_provenance"]["source"] == "loaded"
        assert ex["index_provenance"]["fingerprint"] == tiny_store.fingerprint
        assert "index_mmap_bytes" not in direct.extras
        assert "index_provenance" not in direct.extras

    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_sweep_kernel_over_mmap_index(
        self, tiny_db, tiny_queries, tiny_store, start_method
    ):
        cfg = _cfg(sweep_cohort=4)  # several blocks per pass
        from_store = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=cfg,
            start_method=start_method, index_path=str(tiny_store.path),
        )
        assert from_store.extras["sweep_queries"] > 0
        assert reports_equal(search_serial(tiny_db, tiny_queries, cfg), from_store)

    def test_only_the_path_crosses_the_boundary(
        self, tiny_db, tiny_queries, tiny_store
    ):
        """Setup traffic drops by exactly the database buffers (replaced
        by the path string); queries and task ids still ship."""
        from_store = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(),
            index_path=str(tiny_store.path),
        )
        direct = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(),
        )
        database_buffer_bytes = sum(buf.nbytes for buf in tiny_db.to_buffers())
        path_bytes = len(str(tiny_store.path).encode())
        saved = (
            direct.extras["bytes_shipped_setup"]
            - from_store.extras["bytes_shipped_setup"]
        )
        assert saved == database_buffer_bytes - path_bytes
        # and the database contribution really is near-zero: what remains of
        # the setup payload is the packed queries plus the path string
        query_wire_bytes = sum(
            q.mz.nbytes + q.intensity.nbytes + 24 for q in tiny_queries
        )
        assert (
            from_store.extras["bytes_shipped_setup"]
            == path_bytes + query_wire_bytes
        )

    def test_serial_engine_from_one_shard_store(self, tiny_db, tiny_queries, tiny_store):
        from_store = search_serial(tiny_db, tiny_queries, _cfg(), index_store=tiny_store)
        direct = search_serial(tiny_db, tiny_queries, _cfg())
        assert reports_equal(from_store, direct)
        assert from_store.extras["index_load_time"] > 0.0

    def test_stale_fingerprint_refused(self, small_db, tiny_queries, tiny_store):
        with pytest.raises(IndexStoreError, match="different database"):
            run_multiprocess_search(
                small_db, tiny_queries, num_workers=2, config=_cfg(),
                index_path=str(tiny_store.path),
            )


_POSTING_SERVED = {"shared_peaks", "hyperscore"}


class TestEveryScorerOverEveryStore:
    """A store serves every scorer: a resident one by posting probes on
    its rows inside the index envelope where the scorer has a posting
    kernel and by direct scoring of its other rows, a partitioned one by
    direct scoring of its rows.  Serial, multiproc and the service,
    resident and partitioned (under a two-partition budget), hits are
    bitwise the scalar reference's."""

    @pytest.fixture(scope="class")
    def stores(self, tiny_db, tmp_path_factory):
        root = tmp_path_factory.mktemp("every_scorer")
        resident = save_index(tiny_db, root / "resident", max_length=12)
        # 256-row partitions: the queries' windows cross several
        partitioned = save_partitioned_index(
            tiny_db, root / "partitioned", partition_mb=1.0 / 128.0
        )
        two_partitions_mb = 2.0 * partitioned.max_partition_bytes / (1 << 20) + 0.01
        return resident, partitioned, two_partitions_mb

    @pytest.fixture(scope="class")
    def case(self, request, tiny_db, tiny_queries):
        config = _cfg(scorer=request.param)
        return config, reference_search(tiny_db, config, tiny_queries)

    @pytest.mark.parametrize("case", list(SCORER_NAMES), indirect=True)
    def test_serial_over_both_stores(self, tiny_db, tiny_queries, stores, case):
        config, reference = case
        resident, partitioned, budget_mb = stores
        reports = [
            search_serial(tiny_db, tiny_queries, config, index_store=resident),
            search_serial(
                tiny_db, tiny_queries, config,
                index_store=partitioned, memory_budget_mb=budget_mb,
            ),
        ]
        for report in reports:
            assert_report_matches(reference, report)
        served = reports[0].extras["index_probe_fraction"] > 0
        assert served == (config.scorer in _POSTING_SERVED)
        assert reports[1].extras["index_probe_fraction"] == 0  # rows scored directly
        assert reports[1].extras["stream"]["partitions"] > 3  # a real stream

    @pytest.mark.parametrize("case", list(SCORER_NAMES), indirect=True)
    @pytest.mark.parametrize("flavour", ["resident", "partitioned"])
    def test_two_forked_workers_over_each_store(
        self, tiny_db, tiny_queries, stores, case, flavour
    ):
        if "fork" not in _START_METHODS:
            pytest.skip("fork start method unavailable")
        config, reference = case
        resident, partitioned, budget_mb = stores
        kwargs = {"index_path": str(resident.path)}
        if flavour == "partitioned":
            kwargs = {"index_path": str(partitioned.path), "memory_budget_mb": budget_mb}
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=config,
            start_method="fork", **kwargs,
        )
        assert_report_matches(reference, report)
        served = report.extras["index_probe_fraction"] > 0
        assert served == (flavour == "resident" and config.scorer in _POSTING_SERVED)

    @pytest.mark.parametrize("case", list(SCORER_NAMES), indirect=True)
    @pytest.mark.parametrize("flavour", ["resident", "partitioned"])
    def test_service_over_each_store(self, tiny_queries, stores, case, flavour):
        config, reference = case
        resident, partitioned, budget_mb = stores
        kwargs = {"store": resident}
        if flavour == "partitioned":
            kwargs = {"store": partitioned, "memory_budget_mb": budget_mb}
        with SearchService(config, ServiceConfig(workers=1), **kwargs) as service:
            response = service.search(tiny_queries).raise_for_status()
        assert response.hits == {q: h.sorted_hits() for q, h in reference.items()}

    @pytest.mark.parametrize("start_method", _START_METHODS)
    @pytest.mark.parametrize("case", list(SCORER_NAMES), indirect=True)
    def test_resident_store_over_each_start_method_is_the_serial_direct_search(
        self, tiny_db, tiny_queries, stores, case, start_method
    ):
        """The one-shard resident store, in process and over worker
        processes, against the serial direct search: bitwise hits, and
        per-query ``evaluated`` counts where a run keeps them."""
        config, _reference = case
        resident = stores[0]
        direct = {}
        ShardSearcher(tiny_db, config).run(tiny_queries, direct)
        from_store = {}
        StreamingSearcher(resident, config).run(tiny_queries, from_store)
        assert_same_hitlists(direct, from_store)
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=config,
            query_blocks=3, start_method=start_method, index_path=str(resident.path),
        )
        assert_report_matches(direct, report)

    @pytest.mark.parametrize("entry", ["serial", "multiproc", "service"])
    def test_modifications_match_direct(self, tiny_db, tiny_queries, stores, entry):
        """A PTM tier is the store's rows under a window shifted by the
        modification's mass, kept where the database's residues hold its
        target.  Every entry point serves a search with variable
        modifications from either store with the direct search's hits —
        under a posting-served scorer too, whose modified rows are
        scored directly."""
        mods = (
            STANDARD_MODIFICATIONS["oxidation"],
            STANDARD_MODIFICATIONS["phosphorylation_s"],
        )
        resident, partitioned, budget_mb = stores
        for scorer in ("hyperscore", "xcorr"):
            config = _cfg(scorer=scorer, modifications=mods)
            direct = search_serial(tiny_db, tiny_queries, config)
            assert any(h.mod_delta for hits in direct.hits.values() for h in hits)
            for store, kwargs in (
                (resident, {}),
                (partitioned, {"memory_budget_mb": budget_mb}),
            ):
                if entry == "serial":
                    report = search_serial(
                        tiny_db, tiny_queries, config, index_store=store, **kwargs
                    )
                elif entry == "multiproc":
                    report = run_multiprocess_search(
                        tiny_db, tiny_queries, num_workers=2, config=config,
                        index_path=str(store.path), **kwargs,
                    )
                else:
                    with SearchService(
                        config, ServiceConfig(workers=1), store=store, **kwargs
                    ) as service:
                        response = service.search(tiny_queries).raise_for_status()
                    assert response.hits == dict(direct.hits.items())
                    continue
                assert reports_equal(direct, report)
                assert report.candidates_evaluated == direct.candidates_evaluated
                if store is resident and scorer == "hyperscore":
                    assert 0 < report.extras["index_probe_fraction"] < 1


def _search_each_way(database, queries, config, store, **kwargs):
    """One store searched through every entry point: serial, multiproc
    over one and two workers, and the service."""
    yield "serial", search_serial(database, queries, config, index_store=store, **kwargs)
    for workers in (1, 2):
        yield f"multiproc/{workers}", run_multiprocess_search(
            database, queries, num_workers=workers, config=config,
            index_path=str(store.path), **kwargs,
        )
    with SearchService(config, ServiceConfig(workers=1), store=store, **kwargs) as service:
        yield "service", service.search(queries).raise_for_status()


class TestEmptyDatabase:
    """A store of a database with no proteins is searched like the
    database itself: every query reported, with nothing evaluated."""

    @pytest.mark.parametrize("flavour", ["resident", "partitioned"])
    def test_a_store_of_an_empty_database_is_searchable(
        self, tiny_db, tiny_queries, tmp_path, flavour
    ):
        empty = tiny_db.slice_range(0, 0)
        if flavour == "resident":
            store = save_index(empty, tmp_path / "store")
        else:
            store = save_partitioned_index(empty, tmp_path / "store", partition_mb=0.5)
        config = _cfg()
        direct = search_serial(empty, tiny_queries, config)
        assert direct.candidates_evaluated == 0
        expect = {q.query_id: [] for q in tiny_queries}
        assert dict(direct.hits) == expect
        for way, result in _search_each_way(empty, tiny_queries, config, store):
            assert dict(result.hits) == expect, way
            if way != "service":  # a response reports hits only
                assert result.candidates_evaluated == 0, way


class TestMemoryBudget:
    """A resident store is mapped whole: a memory budget is refused with
    ``ConfigError`` at every entry point, where a partitioned store
    honours the same budget."""

    @pytest.fixture(scope="class")
    def stores(self, tiny_db, tmp_path_factory):
        root = tmp_path_factory.mktemp("budget")
        return {
            "resident": save_index(tiny_db, root / "resident"),
            "partitioned": save_partitioned_index(
                tiny_db, root / "partitioned", partition_mb=1.0 / 16.0
            ),
        }

    @staticmethod
    def _enter(entry, tiny_db, queries, store):
        config, budget = _cfg(), 1.0
        if entry == "search_serial":
            return search_serial(tiny_db, queries, config, index_store=store, memory_budget_mb=budget)
        if entry == "run_multiprocess_search":
            return run_multiprocess_search(
                tiny_db, queries, num_workers=2, config=config,
                index_path=str(store.path), memory_budget_mb=budget,
            )
        if entry == "run_search":
            return run_search(
                tiny_db, queries, "serial", 1, config,
                index_path=str(store.path), memory_budget_mb=budget,
            )
        with SearchService(config, store=store, memory_budget_mb=budget) as service:
            return service.search(queries).raise_for_status()

    @pytest.mark.parametrize(
        "entry", ["search_serial", "run_multiprocess_search", "run_search", "SearchService"]
    )
    def test_refused_over_a_resident_store_accepted_over_a_partitioned_one(
        self, tiny_db, tiny_queries, stores, entry
    ):
        with pytest.raises(ConfigError, match="memory-mapped whole"):
            self._enter(entry, tiny_db, tiny_queries, stores["resident"])
        reference = search_serial(tiny_db, tiny_queries, _cfg())
        result = self._enter(entry, tiny_db, tiny_queries, stores["partitioned"])
        assert dict(result.hits) == dict(reference.hits)


_DB_ARGS = ["-n", "150", "--seed", "9"]
_SEARCH_ARGS = ["-m", "8", "--tau", "5", "--query-seed", "3"]


class TestCLI:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "idx"
        rc = main(["index", "build", str(path), *_DB_ARGS])
        assert rc == 0
        return path

    def test_build_then_inspect(self, built, tmp_path, capsys):
        rc = main(["index", "inspect", str(built)])
        assert rc == 0
        out = capsys.readouterr().out
        store = open_index(built)
        assert store.fingerprint in out
        assert STORE_SCHEMA in out
        assert "database/=" in out and "index/=" in out
        # a store holds one whole database: there is no shard count to ask for
        with pytest.raises(SystemExit) as usage:
            main(["index", "build", str(tmp_path / "idx"), *_DB_ARGS, "--shards", "2"])
        assert usage.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_search_from_store_matches_rebuild(self, built, capsys):
        rc = main([
            "search", "-a", "multiproc", "-p", "2", "--index-path", str(built),
            *_DB_ARGS, *_SEARCH_ARGS,
        ])
        assert rc == 0
        from_store = capsys.readouterr().out
        rc = main(["search", "-a", "multiproc", "-p", "2", *_DB_ARGS, *_SEARCH_ARGS])
        assert rc == 0
        direct = capsys.readouterr().out
        # identical top-hit lines (wall-clock header line differs)
        assert [l for l in from_store.splitlines() if l.startswith("  query")] == [
            l for l in direct.splitlines() if l.startswith("  query")
        ]

    def test_serial_search_from_store(self, tmp_path, capsys):
        path = tmp_path / "idx1"
        assert main(["index", "build", str(path), *_DB_ARGS]) == 0
        capsys.readouterr()
        rc = main([
            "search", "-a", "serial", "-p", "1", "--index-path", str(path),
            *_DB_ARGS, *_SEARCH_ARGS,
        ])
        assert rc == 0
        assert "serial p=1" in capsys.readouterr().out

    def _expect_error(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_missing_store_is_clean_error(self, tmp_path, capsys):
        err = self._expect_error(
            ["search", "-a", "serial", "-p", "1", "--index-path",
             str(tmp_path / "nope"), *_DB_ARGS, *_SEARCH_ARGS],
            capsys,
        )
        assert "no index store" in err

    def test_simulated_engine_is_clean_error(self, built, capsys):
        err = self._expect_error(
            ["search", "-a", "algorithm_a", "--index-path", str(built),
             *_DB_ARGS, *_SEARCH_ARGS],
            capsys,
        )
        assert "simulated engine" in err

    def test_stale_fingerprint_is_clean_error(self, built, capsys):
        err = self._expect_error(
            ["search", "-a", "multiproc", "-p", "2", "--index-path", str(built),
             "-n", "151", "--seed", "9", *_SEARCH_ARGS],
            capsys,
        )
        assert "different database" in err

    def test_corrupt_header_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "idx"
        assert main(["index", "build", str(path), *_DB_ARGS]) == 0
        header = json.loads((path / HEADER_NAME).read_text())
        header["schema"] = "repro.index_store/999"
        (path / HEADER_NAME).write_text(json.dumps(header))
        capsys.readouterr()
        err = self._expect_error(
            ["search", "-a", "serial", "-p", "1", "--index-path", str(path),
             *_DB_ARGS, *_SEARCH_ARGS],
            capsys,
        )
        assert "unsupported index store schema" in err

    def test_build_refuses_overwrite_without_flag(self, built, capsys):
        err = self._expect_error(
            ["index", "build", str(built), *_DB_ARGS], capsys
        )
        assert "already exists" in err
        assert main(["index", "build", str(built), *_DB_ARGS, "--overwrite"]) == 0
        with pytest.raises(SystemExit) as usage:
            main(["index", "build", str(built), *_DB_ARGS, "--shards", "2", "--overwrite"])
        assert usage.value.code == 2
