"""Integration: persisted fragment indexes through the engines and CLI.

The mmap-once transport contract: an engine pointed at a
``repro index build`` directory returns hits bitwise identical to the
direct path — under both fork and spawn start methods — while shipping
only a path string to workers instead of the shard buffers.  The CLI
half covers the build → inspect → search workflow end to end, and that
every misuse (missing store, stale fingerprint, simulated engine,
corrupt header) exits with a one-line typed error, never a traceback.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS, decode_sequence
from repro.cli import main
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.engines.multiproc import run_multiprocess_search
from repro.errors import IndexCompatError, IndexStoreError
from repro.scoring import SCORER_NAMES
from repro.spectra.library import SpectralLibrary
from repro.spectra.theoretical import theoretical_spectrum
from repro.store import HEADER_NAME, open_index, save_index, save_partitioned_index
from tests.reference import assert_report_matches, reference_search

_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def _cfg(**kw):
    return SearchConfig(tau=10, **kw)


@pytest.fixture(scope="module")
def tiny_store(tiny_db, tmp_path_factory):
    """tiny_db persisted as a 2-shard store (matches 2 workers x 1 shard)."""
    return save_index(tiny_db, tmp_path_factory.mktemp("store") / "idx", num_shards=2)


@pytest.fixture(scope="module")
def tiny_store_1shard(tiny_db, tmp_path_factory):
    return save_index(tiny_db, tmp_path_factory.mktemp("store1") / "idx", num_shards=1)


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
        # and the shard contribution really is near-zero: what remains of
        # the setup payload is the packed queries plus the path string
        query_wire_bytes = sum(
            q.mz.nbytes + q.intensity.nbytes + 24 for q in tiny_queries
        )
        assert (
            from_store.extras["bytes_shipped_setup"]
            == path_bytes + query_wire_bytes
        )

    def test_serial_engine_from_one_shard_store(
        self, tiny_db, tiny_queries, tiny_store_1shard
    ):
        from_store = search_serial(
            tiny_db, tiny_queries, _cfg(), index_store=tiny_store_1shard
        )
        direct = search_serial(tiny_db, tiny_queries, _cfg())
        assert reports_equal(from_store, direct)
        assert from_store.extras["index_load_time"] > 0.0

    def test_serial_engine_rejects_multi_shard_store(
        self, tiny_db, tiny_queries, tiny_store
    ):
        with pytest.raises(IndexCompatError, match="one shard"):
            search_serial(tiny_db, tiny_queries, _cfg(), index_store=tiny_store)

    def test_stale_fingerprint_refused(self, small_db, tiny_queries, tiny_store):
        with pytest.raises(IndexStoreError, match="different database"):
            run_multiprocess_search(
                small_db, tiny_queries, num_workers=2, config=_cfg(),
                index_path=str(tiny_store.path),
            )


#: the five registered scorers, plus the likelihood model behind a
#: spectral library that knows the queries' true peptides
_SCORER_CASES = [*SCORER_NAMES, "likelihood+library"]
_POSTING_SERVED = {"shared_peaks", "hyperscore"}


class TestEveryScorerOverEveryStore:
    """A store serves every scorer: a resident one by posting probes
    where the scorer has a posting kernel and by direct scoring of the
    spans it carries where it has not, a partitioned one by direct
    scoring of its rows.  Serial and multiproc, resident and partitioned
    (under a two-partition budget), hits are bitwise the scalar
    reference's."""

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
    def library(self, tiny_targets):
        # reference spectra that differ from the on-the-fly model, so a
        # lookup that is skipped or served from elsewhere changes scores
        lib = SpectralLibrary()
        for peptide in tiny_targets:
            mz, intensity = theoretical_spectrum(peptide)
            lib.add(decode_sequence(peptide), mz, intensity[::-1] + np.arange(len(mz)) % 3)
        return lib

    @pytest.fixture(scope="class")
    def case(self, request, tiny_db, tiny_queries, library):
        name, _, backed = request.param.partition("+")
        config = _cfg(scorer=name)
        lib = library if backed else None
        reference = reference_search(tiny_db, config, tiny_queries, library=lib)
        if backed:  # the library must matter, or this case is the plain one
            plain = reference_search(tiny_db, config, tiny_queries)
            assert any(
                plain[q].sorted_hits() != reference[q].sorted_hits() for q in plain
            )
        return config, lib, reference

    @pytest.mark.parametrize("case", _SCORER_CASES, indirect=True)
    def test_serial_over_both_stores(self, tiny_db, tiny_queries, stores, case):
        config, lib, reference = case
        resident, partitioned, budget_mb = stores
        reports = [
            search_serial(tiny_db, tiny_queries, config, lib, index_store=resident),
            search_serial(
                tiny_db, tiny_queries, config, lib,
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
        config, _lib, reference = case
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

    def test_ptm_cutoff_and_length_floor_with_a_direct_scorer(
        self, tiny_db, tiny_queries, stores
    ):
        """xcorr over a resident store: the unmodified rows share the one
        direct batch with the PTM tiers, and the length floor and score
        cutoff account for every candidate as the reference does."""
        config = _cfg(
            scorer="xcorr",
            modifications=(
                STANDARD_MODIFICATIONS["oxidation"],
                STANDARD_MODIFICATIONS["phosphorylation_s"],
            ),
            score_cutoff=0.05,
            min_candidate_length=4,
        )
        report = search_serial(tiny_db, tiny_queries, config, index_store=stores[0])
        reference = reference_search(tiny_db, config, tiny_queries)
        assert_report_matches(reference, report)
        assert report.extras["index_rows"] == 0
        assert report.extras["rows_scored"] > report.candidates_evaluated // 2
        kept = sum(len(h) for h in report.hits.values())
        assert 0 < kept < report.candidates_evaluated  # the cutoff bit


_DB_ARGS = ["-n", "150", "--seed", "9"]
_SEARCH_ARGS = ["-m", "8", "--tau", "5", "--query-seed", "3"]


class TestCLI:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "idx"
        rc = main(["index", "build", str(path), *_DB_ARGS, "--shards", "2"])
        assert rc == 0
        return path

    def test_build_then_inspect(self, built, capsys):
        rc = main(["index", "inspect", str(built)])
        assert rc == 0
        out = capsys.readouterr().out
        store = open_index(built)
        assert store.fingerprint in out
        assert "shard_00001" in out

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
        assert main(["index", "build", str(built), *_DB_ARGS, "--shards", "2",
                     "--overwrite"]) == 0
