"""A streamed pass decodes only the sections its scorer reads.

A partition blob's sections are compressed independently, so a pass asks
for fewer of them: the four ``row_*`` columns always, plus the one
posting list the scorer's ``index_list`` names — ``ladder`` for
shared_peaks, ``series`` for hyperscore, none for a scorer scored
directly from the database (xcorr, likelihood).  What is skipped is only
the inflate: the blob is still read and SHA-256-checked whole, the
budget and ``bytes_decoded`` charge what the decode produced, and a view
asked for a list it was not given refuses typed.
"""

import dataclasses
import shutil
import sys

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.errors import IndexCompatError, IndexStoreError
from repro.index import FragmentIndex
from repro.index.layout import PARTITION_ROW_ARRAYS, PARTITION_STORED_ARRAYS
from repro.scoring import make_scorer
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.store import open_any_index, save_partitioned_index
from repro.store import partitioned
from repro.store.partitioned import PARTITIONS_DIR, StreamingIndexReader

_ROWS = set(PARTITION_ROW_ARRAYS)
_LADDER = {"ladder_key", "ladder_mz"}
_SERIES = {"series_key", "series_mz", "series_tag"}

#: scorer -> the blob sections a streamed pass under it inflates
_READS = {
    "shared_peaks": _ROWS | _LADDER,
    "hyperscore": _ROWS | _SERIES,
    "xcorr": _ROWS,
    "likelihood": _ROWS,
}

_LIST_SUBSETS = [(), ("ladder",), ("series",), ("ladder", "series")]


@pytest.fixture(scope="module")
def pstore(tiny_db, tmp_path_factory):
    """tiny_db partitioned at ~64 KiB so every pass crosses partitions."""
    path = tmp_path_factory.mktemp("psections") / "pidx"
    return save_partitioned_index(tiny_db, path, partition_mb=1.0 / 16.0)


def _cfg(scorer):
    return SearchConfig(tau=10, scorer=scorer)


class TestAPassInflatesWhatItsScorerReads:
    @pytest.mark.parametrize("scorer", sorted(_READS))
    def test_decode_array_sees_rows_plus_the_scorers_list(
        self, tiny_db, tiny_queries, pstore, monkeypatch, scorer
    ):
        # decode_array is handed a payload, not a name, and payloads do
        # not identify a section (a partition's ``ladder_key`` and
        # ``series_key`` are the same bytes): read the name off the
        # decoding loop's ``section``
        inflated = []
        decode_array = partitioned.decode_array

        def spy(buf, *args):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "decode_partition_blob":  # not overflow
                inflated.append(caller.f_locals["section"].name)
            return decode_array(buf, *args)

        monkeypatch.setattr(partitioned, "decode_array", spy)
        store = open_any_index(pstore.path)
        report = search_serial(tiny_db, tiny_queries, _cfg(scorer), index_store=store)

        assert set(inflated) == _READS[scorer]
        # each wanted section once per visited partition, nothing else
        visited = report.extras["stream"]["partitions"]
        assert visited > 1
        assert len(inflated) == visited * len(_READS[scorer])
        assert set(report.extras["index_provenance"]["sections"]) == _READS[scorer]

    def test_report_lists_the_sections_in_blob_order(
        self, tiny_db, tiny_queries, pstore
    ):
        report = search_serial(
            tiny_db, tiny_queries, _cfg("hyperscore"), index_store=pstore
        )
        assert report.extras["index_provenance"]["sections"] == [
            name for name in PARTITION_STORED_ARRAYS if name in _READS["hyperscore"]
        ]
        # a full decode (no selection) names every stored section
        assert pstore.provenance()["sections"] == list(PARTITION_STORED_ARRAYS)


class TestAccountingFollowsTheBytes:
    @pytest.mark.parametrize("lists", _LIST_SUBSETS + [None])
    def test_bytes_decoded_is_the_nbytes_of_the_arrays_yielded(self, pstore, lists):
        produced = 0
        with StreamingIndexReader(pstore, lists=lists) as reader:
            for part in reader:
                produced += sum(a.nbytes for a in part.index.arrays.values())
                assert part.index.nbytes == part.entry.decoded_nbytes(lists)
        assert reader.stats.bytes_decoded == produced
        if lists is None or len(lists) == 2:
            assert produced == pstore.decoded_bytes
        else:
            assert produced < pstore.decoded_bytes

    def test_budget_that_holds_blob_and_rows_serves_a_direct_scorer_only(
        self, tiny_db, tiny_queries, pstore
    ):
        """A budget of one partition's blob + row columns: enough for
        likelihood (which decodes nothing else), refused up front for
        shared_peaks, whose pass also holds the ladder list."""
        budget_mb = (pstore.max_visit_bytes(()) + 1024) / (1 << 20)
        assert pstore.max_visit_bytes(()) + 1024 < pstore.max_visit_bytes(("ladder",))
        budgeted = search_serial(
            tiny_db, tiny_queries, _cfg("likelihood"),
            index_store=pstore, memory_budget_mb=budget_mb,
        )
        assert reports_equal(
            budgeted,
            search_serial(tiny_db, tiny_queries, _cfg("likelihood"), index_store=pstore),
        )
        with pytest.raises(IndexStoreError, match="memory budget.*cannot hold"):
            search_serial(
                tiny_db, tiny_queries, _cfg("shared_peaks"),
                index_store=pstore, memory_budget_mb=budget_mb,
            )

    def test_residency_and_plan_profile_take_the_scorers_share(
        self, tiny_db, tiny_queries, pstore
    ):
        from repro.core.streaming import StreamingSearcher
        from repro.tune.plan import profile_workload

        full = 2 * pstore.max_partition_bytes + tiny_db.nbytes
        sizes = {}
        for scorer in ("likelihood", "shared_peaks"):
            searcher = StreamingSearcher(pstore, _cfg(scorer), database=tiny_db)
            sizes[scorer] = searcher.nbytes
            profile = profile_workload(tiny_db, tiny_queries, _cfg(scorer), store=pstore)
            assert profile.store["decoded_bytes"] == sum(
                p.decoded_nbytes(searcher.lists) for p in pstore.partitions
            )
            assert profile.store["max_partition_bytes"] == pstore.max_visit_bytes(
                searcher.lists
            )
        assert sizes["likelihood"] < sizes["shared_peaks"] < full


class TestChecksStayWhole:
    def test_a_flipped_byte_in_an_unread_section_still_fails_the_sha(
        self, tiny_db, tiny_queries, pstore, tmp_path
    ):
        """likelihood never inflates ``series_mz``; a byte flipped inside
        it is still caught at that partition, because the blob is read
        and hashed whole."""
        path = tmp_path / "pidx"
        shutil.copytree(pstore.path, path)
        store = open_any_index(path)

        def flip_inside_series_mz(pid):
            entry = store.partitions[pid]
            section = next(s for s in entry.sections if s.name == "series_mz")
            blob_path = path / PARTITIONS_DIR / entry.name
            raw = bytearray(blob_path.read_bytes())
            raw[section.offset + section.nbytes // 2] ^= 0xFF
            blob_path.write_bytes(bytes(raw))

        victim = store.num_partitions // 2
        flip_inside_series_mz(victim)
        yielded = []
        with pytest.raises(IndexStoreError, match=f"partition blob {victim}.*SHA-256"):
            with StreamingIndexReader(store, lists=()) as reader:
                for part in reader:
                    yielded.append(part.pid)
        assert yielded == list(range(victim))
        # end to end, whichever partitions the queries' windows reach
        for pid in range(store.num_partitions):
            if pid != victim:
                flip_inside_series_mz(pid)
        with pytest.raises(IndexStoreError, match="corrupt.*SHA-256"):
            search_serial(tiny_db, tiny_queries, _cfg("likelihood"), index_store=store)

    def test_a_requested_section_missing_from_the_blob_is_a_store_error(self, pstore):
        entry = pstore.partitions[0]
        gutted = dataclasses.replace(
            entry, sections=tuple(s for s in entry.sections if s.name != "ladder_mz")
        )
        store = dataclasses.replace(pstore, partitions=[gutted] + pstore.partitions[1:])
        with pytest.raises(IndexStoreError, match="missing array 'ladder_mz'"):
            store.decode_partition(0, ("ladder",))
        # nobody asked for it: the same blob serves a series-only decode
        assert "series_mz" in store.decode_partition(0, ("series",)).arrays


class TestAViewRefusesAListItWasNotGiven:
    @pytest.fixture(scope="class")
    def probe(self, tiny_queries):
        """Arguments of a posting probe over rows 0..3 for one query."""
        return SpectrumBatch(tiny_queries[:1]), 0.5, [np.arange(4)]

    def test_ladder_probe_on_a_series_only_partition(self, pstore, probe):
        view = pstore.decode_partition(0, ("series",))
        view.matched_intensity_block(*probe)  # the list it was given works
        with pytest.raises(IndexCompatError, match="'ladder' posting list.*shared_peaks"):
            view.shared_peak_counts_block(*probe)

    def test_either_probe_on_a_row_only_partition(self, pstore, probe):
        view = pstore.decode_partition(0, ())
        assert set(view.arrays) == _ROWS
        with pytest.raises(IndexCompatError, match="'ladder' posting list.*shared_peaks"):
            view.shared_peak_counts_block(*probe)
        with pytest.raises(IndexCompatError, match="'series' posting list.*hyperscore"):
            view.matched_intensity_block(*probe)
        spectra, _tol, row_sets = probe
        with pytest.raises(IndexCompatError, match="hyperscore"):
            view.score_block(make_scorer("hyperscore"), spectra, row_sets)

    def test_an_unknown_list_is_refused_typed(self, pstore):
        with pytest.raises(IndexCompatError, match="unknown posting list"):
            pstore.decode_partition(0, ("ladders",))

    def test_an_index_served_scorer_must_name_its_list(self):
        class Undeclared:
            name = "undeclared"

            def score_index_block(self, spectra, index, row_sets):
                raise AssertionError("never probed")

        with pytest.raises(IndexCompatError, match="undeclared.*index_list"):
            FragmentIndex.lists_for(Undeclared())
        assert FragmentIndex.lists_for(make_scorer("shared_peaks")) == ("ladder",)
        assert FragmentIndex.lists_for(make_scorer("hyperscore")) == ("series",)
        assert FragmentIndex.lists_for(make_scorer("xcorr")) == ()
        assert FragmentIndex.lists_for(make_scorer("likelihood")) == ()
