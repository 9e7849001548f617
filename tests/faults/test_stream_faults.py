"""Fault coverage for the streamed partitioned-store path.

Three failure families: *storage* faults — a truncated, corrupt, or
missing row column discovered mid-stream, which must surface as typed
:class:`~repro.errors.IndexStoreError` on the consuming thread even
when the prefetch thread is the one that hit them, at the partition
whose row range it struck — *consumer* faults — a scorer that raises
part-way through a pass, which must surface promptly and leave no
prefetch thread behind — and *service* faults — a
``FaultPlan.service`` store outage striking a service whose workers
stream a partitioned store, which must retry to bitwise-correct answers
(transient) or fail typed (permanent), exactly like the resident-store
service path.
"""

import shutil
import threading

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.core.streaming import StreamingSearcher
from repro.errors import IndexStoreError, ServiceBatchError
from repro.faults import FaultPlan, ServiceFaults, ServiceStoreOutage
from repro.faults.plan import EVERY
from repro.faults.supervisor import RetryPolicy
from repro.service import SearchService, ServiceConfig
from repro.store import open_any_index, save_partitioned_index
from repro.store.partitioned import StreamingIndexReader
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def pristine(tiny_db, tmp_path_factory):
    """A known-good partitioned store; tests copy it before damaging it."""
    path = tmp_path_factory.mktemp("pristine") / "pidx"
    return save_partitioned_index(tiny_db, path, partition_mb=1.0 / 16.0)


@pytest.fixture()
def damaged_copy(pristine, tmp_path):
    """A private copy of the pristine store, safe to corrupt."""
    path = tmp_path / "pidx"
    shutil.copytree(pristine.path, path)
    return path


def _row_file(store_path, name="row_mass"):
    return store_path / "index" / f"{name}.npy"


def _file_offset(store, raw, pid, name="row_mass", itemsize=8):
    """Byte offset in a row column's ``.npy`` file where partition
    ``pid``'s range starts: the data is the file's last
    ``num_rows * itemsize`` bytes."""
    return len(raw) - store.num_rows * itemsize + store.partitions[pid].lo * itemsize


class TestMidStreamBlobFaults:
    """The prefetch thread's I/O errors re-raise typed on the consumer.

    A partition's blob is its row range's bytes in the four row columns
    of ``index/``: damage to one range strikes that partition alone."""

    def _stream_until_error(self, store, match):
        """Iterate the full store; return partitions yielded before the
        typed error struck."""
        yielded = []
        with pytest.raises(IndexStoreError, match=match):
            with StreamingIndexReader(store) as reader:
                for part in reader:
                    yielded.append(part.pid)
        return yielded

    def test_truncated_blob_mid_stream(self, damaged_copy):
        """``index/row_mass.npy`` cut inside partition k's range."""
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        path = _row_file(damaged_copy)
        raw = path.read_bytes()
        path.write_bytes(raw[: _file_offset(store, raw, victim) + 7])
        yielded = self._stream_until_error(store, "truncated")
        assert yielded == list(range(victim))  # clean prefix, then the fault

    def test_corrupt_blob_fails_checksum_mid_stream(self, damaged_copy):
        """One byte inside partition k's range: partitions before k are
        yielded, k fails its SHA-256 — typed, never scored."""
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        path = _row_file(damaged_copy)
        raw = bytearray(path.read_bytes())
        raw[_file_offset(store, raw, victim) + 3] ^= 0xFF  # same size, flipped bits
        path.write_bytes(bytes(raw))
        yielded = self._stream_until_error(store, "partition %d .*corrupt.*SHA-256" % victim)
        assert yielded == list(range(victim))

    def test_missing_blob_mid_stream(self, damaged_copy):
        """A row column removed while partition k-1 is being scored:
        under a one-partition budget nothing is read ahead, so partition
        k is the first read to miss it."""
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        one_partition_mb = store.max_partition_bytes / (1 << 20) * 1.5
        yielded = []
        with pytest.raises(IndexStoreError, match="missing row column index/row_key.npy"):
            with StreamingIndexReader(store, memory_budget_mb=one_partition_mb) as reader:
                for part in reader:
                    yielded.append(part.pid)
                    if part.pid == victim - 1:
                        _row_file(damaged_copy, "row_key").unlink()
        assert yielded == list(range(victim))

    def test_streamed_search_surfaces_blob_fault_typed(
        self, tiny_db, tiny_queries, damaged_copy
    ):
        # end to end: the search path, not just the reader, propagates
        # the typed error instead of returning partial hits
        store = open_any_index(damaged_copy)
        path = _row_file(damaged_copy, "row_key")
        raw = path.read_bytes()
        path.write_bytes(raw[: _file_offset(store, raw, 0, itemsize=4) + 3])  # every range cut
        with pytest.raises(IndexStoreError, match="truncated"):
            search_serial(
                tiny_db, tiny_queries, SearchConfig(tau=10), index_store=store
            )


class TestScorerFailureMidStream:
    """A pass that dies in the consumer stops its prefetch thread."""

    def test_scorer_error_surfaces_and_no_prefetch_thread_survives(
        self, tmp_path, monkeypatch
    ):
        """Hundreds of partitions, the scorer raising on the second one
        visited (one scoring block each): the error reaches the caller
        promptly and the prefetch thread — which still had partitions to
        read ahead — is joined."""
        db = generate_database(60, seed=11)
        queries = generate_queries(40, seed=3)
        store = save_partitioned_index(db, tmp_path / "pidx", partition_mb=0.003)
        assert store.num_partitions > 100
        calls = []
        score = StreamingSearcher._score

        def failing(self, spectra, spans, rows, kept):
            calls.append(len(rows))
            if len(calls) == 2:
                raise RuntimeError("scorer failed on the second partition")
            return score(self, spectra, spans, rows, kept)

        monkeypatch.setattr(StreamingSearcher, "_score", failing)
        outcome = []

        def run():
            try:
                search_serial(db, queries, SearchConfig(tau=10), index_store=store)
            except BaseException as exc:  # reported to the test thread
                outcome.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "the streamed search hung after its scorer failed"
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        assert "second partition" in str(outcome[0])
        assert not any(
            t.name == "stream-prefetch" and t.is_alive() for t in threading.enumerate()
        )


class TestServiceStoreOutageWhileStreaming:
    """FaultPlan.service store outages against the streaming service."""

    @pytest.fixture()
    def sweep_config(self):
        return SearchConfig(tau=10)

    @pytest.fixture()
    def reference_hits(self, tiny_db, tiny_queries, sweep_config):
        report = search_serial(tiny_db, tiny_queries, sweep_config)
        return {
            qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()
        }

    def _retry(self):
        return RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)

    def test_transient_outage_retries_to_bitwise_success(
        self, pristine, tiny_queries, sweep_config, reference_hits
    ):
        plan = FaultPlan(
            service=ServiceFaults(
                store_outages=(ServiceStoreOutage(batch=0, attempts=2),)
            )
        )
        with SearchService(
            sweep_config, ServiceConfig(workers=2, retry=self._retry()),
            store=str(pristine.path), fault_plan=plan,
        ) as service:
            response = service.search(tiny_queries[:5]).raise_for_status()
            stats = service.stats()
        assert stats["batch_retries"] == 2
        assert stats["worker_restarts"] == 0  # outages are not worker deaths
        for qid, hits in response.hits.items():
            assert [h.sort_key() for h in hits] == reference_hits[qid]

    def test_permanent_outage_fails_typed(
        self, pristine, tiny_queries, sweep_config
    ):
        plan = FaultPlan(
            service=ServiceFaults(
                store_outages=(ServiceStoreOutage(batch=0, attempts=EVERY),)
            )
        )
        with SearchService(
            sweep_config, ServiceConfig(workers=1, retry=self._retry()),
            store=str(pristine.path), fault_plan=plan,
        ) as service:
            response = service.search(tiny_queries[:2], timeout=60.0)
        assert response.status == "failed"
        with pytest.raises(ServiceBatchError, match="store"):
            response.raise_for_status()
