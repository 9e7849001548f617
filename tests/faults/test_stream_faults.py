"""Fault coverage for the streamed partitioned-store path.

Two failure families: *storage* faults — truncated, corrupt, or missing
partition blobs discovered mid-stream, which must surface as typed
:class:`~repro.errors.IndexStoreError` on the consuming thread even
when the prefetch thread is the one that hit them — and *service*
faults — a ``FaultPlan.service`` store outage striking a service whose
workers stream a partitioned store, which must retry to bitwise-correct
answers (transient) or fail typed (permanent), exactly like the
resident-store service path.
"""

import shutil

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.errors import IndexStoreError, ServiceBatchError
from repro.faults import FaultPlan, ServiceFaults, ServiceStoreOutage
from repro.faults.plan import EVERY
from repro.faults.supervisor import RetryPolicy
from repro.service import SearchService, ServiceConfig
from repro.store import open_any_index, save_partitioned_index
from repro.store.partitioned import PARTITIONS_DIR, StreamingIndexReader


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


def _blob_path(store_path, store, pid):
    return store_path / PARTITIONS_DIR / store.partitions[pid].name


class TestMidStreamBlobFaults:
    """The prefetch thread's I/O errors re-raise typed on the consumer."""

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
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        blob = _blob_path(damaged_copy, store, victim)
        blob.write_bytes(blob.read_bytes()[:-7])
        yielded = self._stream_until_error(store, "truncated")
        assert yielded == list(range(victim))  # clean prefix, then the fault

    def test_corrupt_blob_fails_checksum_mid_stream(self, damaged_copy):
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        blob = _blob_path(damaged_copy, store, victim)
        raw = bytearray(blob.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # same size, flipped bits
        blob.write_bytes(bytes(raw))
        yielded = self._stream_until_error(store, "corrupt.*SHA-256")
        assert yielded == list(range(victim))

    def test_missing_blob_mid_stream(self, damaged_copy):
        store = open_any_index(damaged_copy)
        victim = store.num_partitions // 2
        _blob_path(damaged_copy, store, victim).unlink()
        yielded = self._stream_until_error(store, "missing")
        assert yielded == list(range(victim))

    def test_streamed_search_surfaces_blob_fault_typed(
        self, tiny_db, tiny_queries, damaged_copy
    ):
        # end to end: the search path, not just the reader, propagates
        # the typed error instead of returning partial hits
        store = open_any_index(damaged_copy)
        for entry in store.partitions:
            blob = damaged_copy / PARTITIONS_DIR / entry.name
            blob.write_bytes(blob.read_bytes()[:-5])
        with pytest.raises(IndexStoreError, match="truncated"):
            search_serial(
                tiny_db, tiny_queries, SearchConfig(tau=10), index_store=store
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
