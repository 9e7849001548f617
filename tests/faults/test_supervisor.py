"""Supervised multiprocessing engine: retries, quarantine, timeouts.

Fault injection is deterministic (:class:`FaultInjector` decides from
``(task_id, attempt)`` alone), so every scenario asserts exact output
equality against the fault-free serial reference.
"""

import pytest

from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.engines.multiproc import run_multiprocess_search
from repro.errors import ConfigError
from repro.faults.injector import ALWAYS, FaultInjector, TaskFault
from repro.faults.supervisor import RetryPolicy


def hit_keys(report):
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


@pytest.fixture(scope="module")
def serial(tiny_db, tiny_queries):
    return run_search(tiny_db, tiny_queries, algorithm="serial", config=SearchConfig(tau=10))


@pytest.fixture()
def fast_policy():
    """Backoff shrunk so retry tests stay fast."""
    return RetryPolicy(max_retries=2, backoff_base=0.001, backoff_cap=0.01)


class TestRetryPolicy:
    def test_defaults_allow_bounded_retries(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows_retry(1)
        assert policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(4) == pytest.approx(0.3)

    def test_zero_failures_no_delay(self):
        assert RetryPolicy().delay(0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_cap": -1.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestInjector:
    def test_task_fault_applies_window(self):
        fault = TaskFault(0, "crash", attempts=2)
        assert fault.applies(0) and fault.applies(1) and not fault.applies(2)
        assert TaskFault(0, "crash", attempts=ALWAYS).applies(99)

    def test_invalid_faults_rejected(self):
        with pytest.raises(ValueError):
            TaskFault(0, kind="explode")
        with pytest.raises(ValueError):
            TaskFault(0, attempts=-2)
        with pytest.raises(ValueError):
            TaskFault(0, kind="hang", duration=-1.0)


class TestSupervisedRuns:
    def test_crashed_task_is_retried_and_run_completes(
        self, tiny_db, tiny_queries, serial, fast_policy
    ):
        """The issue's acceptance scenario: an injected worker crash is
        retried and the run completes with the full result."""
        report = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            config=SearchConfig(tau=10),
            retry_policy=fast_policy,
            fault_injector=FaultInjector((TaskFault(0, "crash", attempts=1),)),
        )
        assert hit_keys(report) == hit_keys(serial)
        assert report.candidates_evaluated == serial.candidates_evaluated
        assert report.extras["recovery_retries"] == 1
        assert report.extras["failed_tasks"] == []
        assert not report.extras["degraded"]
        assert report.extras["tasks_completed"] == report.extras["tasks_total"]

    def test_poison_task_quarantined_run_degrades(
        self, tiny_db, tiny_queries, fast_policy
    ):
        report = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            config=SearchConfig(tau=10),
            retry_policy=fast_policy,
            fault_injector=FaultInjector((TaskFault(1, "crash", attempts=ALWAYS),)),
        )
        assert report.extras["degraded"]
        manifest = report.extras["failed_tasks"]
        assert [entry["task_id"] for entry in manifest] == [1]
        # max_retries=2 => the task ran 3 times before quarantine
        assert manifest[0]["attempts"] == 3
        assert "WorkerCrashError" in manifest[0]["error"]
        assert report.extras["tasks_completed"] == report.extras["tasks_total"] - 1
        # the surviving shards still produced hits
        assert any(report.hits.values())

    def test_hung_task_times_out_and_retries(
        self, tiny_db, tiny_queries, serial, fast_policy
    ):
        injector = FaultInjector((TaskFault(0, "hang", attempts=1, duration=30.0),))
        report = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            config=SearchConfig(tau=10),
            retry_policy=fast_policy,
            task_timeout=1.0,
            fault_injector=injector,
        )
        assert report.extras["recovery_timeouts"] == 1
        assert report.extras["recovery_retries"] == 1
        assert hit_keys(report) == hit_keys(serial)
        assert report.candidates_evaluated == serial.candidates_evaluated

    def test_inline_engine_retries_too(self, tiny_db, tiny_queries, serial, fast_policy):
        """num_workers=1 runs without a pool but under the same policy."""
        report = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=1,
            config=SearchConfig(tau=10),
            retry_policy=fast_policy,
            fault_injector=FaultInjector((TaskFault(0, "crash", attempts=1),)),
        )
        assert hit_keys(report) == hit_keys(serial)
        assert report.extras["recovery_retries"] == 1
        assert not report.extras["degraded"]

    def test_fault_free_supervised_run_equals_serial(self, tiny_db, tiny_queries, serial):
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=SearchConfig(tau=10)
        )
        assert hit_keys(report) == hit_keys(serial)
        assert report.candidates_evaluated == serial.candidates_evaluated
        assert report.extras["recovery_retries"] == 0
        assert report.extras["recovery_timeouts"] == 0
