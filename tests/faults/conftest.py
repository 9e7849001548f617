"""Fault suites run with a short thread switch interval.

These tests race supervisor, worker and client threads against injected
crashes and outages.  At CPython's default 5 ms interval a thread usually
finishes its critical section before it is preempted, which hides lost
updates and check-then-act bugs; at 0.1 ms the interleavings a loaded
host would produce show up on an idle one.  The ``service-soak`` CI job
loops the service fault suite under this setting.
"""

import sys

import pytest

SWITCH_INTERVAL_S = 1e-4


@pytest.fixture(autouse=True, scope="module")
def short_switch_interval():
    # module scope: in force before class-scoped fixtures start their storms
    saved = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)
