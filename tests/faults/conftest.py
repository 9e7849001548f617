"""Fault suites run with a short thread switch interval.

These tests race supervisor, worker and client threads against injected
crashes and outages; ``short_switch_interval`` (``tests/conftest.py``)
makes the interleavings of a loaded host show up on an idle one.  The
``service-soak`` CI job loops the service suites under this setting.
"""

import pytest


@pytest.fixture(autouse=True, scope="module")
def _fault_suites_switch_fast(short_switch_interval):
    yield
