"""Fixtures for every test module under tests/."""
import pytest

from mdirand import mdi


@pytest.fixture(autouse=True)
def no_kept_constraint_map():
    # build_sdp keeps its last constraint map between calls; each test
    # starts without one, so what it builds does not depend on test order
    mdi._last_map = None
