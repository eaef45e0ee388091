"""Fixtures for every test module under tests/."""
import pytest

from mdirand import mdi


@pytest.fixture(autouse=True)
def no_kept_constraint_map():
    # build_sdp keeps the constraint maps it builds between calls; each
    # test starts with none, so what it builds does not depend on test order
    mdi._maps.clear()
