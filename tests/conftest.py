import pytest

from roblp import harness


@pytest.fixture(autouse=True)
def _close_the_pool():
    # a pool's forked workers see module state only as it was when the
    # pool opened, so a pool left open by one test would not see the next
    # test's monkeypatches: each test's pooled runs start a pool of their own
    yield
    harness.close_pool()
