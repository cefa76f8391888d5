import pytest

from nystrom_krr import krr


@pytest.fixture(autouse=True)
def _no_held_factor():
    """Each test starts with no held factor (``krr`` module docstring), so what it
    counts or measures does not depend on the tests run before it."""
    krr._drop_cell()
