import pytest

from khtangle import tangles


@pytest.fixture(autouse=True)
def cold_compare():
    """Each test starts with no memoized `compare` decision, no
    memoized cube and no expanded edge shape, so a test that patches the
    pipeline or the deloop rules sees it run on words and shapes that
    earlier tests decided or expanded."""
    tangles._DECISIONS.clear()
    tangles._CUBES.clear()
    tangles._EXPANDED.clear()
