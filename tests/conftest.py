import pytest

from khtangle import tangles


@pytest.fixture(autouse=True)
def cold_compare():
    """Each test starts with no memoized `compare` decision, so a test
    that patches the pipeline sees it run on words that earlier tests
    decided."""
    tangles._DECISIONS.clear()
