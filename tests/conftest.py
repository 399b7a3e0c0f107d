import pytest

from khtangle import tangles


@pytest.fixture(autouse=True)
def cold_compare():
    """Each test starts with every cache of `tangles` empty: no walk,
    decision or edge shape is cached, so a test that patches the
    pipeline or the deloop rules sees it run on words and shapes that
    earlier tests decided or expanded.  The caches are found as the
    module's attributes with a `cache_clear`, so none can be missed."""
    for value in list(vars(tangles).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()
