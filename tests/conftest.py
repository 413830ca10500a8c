import pytest

from podwave import experiments


@pytest.fixture(autouse=True)
def empty_study_cache():
    """Every test starts and ends with an empty study cache, so no test
    depends on which tests ran before it."""
    experiments._cache.clear()
    yield
    experiments._cache.clear()
