import pytest

from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField, SymbolicField
from jacklax.session import Workspace


@pytest.fixture(scope="session")
def sym():
    return Workspace(SymbolicField())


@pytest.fixture(scope="session")
def spec():
    return Workspace(SpecializedField(DEFAULT_SPEC_POINTS[0]))


@pytest.fixture(scope="session")
def spec_all():
    return [Workspace(SpecializedField(p)) for p in DEFAULT_SPEC_POINTS]


@pytest.fixture(autouse=True)
def _no_cache_dir_variable(monkeypatch):
    """The CLI, run in process by many tests, honours JACKLAX_CACHE_DIR, so
    every test starts without it and leaves the user's disk cache alone; a
    test of the variable sets it itself."""
    monkeypatch.delenv("JACKLAX_CACHE_DIR", raising=False)
