"""Shared fixtures for the test suite."""

import pytest

from repro.config import SystemConfig


@pytest.fixture(autouse=True, scope="session")
def _sandboxed_result_cache(tmp_path_factory):
    """Keep the sweeps the suite runs out of the user's result cache
    (``~/.cache/repro-sweeps`` by default). Tests that need a cache of
    their own still set ``REPRO_CACHE_DIR`` or pass a ``ResultCache``."""
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-cache"))
    )
    yield
    patch.undo()


@pytest.fixture
def config() -> SystemConfig:
    """The paper's default 20-core system."""
    return SystemConfig()


@pytest.fixture
def small_config() -> SystemConfig:
    """A 2x2 mini system for fast structural tests."""
    return SystemConfig(
        num_cores=4,
        mesh_cols=2,
        mesh_rows=2,
        num_mem_ctrls=4,
    )
