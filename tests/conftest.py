"""Shared test fixtures: a test-profile Runner and cached tiny datasets.

The session ``spark`` fixture comes from the repo-root conftest.
"""
import numpy as np
import pytest

from repro.exp import cache
from repro.exp.runner import Runner


@pytest.fixture(scope="session")
def runner(spark, tmp_path_factory) -> Runner:
    """Test-profile runner whose result cache is an empty session
    directory, so each AL configuration the tests request runs cold
    once per session (``benchmarks/`` keeps ``.bench_cache/``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache, "CACHE_DIR", tmp_path_factory.mktemp("al_cache"))
        yield Runner(spark, profile="test")


@pytest.fixture(scope="session")
def wa(runner):
    """Tiny walmart_amazon dataset (product family)."""
    return runner.dataset("walmart_amazon")


@pytest.fixture(scope="session")
def scholar(runner):
    """Tiny dblp_scholar dataset (citation family, many-to-many)."""
    return runner.dataset("dblp_scholar")


@pytest.fixture(scope="session")
def abt(runner):
    """Tiny abt_buy dataset (textual family)."""
    return runner.dataset("abt_buy")


@pytest.fixture(scope="session")
def ml(runner):
    """Tiny multilingual dataset (with §4.5 seed/test prep)."""
    return runner.dataset("multilingual")


@pytest.fixture(scope="session")
def wa_store(runner, wa):
    return runner.store("walmart_amazon")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
