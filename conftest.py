"""Suite-wide hermeticity for the compilation service.

Any test that compiles through the service (the eval figures, the
benchmarks, the service suite itself) would otherwise publish artifacts to
the user-level store (``~/.cache/repro-csl``).  Point the store at a
session-scoped pytest temp directory instead, so test runs neither read
stale artifacts from nor leak artifacts into the real store.
"""

import os

import pytest

from repro.service.cache import REPRO_CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_store(tmp_path_factory):
    previous = os.environ.get(REPRO_CACHE_DIR_ENV)
    os.environ[REPRO_CACHE_DIR_ENV] = str(
        tmp_path_factory.mktemp("suite-artifact-store")
    )
    yield
    if previous is None:
        os.environ.pop(REPRO_CACHE_DIR_ENV, None)
    else:
        os.environ[REPRO_CACHE_DIR_ENV] = previous

