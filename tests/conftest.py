from __future__ import annotations

import pytest

from corpus import run_corpus


@pytest.fixture(scope="session")
def corpus():
    """One pipeline run of each pinned program, shared by the session."""
    return run_corpus()
