"""Shared fixtures: every test starts without BBSUPER_CAP, so the suite
does not depend on the shell that runs it; a test that needs a cap sets
it itself."""
import pytest


@pytest.fixture(autouse=True)
def no_cap_in_environment(monkeypatch):
    monkeypatch.delenv("BBSUPER_CAP", raising=False)
