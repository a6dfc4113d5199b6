"""Fixtures shared by every test."""

from __future__ import annotations

import os

import pytest

from repro.harness.session import ENV_PREFIX


@pytest.fixture(autouse=True)
def _no_execution_environment(monkeypatch):
    """Clear every ``REPRO_*`` variable, so a developer's exported session
    settings (a backend, a timeout, a cache directory) cannot change what
    a test runs or where it writes.  A test that needs one sets it."""
    for name in [name for name in os.environ if name.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(name)
