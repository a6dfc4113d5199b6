"""Fixtures shared by the harness tests."""

from __future__ import annotations

import pytest

from repro.simkit import Environment


@pytest.fixture
def environments(monkeypatch):
    """Every Environment the scenario builds: the kernel, link and broker
    cases append their own, and the experiment harness's are recorded by
    a subclass patched in for the test.  ``env._eid`` summed over them is
    the number of events the scenario scheduled."""
    built = []

    class RecordingEnvironment(Environment):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr("repro.harness.experiment.Environment",
                        RecordingEnvironment)
    return built
