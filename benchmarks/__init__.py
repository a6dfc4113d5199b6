"""Benchmark suite package marker.

The package marker (together with pytest's ``--import-mode=importlib``)
lets the bench modules use ``from .conftest import curve`` regardless of
how pytest is invoked.
"""
