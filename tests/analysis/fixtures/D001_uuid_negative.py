"""Fixture: ids derived from the run's seed are fine, as are uuid5 and
UUIDs built from a known integer."""
import uuid

from repro.simkit.rand import derive_seed


def session_id(root_seed, n):
    return f"{derive_seed(root_seed, 'session', n):016x}"


def named_id(name):
    return uuid.uuid5(uuid.NAMESPACE_DNS, name).hex


def fixed_id(value):
    return uuid.UUID(int=value).hex
