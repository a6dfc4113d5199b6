"""Fixture: a write_shard call outside `with shard_lock` trips L001."""
from repro.harness.cache import shard_lock, write_shard


def flush(shard_path, entries):
    write_shard(shard_path, entries)


def flush_after_unlock(shard_path, entries):
    with shard_lock(shard_path):
        pass
    write_shard(shard_path, entries)
