"""Fixture: write_shard under shard_lock is fine."""
from repro.harness.cache import shard_lock, write_shard


def flush(shard_path, entries):
    with shard_lock(shard_path):
        write_shard(shard_path, entries)
