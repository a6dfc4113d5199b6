"""Cache lifecycle administration: stats, GC and compaction.

The sharded :class:`~repro.harness.cache.ResultCache` accumulates history:
versioned fingerprints mean every source change strands the previous
entries as dead weight in their shards, quarantined ``.corrupt`` files
pile up next to them, and nothing ever rewrites a shard that is mostly
stale.  This module is the administrative surface over a cache *directory*
(the CLI front end is ``repro-streamsim cache ...``):

* :func:`collect_stats` — entries/bytes/shards broken down per code
  fingerprint, the stale fraction and quarantined-file counts.
  Read-only: unlike opening a ``ResultCache``, statistics never
  quarantine or evict anything.
* :func:`gc_cache` — evict every stale entry, delete shards that empty
  out, and optionally purge ``.corrupt`` quarantine files.
  ``dry_run=True`` reports without writing.
* :func:`compact_cache` — rewrite every shard with its entries in sorted
  key order and clear leftover ``.tmp`` files.  Every entry is
  byte-identical before and after (the JSON round-trip preserves key
  order, escaping and float repr), so compaction is safe under the
  bit-identity goldens.

All three are policies over :mod:`~repro.harness.cache`, which lists,
reads and writes the shard files.  An entry is *current* only when it is
an object whose ``fingerprint`` string matches the running code; every
other entry is stale.  A shard that does not parse, or whose ``entries``
is not an object, is skipped (``stats`` counts it as unreadable) and left
where it is.  A shard of another format version, or a cache path that is
a regular file, raises ``ValueError``.

The operations that write take the same per-shard lock
(:func:`~repro.harness.cache.shard_lock`) as the flush path, so admin
commands are safe to run next to live writers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .cache import (
    CorruptShard,
    code_fingerprint,
    quarantine_paths,
    read_entries,
    shard_lock,
    shard_paths,
    shard_text,
    tmp_paths,
    write_shard,
)

__all__ = [
    "CacheStats",
    "FingerprintStats",
    "GCReport",
    "CompactReport",
    "collect_stats",
    "gc_cache",
    "compact_cache",
]


def _fingerprint(entry: object) -> Optional[str]:
    """The entry's code fingerprint, or None when it has no string one."""
    fingerprint = entry.get("fingerprint") if isinstance(entry, dict) else None
    return fingerprint if isinstance(fingerprint, str) else None


def _readable_entries(shard_path: str) -> Optional[dict]:
    """The shard's entries, or None when it is corrupt (left in place) or
    was removed by a concurrent flush since it was listed."""
    try:
        return read_entries(shard_path)
    except (CorruptShard, FileNotFoundError):
        return None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class FingerprintStats:
    """Entry/byte totals for one code fingerprint found in a cache."""

    fingerprint: str
    entries: int = 0
    bytes: int = 0
    shards: set = field(default_factory=set)
    #: True when the fingerprint is not the running code's (a GC target).
    stale: bool = False

    def as_row(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "entries": self.entries,
            "bytes": self.bytes,
            "shards": len(self.shards),
            "status": "stale" if self.stale else "current",
        }


@dataclass
class CacheStats:
    """One read-only census of a sharded cache directory."""

    path: str
    shards: int = 0
    entries: int = 0
    total_bytes: int = 0
    stale_entries: int = 0
    #: Shard files present but unreadable (quarantine candidates).
    corrupt_shards: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0
    fingerprints: dict = field(default_factory=dict)

    @property
    def stale_fraction(self) -> float:
        return self.stale_entries / self.entries if self.entries else 0.0

    def rows(self) -> list[dict]:
        """Per-fingerprint rows (current first, then by entry count)."""
        return [stats.as_row() for stats in
                sorted(self.fingerprints.values(),
                       key=lambda s: (s.stale, -s.entries, s.fingerprint))]

    def summary(self) -> str:
        return (f"{self.entries} entries in {self.shards} shard(s), "
                f"{self.total_bytes} bytes; {self.stale_entries} stale "
                f"({self.stale_fraction:.0%}), {self.corrupt_shards} "
                f"unreadable shard(s), {self.quarantined} quarantined "
                f"file(s)")


def collect_stats(path: str) -> CacheStats:
    """Census a cache directory without modifying it.

    A missing directory reads as an empty cache (a session whose cache
    never flushed has no directory yet).  An entry without a string
    fingerprint counts as stale, under ``<none>``.
    """
    stats = CacheStats(path=path)
    current = code_fingerprint()
    for shard_path in shard_paths(path):
        try:
            entries = read_entries(shard_path)
        except CorruptShard:
            stats.corrupt_shards += 1
            continue
        except FileNotFoundError:  # removed by a concurrent flush
            continue
        stats.shards += 1
        stats.total_bytes += os.path.getsize(shard_path)
        shard = os.path.basename(shard_path)
        # Stats are integer counters and set unions — commutative, so the
        # JSON dict's insertion order cannot leak into the output.
        for entry in entries.values():  # repro: allow[D004]
            fingerprint = _fingerprint(entry) or "<none>"
            per = stats.fingerprints.get(fingerprint)
            if per is None:
                per = stats.fingerprints[fingerprint] = FingerprintStats(
                    fingerprint=fingerprint, stale=fingerprint != current)
            per.entries += 1
            per.bytes += len(json.dumps(entry))
            per.shards.add(shard)
            stats.entries += 1
            if per.stale:
                stats.stale_entries += 1
    for name in quarantine_paths(path):
        stats.quarantined += 1
        stats.quarantined_bytes += os.path.getsize(name)
    return stats


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------

@dataclass
class GCReport:
    """What one :func:`gc_cache` pass did (or would do, under dry_run)."""

    path: str
    dry_run: bool = False
    scanned_shards: int = 0
    scanned_entries: int = 0
    evicted: int = 0
    rewritten_shards: int = 0
    deleted_shards: int = 0
    purged_quarantine: int = 0
    bytes_reclaimed: int = 0

    def summary(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        return (f"{verb} {self.evicted}/{self.scanned_entries} entries "
                f"({self.rewritten_shards} shard(s) rewritten, "
                f"{self.deleted_shards} deleted, {self.purged_quarantine} "
                f"quarantine file(s) purged, {self.bytes_reclaimed} bytes "
                f"reclaimed)")


def gc_cache(path: str, *, purge_quarantine: bool = False,
             dry_run: bool = False) -> GCReport:
    """Evict every stale entry from a cache directory.

    Current entries survive untouched (their bytes are not rewritten
    unless the shard lost a neighbor); shards that empty out are deleted.
    ``purge_quarantine`` also removes ``<shard>.corrupt[-N]`` files.
    ``dry_run`` reports the same counts without writing anything.  Each
    shard is processed under its lock, so GC is safe next to live writers.
    """
    report = GCReport(path=path, dry_run=dry_run)
    current = code_fingerprint()
    for shard_path in shard_paths(path):
        with shard_lock(shard_path):
            entries = _readable_entries(shard_path)
            if entries is None:
                continue
            report.scanned_shards += 1
            report.scanned_entries += len(entries)
            fresh = {key: entry for key, entry in entries.items()
                     if _fingerprint(entry) == current}
            dead = len(entries) - len(fresh)
            if not dead:
                continue
            report.evicted += dead
            size_before = os.path.getsize(shard_path)
            if dry_run:
                size_after = len(shard_text(fresh)) if fresh else 0
            elif fresh:
                write_shard(shard_path, fresh)
                size_after = os.path.getsize(shard_path)
            else:
                os.remove(shard_path)
                size_after = 0
            report.bytes_reclaimed += size_before - size_after
            if fresh:
                report.rewritten_shards += 1
            else:
                report.deleted_shards += 1
    if purge_quarantine:
        for name in quarantine_paths(path):
            report.purged_quarantine += 1
            report.bytes_reclaimed += os.path.getsize(name)
            if not dry_run:
                os.remove(name)
    return report


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

@dataclass
class CompactReport:
    """What one :func:`compact_cache` pass rewrote."""

    path: str
    shards: int = 0
    entries: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    removed_tmp: int = 0

    def summary(self) -> str:
        return (f"compacted {self.entries} entries across {self.shards} "
                f"shard(s): {self.bytes_before} -> {self.bytes_after} "
                f"bytes, {self.removed_tmp} leftover .tmp file(s) removed")


def compact_cache(path: str) -> CompactReport:
    """Rewrite every shard with entries in sorted key order.

    Interleaved multi-writer flushes leave shard entries in arrival order;
    compaction normalizes that (deterministic diffs, stable downstream
    hashing) and clears ``.tmp`` leftovers from crashed flushes.  Each
    entry, stale or not, is byte-identical before and after — the JSON
    round-trip preserves the entry's own key order, string escaping and
    float repr — so compaction never perturbs the bit-identity goldens.
    """
    report = CompactReport(path=path)
    for shard_path in shard_paths(path):
        with shard_lock(shard_path):
            entries = _readable_entries(shard_path)
            if entries is None:
                continue
            report.shards += 1
            report.entries += len(entries)
            report.bytes_before += os.path.getsize(shard_path)
            write_shard(shard_path,
                        {key: entries[key] for key in sorted(entries)})
            report.bytes_after += os.path.getsize(shard_path)
    for name in tmp_paths(path):
        os.remove(name)
        report.removed_tmp += 1
    return report
