"""Cache lifecycle administration: stats, GC, compaction, named profiles.

The sharded :class:`~repro.harness.cache.ResultCache` accumulates history:
versioned fingerprints mean every source change strands the previous
entries as dead weight in their shards, quarantined ``.corrupt`` files
pile up next to them, and nothing ever rewrites a shard that is mostly
stale.  This module is the administrative surface over a cache *directory*
(the CLI front end is ``repro-streamsim cache ...``):

* :func:`collect_stats` — entries/bytes/shards broken down per code
  fingerprint, the stale fraction, quarantined-file counts and the list of
  saved profiles.  Read-only: unlike opening a ``ResultCache``, statistics
  never quarantine or evict anything.
* :func:`gc_cache` — evict every entry whose fingerprint is not the
  running code's, delete shards that empty out, and optionally purge
  ``.corrupt`` quarantine files.  ``dry_run=True`` reports without writing.
* :func:`compact_cache` — rewrite every shard with its entries in sorted
  key order and clear leftover ``.tmp`` files.  Surviving entries are
  byte-identical before and after (the JSON round-trip preserves key
  order, escaping and float repr), so compaction is safe under the
  bit-identity goldens.
* :func:`snapshot_cache` / :func:`rollback_cache` — **named cache
  profiles** under ``<path>/.profiles/<name>/``: snapshot the shard set
  before a risky kernel change, roll back after.  A rollback restores
  exactly the snapshot-time shard set — byte-identical shard files, extra
  shards removed — and touches nothing else (lock files, quarantines and
  other profiles stay).

Every operation that writes takes the same per-shard lock
(:func:`~repro.harness.cache.shard_lock`) as the flush path, so admin
commands are safe to run next to live writers; a rollback concurrent with
a writer is last-writer-wins per shard, like any other flush.
"""

from __future__ import annotations

import glob
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Optional

from .._version import __version__
from .cache import (
    CACHE_VERSION,
    code_fingerprint,
    not_a_cache_directory,
    shard_lock,
    write_shard,
)

__all__ = [
    "CacheAdminError",
    "CacheStats",
    "FingerprintStats",
    "GCReport",
    "CompactReport",
    "ProfileInfo",
    "RollbackReport",
    "collect_stats",
    "gc_cache",
    "compact_cache",
    "snapshot_cache",
    "rollback_cache",
    "list_profiles",
    "delete_profile",
    "PROFILES_DIR",
]

#: Subdirectory of a cache that holds named profiles.
PROFILES_DIR = ".profiles"

#: Manifest file written into each profile directory.
PROFILE_MANIFEST = "profile.json"

#: Profile names: filesystem-safe, no leading dot (the profiles directory
#: itself is the only dotted name under a cache).
_PROFILE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class CacheAdminError(RuntimeError):
    """A cache admin operation cannot proceed (bad path, unknown profile,
    name collision...).  The CLI turns this into a clean diagnostic."""


def _shard_paths(path: str) -> list[str]:
    """Every shard file of a cache directory, sorted by name."""
    return sorted(p for p in glob.glob(os.path.join(path, "??.json"))
                  if os.path.isfile(p))


def _read_shard(shard_path: str) -> Optional[dict]:
    """Parse one shard without side effects: ``None`` when unreadable
    (admin statistics must not quarantine), raise on a version mismatch
    (that is a deliberate incompatibility, not corruption)."""
    try:
        with open(shard_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            return None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        return None
    if payload.get("version") != CACHE_VERSION:
        raise CacheAdminError(
            f"cache shard {shard_path!r} has version "
            f"{payload.get('version')!r}; expected {CACHE_VERSION}")
    return payload


def _require_directory(path: str) -> None:
    if os.path.isfile(path):
        raise CacheAdminError(not_a_cache_directory(path))


def _quarantine_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "*.corrupt*")))


def _tmp_files(path: str) -> list[str]:
    return sorted(glob.glob(os.path.join(path, "??.json.tmp")))


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
    profiles: list = field(default_factory=list)
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
                f"file(s), {len(self.profiles)} profile(s)")


def collect_stats(path: str) -> CacheStats:
    """Census a cache directory without modifying it.

    A missing directory reads as an empty cache (a session whose cache
    never flushed has no directory yet); a path that is a regular file is
    refused.
    """
    _require_directory(path)
    stats = CacheStats(path=path)
    if not os.path.isdir(path):
        return stats
    current = code_fingerprint()
    for shard_path in _shard_paths(path):
        payload = _read_shard(shard_path)
        if payload is None:
            stats.corrupt_shards += 1
            continue
        stats.shards += 1
        stats.total_bytes += os.path.getsize(shard_path)
        shard = os.path.basename(shard_path)
        # Stats are integer counters and set unions — commutative, so the
        # JSON dict's insertion order cannot leak into the output.
        for entry in payload.get("entries", {}).values():  # repro: allow[D004]
            fingerprint = entry.get("fingerprint") or "<none>"
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
    for name in _quarantine_files(path):
        stats.quarantined += 1
        stats.quarantined_bytes += os.path.getsize(name)
    stats.profiles = [profile.name for profile in list_profiles(path)]
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
    """Evict every stale-fingerprint entry from a cache directory.

    Entries whose fingerprint matches the running code survive untouched
    (their bytes are not rewritten unless the shard lost a neighbor);
    shards that empty out are deleted.  ``purge_quarantine`` also removes
    ``<shard>.corrupt[-N]`` files.  ``dry_run`` reports the same counts
    without writing anything.  Each shard is processed under its lock, so
    GC is safe next to live writers.
    """
    _require_directory(path)
    report = GCReport(path=path, dry_run=dry_run)
    if not os.path.isdir(path):
        return report
    current = code_fingerprint()
    for shard_path in _shard_paths(path):
        with shard_lock(shard_path):
            payload = _read_shard(shard_path)
            if payload is None:
                continue
            entries = payload.get("entries", {})
            report.scanned_shards += 1
            report.scanned_entries += len(entries)
            fresh = {key: entry for key, entry in entries.items()
                     if entry.get("fingerprint") == current}
            dead = len(entries) - len(fresh)
            if not dead:
                continue
            report.evicted += dead
            size_before = os.path.getsize(shard_path)
            if dry_run:
                if fresh:
                    survivor = json.dumps({"version": CACHE_VERSION,
                                           "entries": fresh})
                    report.bytes_reclaimed += size_before - len(survivor)
                    report.rewritten_shards += 1
                else:
                    report.bytes_reclaimed += size_before
                    report.deleted_shards += 1
                continue
            if not fresh:
                os.remove(shard_path)
                report.deleted_shards += 1
                report.bytes_reclaimed += size_before
                continue
            write_shard(shard_path, fresh)
            report.rewritten_shards += 1
            report.bytes_reclaimed += size_before - os.path.getsize(shard_path)
    if purge_quarantine:
        for name in _quarantine_files(path):
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
    surviving entry is byte-identical before and after — the JSON
    round-trip preserves the entry's own key order, string escaping and
    float repr — so compaction never perturbs the bit-identity goldens.
    """
    _require_directory(path)
    report = CompactReport(path=path)
    if not os.path.isdir(path):
        return report
    for shard_path in _shard_paths(path):
        with shard_lock(shard_path):
            payload = _read_shard(shard_path)
            if payload is None:
                continue
            entries = payload.get("entries", {})
            report.shards += 1
            report.entries += len(entries)
            report.bytes_before += os.path.getsize(shard_path)
            write_shard(shard_path,
                        {key: entries[key] for key in sorted(entries)})
            report.bytes_after += os.path.getsize(shard_path)
    for name in _tmp_files(path):
        os.remove(name)
        report.removed_tmp += 1
    return report


# ---------------------------------------------------------------------------
# Named profiles (snapshot / rollback)
# ---------------------------------------------------------------------------

@dataclass
class ProfileInfo:
    """One named profile: a frozen copy of the cache's shard set."""

    name: str
    path: str
    created: float = 0.0
    fingerprint: str = ""
    repro_version: str = ""
    shards: int = 0
    entries: int = 0

    def as_row(self) -> dict:
        return {
            "profile": self.name,
            "entries": self.entries,
            "shards": self.shards,
            "fingerprint": self.fingerprint or "?",
            "repro": self.repro_version or "?",
            "created": (time.strftime("%Y-%m-%d %H:%M:%S",
                                      time.localtime(self.created))
                        if self.created else "?"),
        }


@dataclass
class RollbackReport:
    """What one :func:`rollback_cache` restored."""

    profile: ProfileInfo
    restored_shards: int = 0
    removed_shards: int = 0

    def summary(self) -> str:
        return (f"rolled back to profile {self.profile.name!r}: "
                f"{self.restored_shards} shard(s) restored "
                f"({self.profile.entries} entries), "
                f"{self.removed_shards} newer shard(s) removed")


def _profiles_root(path: str) -> str:
    return os.path.join(path, PROFILES_DIR)


def _profile_path(path: str, name: str) -> str:
    if not _PROFILE_NAME.match(name):
        raise CacheAdminError(
            f"invalid profile name {name!r}; use letters, digits, dots, "
            f"dashes and underscores (no leading dot)")
    return os.path.join(_profiles_root(path), name)


def _read_manifest(profile_dir: str) -> dict:
    manifest = os.path.join(profile_dir, PROFILE_MANIFEST)
    try:
        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        return payload if isinstance(payload, dict) else {}
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}


def _profile_info(profile_dir: str) -> ProfileInfo:
    manifest = _read_manifest(profile_dir)
    shards = _shard_paths(profile_dir)
    entries = manifest.get("entries")
    if entries is None:  # manifest lost: recount from the shard copies
        entries = 0
        for shard_path in shards:
            payload = _read_shard(shard_path)
            entries += len(payload.get("entries", {})) if payload else 0
    return ProfileInfo(
        name=os.path.basename(profile_dir),
        path=profile_dir,
        created=manifest.get("created", 0.0),
        fingerprint=manifest.get("fingerprint", ""),
        repro_version=manifest.get("repro_version", ""),
        shards=len(shards),
        entries=entries,
    )


def snapshot_cache(path: str, name: str, *, force: bool = False
                   ) -> ProfileInfo:
    """Freeze the cache's current shard set as profile ``name``.

    The shard files are copied byte-for-byte (each under its shard lock,
    so a concurrent flush cannot tear the copy) into
    ``<path>/.profiles/<name>/`` along with a small manifest.  An existing
    profile of the same name is an error unless ``force=True`` replaces
    it.  Quarantine files, lock files and other profiles are not part of
    a snapshot.
    """
    _require_directory(path)
    if not os.path.isdir(path):
        raise CacheAdminError(f"no cache directory at {path!r}; run a "
                              f"sweep with --cache first")
    profile_dir = _profile_path(path, name)
    if os.path.isdir(profile_dir):
        if not force:
            raise CacheAdminError(
                f"profile {name!r} already exists; pass --force to "
                f"replace it")
        shutil.rmtree(profile_dir)
    os.makedirs(profile_dir)
    entries = 0
    shards = 0
    for shard_path in _shard_paths(path):
        with shard_lock(shard_path):
            payload = _read_shard(shard_path)
            if payload is None:
                continue
            shutil.copyfile(shard_path,
                            os.path.join(profile_dir,
                                         os.path.basename(shard_path)))
        entries += len(payload.get("entries", {}))
        shards += 1
    manifest = {
        "name": name,
        "created": time.time(),
        "fingerprint": code_fingerprint(),
        "repro_version": __version__,
        "shards": shards,
        "entries": entries,
    }
    with open(os.path.join(profile_dir, PROFILE_MANIFEST), "w",
              encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    return _profile_info(profile_dir)


def rollback_cache(path: str, name: str) -> RollbackReport:
    """Restore the shard set saved as profile ``name``.

    After a rollback the cache's shard files are byte-identical to the
    snapshot: every profile shard is copied back (atomically, under its
    shard lock) and shards created *since* the snapshot are removed.
    Lock files, quarantine files and the profiles directory itself are
    untouched — a rollback rewinds results, not administrative state.
    """
    _require_directory(path)
    profile_dir = _profile_path(path, name)
    if not os.path.isdir(profile_dir):
        known = ", ".join(p.name for p in list_profiles(path)) or "none"
        raise CacheAdminError(f"unknown profile {name!r} "
                              f"(saved profiles: {known})")
    report = RollbackReport(profile=_profile_info(profile_dir))
    saved = {os.path.basename(p) for p in _shard_paths(profile_dir)}
    for shard_path in _shard_paths(path):
        if os.path.basename(shard_path) not in saved:
            with shard_lock(shard_path):
                os.remove(shard_path)
            report.removed_shards += 1
    for shard_name in sorted(saved):
        shard_path = os.path.join(path, shard_name)
        with shard_lock(shard_path):
            tmp_path = f"{shard_path}.tmp"
            shutil.copyfile(os.path.join(profile_dir, shard_name), tmp_path)
            os.replace(tmp_path, shard_path)
        report.restored_shards += 1
    return report


def list_profiles(path: str) -> list[ProfileInfo]:
    """Every saved profile of a cache, sorted by name."""
    root = _profiles_root(path)
    if not os.path.isdir(root):
        return []
    return [_profile_info(os.path.join(root, name))
            for name in sorted(os.listdir(root))
            if os.path.isdir(os.path.join(root, name))]


def delete_profile(path: str, name: str) -> None:
    """Remove a saved profile (unknown names are an error)."""
    profile_dir = _profile_path(path, name)
    if not os.path.isdir(profile_dir):
        raise CacheAdminError(f"unknown profile {name!r}")
    shutil.rmtree(profile_dir)
