"""Result cache for the scenario runner: on disk (sharded by key prefix)
or in memory.

Format: a *directory* of shard files, ``<path>/<xx>.json``, where ``xx`` is
the first two hex characters of :meth:`ScenarioPoint.cache_key` (a content
hash of the point's config and kind).  Each shard holds ``{"version": 1,
"entries": {<key>: <entry>}}`` and each ``<entry>`` holds the point
description, a *code fingerprint* (see :func:`code_fingerprint`) and the
:meth:`~repro.harness.results.ExperimentResult.to_json_dict` payload,
with each run's sample columns packed (below).  Figure regeneration passes
the same cache path back in and every already-computed point is loaded
instead of re-simulated, so e.g. ``repro-streamsim figure fig5 --cache
fig-cache`` after ``fig6 --cache fig-cache`` only runs the points fig6 did
not cover.

Packed sample columns: a run's four float columns (:data:`SAMPLE_COLUMNS`:
``rtt_samples``, ``latency_samples``, ``rtt_weights``, ``latency_weights``)
are stored as one lowercase hex string each, the column's little-endian
float64 bytes, so neither a save nor a load formats or parses a JSON float
and every value, NaN sign included, comes back bit for bit.  Every other
field stays plain JSON, and ``to_json_dict()`` itself keeps plain lists.
Hex, not base64: base64 is a quarter shorter on disk, but
``binascii.a2b_base64`` decodes about five times slower per character than
``bytes.fromhex``, which costs each warm load more than the shorter parse
saves.  A column stored as a JSON list (written before packing) still
loads.

Sharding keeps flushes O(dirty shard), not O(total entries): the runner
persists results incrementally as points complete, and with one monolithic
file every flush rewrote the entire cache — quadratic over a long sweep.
With 256 shards only the files whose entries changed since the last flush
are rewritten (each atomically, via a temp file).  A cache path that is a
regular file (the pre-sharding single-file layout) is refused with a
``ValueError``; the ``cache`` admin commands refuse it the same way.

This module alone knows the shard file format: it lists, reads
(:func:`read_entries`) and writes every file of a cache directory, and
:mod:`~repro.harness.cache_admin` goes through it.

Version awareness: every entry records the fingerprint of the ``repro``
source tree that produced it.  An entry whose fingerprint no longer matches
the running code is treated as a miss and evicted (its result may reflect
old simulation semantics); pass ``allow_stale=True`` (CLI:
``--allow-stale``) to serve such entries anyway.

Robustness: a corrupt or truncated shard (interrupted write, disk full,
hand editing), or one whose ``entries`` is not an object, is quarantined
to ``<shard>.corrupt[-N]`` with a warning and that shard starts empty,
instead of crashing the sweep that tried to use it.  A shard that parses
but holds an entry that is not an object or does not rebuild (a missing
field, a truncated hex column, a string where a number belongs) loses
only that entry: :meth:`ResultCache.load` warns, evicts it and reports a
miss, so the point is simulated and stored again.  A file whose
declared format version is unknown still raises — that is a deliberate
mismatch, not corruption.

Concurrent writers: flushing is *read-merge-write* per shard under a
per-shard lock file (``<shard>.json.lock``; ``flock`` where available,
else an exclusive-create spin lock with stale-lock breaking).  Before the
atomic ``os.replace`` the flusher folds any on-disk entries it has not
seen — another process's completed points — into the outgoing payload, so
N independent writer processes sharing one cache directory lose nothing
(the wire model for distributed backends).  Keys this process deliberately
evicted (stale fingerprints, malformed entries) stay evicted rather than
resurrecting from disk; conflicting writes to the *same* key resolve
last-writer-wins.  Lock files are tiny and persist between runs (removing
one under a live ``flock`` holder would break mutual exclusion);
``cache gc``/``compact`` leave them alone.

Results are also persisted *incrementally* while a sweep runs (see
``run_scenarios``): :meth:`ResultCache.maybe_save` flushes to disk every
``autosave_interval`` stores, so killing a long parallel sweep midway
leaves its completed points reusable.

Memory-only mode: ``ResultCache(path=None)`` writes nothing and keeps the
result objects it stores, keyed the same way, so :meth:`ResultCache.load`
returns the stored object itself.  A :class:`~repro.harness.session.Session`
opened without a cache path resolves its points through one, so a point
two figures share (Figure 7(b) and Figure 8) is simulated once per
session.  A disk cache keeps no such object layer: every load rebuilds
the result from its JSON entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

try:  # POSIX; Windows falls back to the exclusive-create spin lock
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]

from .._version import __version__
from .results import ExperimentResult
from .runner import ScenarioPoint

__all__ = ["ResultCache", "CACHE_VERSION", "CorruptShard", "code_fingerprint",
           "read_entries", "shard_lock", "shard_paths", "shard_text",
           "quarantine_paths", "tmp_paths", "write_shard", "LOCK_SUFFIX",
           "SAMPLE_COLUMNS"]

CACHE_VERSION = 1

#: The per-run float columns a disk entry stores packed as hex float64.
SAMPLE_COLUMNS = ("rtt_samples", "latency_samples", "rtt_weights",
                  "latency_weights")

#: Suffix of the per-shard lock files (``<shard>.json.lock``).
LOCK_SUFFIX = ".lock"

#: How long :func:`shard_lock` waits before giving up (spin-lock fallback).
LOCK_TIMEOUT_S = 30.0

#: Age past which a fallback lock file is presumed abandoned (holder died
#: without cleanup) and broken.  ``flock`` locks release with the process
#: and never need this.
LOCK_STALE_S = 60.0

_fingerprint: Optional[str] = None


class CorruptShard(Exception):
    """A shard file that does not parse, or whose top level or ``entries``
    is not a JSON object."""


def code_fingerprint() -> str:
    """Hash of the ``repro`` package source plus its version string.

    Computed once per process by walking every ``.py`` file under the
    installed ``repro`` package in a deterministic order.  Any source edit
    or version bump changes the fingerprint, which is what invalidates
    cache entries written by older code.
    """
    global _fingerprint
    if _fingerprint is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        digest.update(__version__.encode())
        for dirpath, dirnames, filenames in os.walk(package_root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, package_root).encode())
                digest.update(b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\0")
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def _listing(path: str, wanted) -> list[str]:
    """The files of cache directory ``path`` whose names ``wanted`` accepts,
    sorted by name; none when the directory does not exist.  A ``path``
    that is a regular file is refused with a ``ValueError``."""
    try:
        return sorted(entry.path for entry in os.scandir(path)
                      if wanted(entry.name) and entry.is_file())
    except (FileNotFoundError, NotADirectoryError):
        if os.path.isfile(path):
            raise ValueError(
                f"{path!r} is a file, but a result cache is a directory of "
                f"shards; single-file caches are not read (delete the file "
                f"or pass a directory path)") from None
        return []


def shard_paths(path: str) -> list[str]:
    """Every shard file (``<xx>.json``) of a cache directory, sorted."""
    return _listing(path, lambda name: len(name) == 7
                    and name.endswith(".json"))


def quarantine_paths(path: str) -> list[str]:
    """Every quarantined shard (``<xx>.json.corrupt[-N]``), sorted."""
    return _listing(path, lambda name: name[2:].startswith(".json.corrupt"))


def tmp_paths(path: str) -> list[str]:
    """Every ``<xx>.json.tmp`` that an interrupted :func:`write_shard` left
    behind, sorted."""
    return _listing(path, lambda name: len(name) == 11
                    and name.endswith(".json.tmp"))


def _quarantine(path: str, reason: object) -> None:
    """Move a shard that cannot be read to ``<shard>.corrupt[-N]`` and
    warn."""
    quarantined = f"{path}.corrupt"
    counter = 1
    while os.path.exists(quarantined):
        quarantined = f"{path}.corrupt-{counter}"
        counter += 1
    os.replace(path, quarantined)
    warnings.warn(
        f"result cache {path!r} is corrupt ({reason}); moved it to "
        f"{quarantined!r} and starting with an empty cache",
        RuntimeWarning, stacklevel=4)


def read_entries(shard_path: str) -> dict:
    """One shard file's ``entries`` object; moves and writes nothing.

    Raises :class:`CorruptShard` when the file does not parse or its top
    level or ``entries`` is not an object, and ``ValueError`` when its
    declared version is not the integer :data:`CACHE_VERSION` (``true``,
    ``1.0`` and ``"1"`` are refused too): that is a deliberate mismatch,
    not corruption.
    """
    try:
        with open(shard_path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CorruptShard(exc) from exc
    if not isinstance(payload, dict):
        raise CorruptShard(f"top-level JSON value is "
                           f"{type(payload).__name__}, not an object")
    version = payload.get("version")
    if type(version) is not int or version != CACHE_VERSION:
        raise ValueError(
            f"result cache {shard_path!r} has version {version!r}; "
            f"expected {CACHE_VERSION}")
    entries = payload.get("entries", {})
    if not isinstance(entries, dict):
        raise CorruptShard(f"'entries' is {type(entries).__name__}, not an "
                           f"object")
    return entries


def _shard_name(key: str) -> str:
    return key[:2]


def _warn_malformed(key: str, reason: str) -> None:
    warnings.warn(
        f"result cache entry {key!r} is malformed ({reason}); evicted it, "
        f"so its point runs again", RuntimeWarning, stacklevel=4)


def _packed(payload: dict) -> dict:
    """``payload`` (a fresh ``to_json_dict()``) with every run's sample
    columns packed as hex float64, in place."""
    for run in payload["runs"]:
        for name in SAMPLE_COLUMNS:
            column = run.get(name)
            if column is not None:
                run[name] = np.asarray(column, dtype="<f8").tobytes().hex()
    return payload


def _unpacked(payload: dict) -> dict:
    """A copy of a stored ``payload`` with its packed columns decoded to
    float64 arrays; the stored entry is left as it is, since it is
    serialized again by later saves.  Raises ``KeyError``, ``TypeError``
    or ``ValueError`` on a malformed payload."""
    runs = []
    for run in payload["runs"]:
        run = dict(run)
        for name in SAMPLE_COLUMNS:
            column = run.get(name)
            if isinstance(column, str):
                run[name] = np.frombuffer(bytes.fromhex(column), dtype="<f8")
        runs.append(run)
    return {**payload, "runs": runs}


@contextmanager
def shard_lock(shard_path: str, *,
               timeout_s: float = LOCK_TIMEOUT_S) -> Iterator[None]:
    """Cross-process mutual exclusion for one shard file.

    Holds ``<shard_path>.lock`` for the duration of the ``with`` block.
    Where ``fcntl`` exists the lock is an exclusive ``flock`` on that file
    (released automatically if the holder dies); elsewhere it is an
    exclusive-create spin lock that breaks locks older than
    ``LOCK_STALE_S`` seconds and raises ``TimeoutError`` after
    ``timeout_s``.  Under ``flock`` the lock file persists between runs —
    deleting it under a live holder would hand a second process a fresh
    inode and break the exclusion — while the fallback removes it on
    release (its existence *is* the lock).
    """
    lock_path = f"{shard_path}{LOCK_SUFFIX}"
    parent = os.path.dirname(lock_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if fcntl is not None:
        handle = open(lock_path, "a")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()
        return
    # Fallback: O_CREAT|O_EXCL succeeds for exactly one process at a time.
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                # Lock-staleness detection is inherently wall-clock: it
                # measures how long a *dead* flusher has held the lock,
                # never anything result-bearing.
                age = time.time() - os.stat(lock_path).st_mtime  # repro: allow[D003]
            except OSError:  # released in the gap; retry immediately
                continue
            if age > LOCK_STALE_S:
                try:  # the holder died mid-flush; break its lock
                    os.remove(lock_path)
                except OSError:
                    pass
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"could not acquire shard lock {lock_path!r} within "
                    f"{timeout_s}s (remove it manually if its owner is "
                    f"dead)") from None
            time.sleep(0.01)
    try:
        yield
    finally:
        os.close(fd)
        try:
            os.remove(lock_path)
        except OSError:  # pragma: no cover - best effort
            pass


def shard_text(entries: dict) -> str:
    """The text of a shard file holding ``entries``.  It is encoded with
    ``json.dumps``, which runs the C encoder; ``json.dump`` writes the same
    bytes through the pure-Python encoder, about twice as slowly."""
    return json.dumps({"version": CACHE_VERSION, "entries": entries})


def write_shard(shard_path: str, entries: dict) -> None:
    """Atomically replace one shard file with :func:`shard_text` of
    ``entries``.

    The text goes to ``<shard>.tmp`` and is then renamed over the shard,
    so a reader sees the old or the new shard, never half of one.  Callers
    hold the shard's :func:`shard_lock`.
    """
    text = shard_text(entries)
    tmp_path = f"{shard_path}.tmp"
    # The caller holds the lock; lint rule L001 checks every call site.
    with open(tmp_path, "w", encoding="utf-8") as handle:  # repro: allow[L001]
        handle.write(text)
    os.replace(tmp_path, shard_path)  # repro: allow[L001]


class ResultCache:
    """A dict of experiment results keyed by scenario content hash,
    persisted as one JSON shard per two-hex-character key prefix, or held
    in memory as result objects when ``path`` is ``None``."""

    def __init__(self, path: Optional[str] = None, *,
                 allow_stale: bool = False,
                 autosave_interval: int = 1,
                 autosave_min_s: float = 1.0) -> None:
        self.path = path
        self.allow_stale = allow_stale
        self.autosave_interval = max(1, autosave_interval)
        #: Wall-clock throttle between autosaves.  Sharding already bounds a
        #: flush to the shards that changed; the throttle additionally keeps
        #: very fast sweeps from hitting the filesystem per point, at the
        #: cost of a kill losing about this much completed work.
        self.autosave_min_s = autosave_min_s
        self._entries: dict[str, dict] = {}
        self._dirty_shards: set[str] = set()
        #: Keys this process deliberately evicted (stale fingerprints,
        #: malformed entries).  The merge-on-flush must not resurrect them
        #: from disk.
        self._evicted: set[str] = set()
        self._stores_since_save = 0
        self._last_autosave = 0.0
        #: Entries evicted because their code fingerprint went stale.
        self.stale_evicted = 0
        #: Memory-only mode: the stored result objects, by key.
        self._results: dict[str, ExperimentResult] = {}
        if path is not None:
            self._load_shards(path)

    # -- on-disk layout -----------------------------------------------------------
    @staticmethod
    def _load_entries(path: str) -> Optional[dict]:
        """One shard's ``entries`` object (:func:`read_entries`).  A
        corrupt shard is quarantined with a warning instead of raising
        (returns None so that shard starts empty)."""
        try:
            return read_entries(path)
        except CorruptShard as exc:
            _quarantine(path, exc)
            return None

    def _load_shards(self, path: str) -> None:
        for shard_path in shard_paths(path):
            entries = self._load_entries(shard_path)
            if entries is None:
                continue
            shard = os.path.basename(shard_path)[:2]
            for key in [key for key in entries if _shard_name(key) != shard]:
                # A misfiled entry would be written nowhere once its shard
                # is saved.  It is not re-homed: a key read from disk is
                # outside input, and its prefix may not name a shard file.
                del entries[key]
                self._evicted.add(key)
                self._dirty_shards.add(shard)
                _warn_malformed(key, f"it was filed in {shard_path!r}")
            self._entries.update(entries)

    # -- mapping protocol -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results if self.path is None else self._entries)

    def _evict(self, key: str) -> None:
        """Drop an entry: it never comes back (not even via the
        merge-on-flush) and its shard is rewritten on save."""
        del self._entries[key]
        self._evicted.add(key)
        self._dirty_shards.add(_shard_name(key))

    def _evict_stale(self, key: str) -> None:
        self._evict(key)
        self.stale_evicted += 1

    def _evict_malformed(self, key: str, reason: str) -> None:
        self._evict(key)
        _warn_malformed(key, reason)

    def _current_entry(self, key: str) -> Optional[dict]:
        """The disk entry under ``key``, or None on a miss.  An entry that
        is not a JSON object is evicted as malformed, and a stale one is
        evicted unless the cache allows stale entries; both are misses."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if not isinstance(entry, dict):
            self._evict_malformed(
                key, f"{type(entry).__name__}, not an object")
            return None
        if not self.allow_stale and entry.get("fingerprint") != code_fingerprint():
            self._evict_stale(key)
            return None
        return entry

    def __contains__(self, point: ScenarioPoint) -> bool:
        # Same lookup as load(), so `point in cache` and cache.load(point)
        # agree and stale entries cannot outlive either kind of lookup.
        if self.path is None:
            return point.cache_key() in self._results
        return self._current_entry(point.cache_key()) is not None

    def load(self, point: ScenarioPoint) -> Optional[ExperimentResult]:
        """The cached result for ``point``, or ``None`` on a miss.

        An entry written by a different version of the ``repro`` source is
        stale: it is evicted and reported as a miss (so the point gets
        recomputed), unless the cache was opened with ``allow_stale=True``.
        An entry that is not a JSON object, or does not rebuild, is
        malformed: it is evicted with a ``RuntimeWarning`` and reported as
        a miss too (``point in cache`` does not rebuild, so only a load
        finds the second kind).  A memory-only cache returns the stored
        object itself, which callers treat as read-only.
        """
        key = point.cache_key()
        if self.path is None:
            return self._results.get(key)
        entry = self._current_entry(key)
        if entry is None:
            return None
        try:
            return ExperimentResult.from_json_dict(_unpacked(entry["result"]))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            self._evict_malformed(key, repr(exc))
            return None

    def store(self, point: ScenarioPoint, result: ExperimentResult) -> None:
        key = point.cache_key()
        if self.path is None:
            self._results[key] = result
            return
        self._entries[key] = {
            "point": point.describe(),
            "fingerprint": code_fingerprint(),
            "result": _packed(result.to_json_dict()),
        }
        self._evicted.discard(key)
        self._dirty_shards.add(_shard_name(key))
        self._stores_since_save += 1

    def maybe_save(self) -> None:
        """Flush to disk if enough stores *and* wall clock have accumulated
        (``autosave_interval`` / ``autosave_min_s``); :meth:`save` at the end
        of a run is unconditional."""
        if (self._stores_since_save >= self.autosave_interval
                and time.monotonic() - self._last_autosave >= self.autosave_min_s):
            self.save()

    def save(self) -> None:
        """Write the dirty shards back to disk (each atomically)."""
        if not self._dirty_shards:
            return
        os.makedirs(self.path, exist_ok=True)
        self._write_dirty_shards()
        self._stores_since_save = 0
        self._last_autosave = time.monotonic()

    def _merge_on_disk(self, shard_path: str, entries: dict) -> None:
        """Fold a concurrent writer's entries into the outgoing payload.

        Called under the shard lock, just before the atomic replace: any
        key on disk that this process has neither seen nor deliberately
        evicted was completed by another writer since our last read — it
        joins both the payload and our in-memory view, so N independent
        flushers lose zero points.  Keys present on both sides resolve to
        this process's value (last writer wins per key).
        """
        if not os.path.exists(shard_path):
            return
        on_disk = self._load_entries(shard_path)
        if on_disk is None:  # corrupt: quarantined, nothing to merge
            return
        for key, entry in on_disk.items():
            if key in self._entries or key in self._evicted:
                continue
            entries[key] = entry
            self._entries[key] = entry

    def _write_dirty_shards(self) -> None:
        by_shard: dict[str, dict[str, dict]] = {name: {}
                                                for name in self._dirty_shards}
        for key, entry in self._entries.items():
            shard = _shard_name(key)
            if shard in by_shard:
                by_shard[shard][key] = entry
        for shard, entries in by_shard.items():
            shard_path = os.path.join(self.path, f"{shard}.json")
            with shard_lock(shard_path):
                self._merge_on_disk(shard_path, entries)
                if not entries:
                    # Every entry in the shard was evicted.
                    if os.path.exists(shard_path):
                        os.remove(shard_path)
                    continue
                write_shard(shard_path, entries)
        self._dirty_shards.clear()
