"""Committed lint baselines: carry reviewed historical findings.

A baseline file records the findings a reviewer has accepted (e.g. a
timestamp written into a report header — metadata, not result data) so
``repro-streamsim lint`` can exit clean on them while still failing on
anything *new*.  Entries match findings by ``(rule, file, context_hash)``
— the hash covers the rule code plus the stripped source line, never the
line number — so a baselined finding keeps matching after unrelated edits
move it up or down the file.  Matching is count-aware: two identical
baselined lines consume two entries, and a third identical new one still
fails.

The file is JSON (sorted, indented) so diffs review cleanly::

    {"version": 1, "entries": [
        {"rule": "D003", "file": "src/repro/harness/report.py",
         "line": 42, "context": "created_at=datetime.now(...)",
         "context_hash": "..."}]}

``line`` and ``context`` are recorded for humans; only ``rule``, ``file``
and ``context_hash`` participate in matching.  ``--update-baseline``
rewrites the file from the current findings (after pragma suppression),
which is also how stale entries — findings that were since fixed — are
retired.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .engine import Finding, LintError

__all__ = ["Baseline", "BaselineEntry", "BASELINE_VERSION"]

BASELINE_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, matchable by (rule, file, context_hash)."""

    rule: str
    file: str
    context_hash: str
    line: int = 0
    context: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.rule, self.file, self.context_hash)

    def as_json_dict(self) -> dict:
        return {"rule": self.rule, "file": self.file, "line": self.line,
                "context": self.context, "context_hash": self.context_hash}


@dataclass
class Baseline:
    """A set of accepted findings with count-aware matching."""

    entries: list[BaselineEntry] = field(default_factory=list)

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls(entries=[
            BaselineEntry(rule=f.rule, file=f.path,
                          context_hash=f.context_hash,
                          line=f.line, context=f.context)
            for f in findings])

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline (the
        common state for a clean tree), a malformed one is a hard error —
        silently ignoring a corrupt baseline would let every historical
        finding resurface as 'new'."""
        if not os.path.exists(path):
            return cls()
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise LintError(f"unreadable lint baseline {path!r}: {exc}"
                            ) from exc
        if not isinstance(payload, dict) \
                or payload.get("version") != BASELINE_VERSION:
            raise LintError(
                f"lint baseline {path!r} has version "
                f"{payload.get('version') if isinstance(payload, dict) else '?'!r}; "
                f"expected {BASELINE_VERSION}")
        entries = []
        for raw in payload.get("entries", []):
            try:
                entries.append(BaselineEntry(
                    rule=raw["rule"], file=raw["file"],
                    context_hash=raw["context_hash"],
                    line=int(raw.get("line", 0)),
                    context=raw.get("context", "")))
            except (KeyError, TypeError, ValueError) as exc:
                raise LintError(f"malformed baseline entry in {path!r}: "
                                f"{raw!r} ({exc})") from exc
        return cls(entries=entries)

    def save(self, path: str) -> None:
        """Write the baseline, entries sorted for stable diffs."""
        ordered = sorted(self.entries,
                         key=lambda e: (e.file, e.line, e.rule,
                                        e.context_hash))
        payload = {"version": BASELINE_VERSION,
                   "entries": [entry.as_json_dict() for entry in ordered]}
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- matching -----------------------------------------------------------
    def suppress(self, findings: Sequence[Finding]
                 ) -> tuple[list[Finding], int, int]:
        """Split findings into (new, matched_count, stale_entry_count).

        Each baseline entry absorbs at most one finding with the same
        (rule, file, context_hash); surplus identical findings stay new.
        ``stale_entry_count`` is how many entries matched nothing — the
        finding was fixed and ``--update-baseline`` should retire it.
        """
        budget = Counter(entry.key for entry in self.entries)
        fresh: list[Finding] = []
        matched = 0
        for finding in findings:
            key = (finding.rule, finding.path, finding.context_hash)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                matched += 1
            else:
                fresh.append(finding)
        stale = sum(budget.values())
        return fresh, matched, stale
