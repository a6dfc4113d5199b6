"""The ``repro-streamsim lint`` front end.

Exit codes (documented contract, relied on by ``make lint`` and CI):

* ``0`` — clean: no findings beyond pragmas and the baseline.
* ``1`` — findings: at least one new violation (or a self-test failure).
* ``2`` — usage: unknown rule, bad path, unreadable baseline.

Modes:

* default — lint the given paths (default ``src/repro``) against the
  baseline (default ``lint-baseline.json`` next to the current
  directory; a missing baseline file is simply empty).
* ``--update-baseline`` — rewrite the baseline from the current findings
  (post-pragma) and exit 0; the diff is the review surface.
* ``--self-test`` — run the rule fixture corpus
  (``tests/analysis/fixtures/<CODE>_positive.py`` must trip rule CODE,
  ``<CODE>_negative.py`` must not) so the analyzer itself cannot rot: a
  rule whose check stops firing fails the corpus, not just silently
  stops protecting the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .baseline import Baseline
from .engine import (
    LintError,
    SourceFile,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
)

__all__ = ["configure_lint_parser", "run_lint", "run_self_test",
           "DEFAULT_BASELINE", "DEFAULT_FIXTURES"]

#: Baseline committed at the repo root (``make lint`` runs from there).
DEFAULT_BASELINE = "lint-baseline.json"

#: Fixture corpus directory for ``--self-test``.
DEFAULT_FIXTURES = os.path.join("tests", "analysis", "fixtures")


def configure_lint_parser(sub) -> None:
    """Attach the ``lint`` subcommand to the main CLI's subparsers."""
    lint = sub.add_parser(
        "lint",
        help="static determinism/concurrency analysis over the repro "
             "source (AST rules, pragma + baseline suppression); exit "
             "codes: 0 clean, 1 findings, 2 usage")
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro, falling "
             "back to the installed repro package)")
    lint.add_argument(
        "--rule", action="append", default=None, metavar="CODE",
        dest="rules",
        help="run only this rule (repeatable; see --list-rules)")
    lint.add_argument(
        "--list-rules", action="store_true", dest="list_rules",
        help="print the rule table (code, name, rationale) and exit")
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as a JSON document instead of text")
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file of accepted findings (default "
             f"{DEFAULT_BASELINE}; a missing file is an empty baseline)")
    lint.add_argument(
        "--no-baseline", action="store_true", dest="no_baseline",
        help="ignore any baseline file (report every finding)")
    lint.add_argument(
        "--update-baseline", action="store_true", dest="update_baseline",
        help="rewrite the baseline from the current findings and exit 0")
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory findings/baseline paths are relative to "
             "(default: current directory)")
    lint.add_argument(
        "--self-test", action="store_true", dest="self_test",
        help="check every rule against its fixture corpus instead of "
             "linting the tree")
    lint.add_argument(
        "--fixtures", default=None, metavar="DIR",
        help=f"fixture corpus directory for --self-test "
             f"(default {DEFAULT_FIXTURES})")


def _default_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    # Fall back to the installed package (linting an installed tree).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [package_root]


def _print_rule_table() -> None:
    rules = all_rules()
    width = max(len(rule.name) for rule in rules)
    for rule in rules:
        print(f"{rule.code}  {rule.name:<{width}}  [{rule.category}] "
              f"{rule.rationale}")


def run_lint(args: argparse.Namespace) -> int:
    """Entry point behind ``repro-streamsim lint``."""
    try:
        if args.list_rules:
            _print_rule_table()
            return 0
        if args.self_test:
            return run_self_test(args.fixtures or DEFAULT_FIXTURES)
        return _lint_tree(args)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _lint_tree(args: argparse.Namespace) -> int:
    paths = args.paths or _default_paths()
    rules = ([get_rule(code) for code in args.rules]
             if args.rules else None)
    report = analyze_paths(paths, rules, root=args.root)

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.update_baseline:
        Baseline.from_findings(report.findings).save(baseline_path)
        print(f"[lint] baseline updated: {len(report.findings)} entr"
              f"{'y' if len(report.findings) == 1 else 'ies'} written to "
              f"{baseline_path}")
        return 0

    matched = stale = 0
    findings = report.findings
    if not args.no_baseline:
        baseline = Baseline.load(baseline_path)
        findings, matched, stale = baseline.suppress(findings)

    if args.as_json:
        print(json.dumps({
            "version": 1,
            "checked_files": report.checked_files,
            "findings": [f.as_json_dict() for f in findings],
            "suppressed": {"pragmas": report.pragma_suppressed,
                           "baseline": matched},
            "stale_baseline_entries": stale,
        }, indent=2, sort_keys=True))
        return 1 if findings else 0

    for finding in findings:
        print(finding.render())
    summary = (f"[lint] {len(findings)} finding(s) in "
               f"{report.checked_files} file(s) "
               f"({report.pragma_suppressed} pragma-suppressed, "
               f"{matched} baselined)")
    print(summary, file=sys.stderr if findings else sys.stdout)
    if stale:
        print(f"[lint] note: {stale} baseline entr"
              f"{'y' if stale == 1 else 'ies'} no longer match any "
              f"finding — run --update-baseline to retire them",
              file=sys.stderr)
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self-test: the fixture corpus
# ---------------------------------------------------------------------------

def check_fixture_corpus(fixtures_dir: str
                         ) -> tuple[list[str], list[str]]:
    """Run every rule against its fixtures: (passed, failures).

    Per rule ``CODE``, ``<CODE>_positive.py`` must produce at least one
    ``CODE`` finding and ``<CODE>_negative.py`` must produce none; a
    missing fixture file is itself a failure, so new rules cannot land
    without corpus coverage.  Extra pairs for one facet of a rule,
    ``<CODE>_<facet>_positive.py`` / ``<CODE>_<facet>_negative.py``, are
    checked the same way.

    A fixture may carry ``# lint-fixture: rel_path=repro/simkit/core.py``
    to impersonate a path — needed by path-scoped rules (P002's hot-path
    class list, D003's allowlist).
    """
    if not os.path.isdir(fixtures_dir):
        raise LintError(f"no fixture corpus at {fixtures_dir!r} "
                        f"(pass --fixtures DIR)")
    passed: list[str] = []
    failures: list[str] = []
    listing = sorted(os.listdir(fixtures_dir))
    for rule in all_rules():
        stems = [rule.code] + [
            match.group(1) for match in (
                re.fullmatch(rf"({rule.code}_\w+)_positive\.py", name)
                for name in listing) if match]
        checks = [(stem, polarity, want) for stem in stems
                  for polarity, want in (("positive", True),
                                         ("negative", False))]
        for stem, polarity, want in checks:
            name = f"{stem}_{polarity}.py"
            path = os.path.join(fixtures_dir, name)
            if not os.path.isfile(path):
                failures.append(f"{rule.code}: missing fixture {name}")
                continue
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            directive = re.search(
                r"#\s*lint-fixture:\s*rel_path=(\S+)", text)
            source = SourceFile(
                path, text,
                rel_path=directive.group(1) if directive else name)
            hits = [f for f in analyze_source(source, [rule])
                    if f.rule == rule.code]
            if want and not hits:
                failures.append(
                    f"{rule.code}: {name} produced no {rule.code} finding "
                    f"(the rule is not firing)")
            elif not want and hits:
                failures.append(
                    f"{rule.code}: {name} produced unexpected finding(s): "
                    + "; ".join(f.render() for f in hits))
            else:
                passed.append(f"{stem} {polarity}")
    return passed, failures


def run_self_test(fixtures_dir: str) -> int:
    passed, failures = check_fixture_corpus(fixtures_dir)
    for failure in failures:
        print(f"[lint self-test] FAIL {failure}", file=sys.stderr)
    print(f"[lint self-test] {len(passed)} fixture check(s) passed, "
          f"{len(failures)} failed "
          f"({len(all_rules())} rule(s) in the registry)")
    return 1 if failures else 0
