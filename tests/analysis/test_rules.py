"""The fixture corpus, parametrized: every rule must trip on its positive
fixture and stay silent on its negative — a rule whose check is stubbed
out fails here, not silently stops protecting the tree."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import SourceFile, all_rules, analyze_source, get_rule
from repro.analysis.cli import check_fixture_corpus

FIXTURES = Path(__file__).parent / "fixtures"

RULES = all_rules()


def load_fixture(name: str) -> SourceFile:
    text = (FIXTURES / name).read_text()
    directive = re.search(r"#\s*lint-fixture:\s*rel_path=(\S+)", text)
    rel_path = directive.group(1) if directive else name
    return SourceFile(str(FIXTURES / name), text, rel_path=rel_path)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.code)
def test_positive_fixture_trips_the_rule(rule):
    source = load_fixture(f"{rule.code}_positive.py")
    findings = analyze_source(source, [rule])
    assert findings, (f"{rule.code} ({rule.name}) produced no finding on "
                      f"its positive fixture — the rule is not firing")
    assert all(f.rule == rule.code for f in findings)
    assert all(f.line >= 1 and f.message for f in findings)


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.code)
def test_negative_fixture_stays_clean(rule):
    source = load_fixture(f"{rule.code}_negative.py")
    assert analyze_source(source, [rule]) == []


def test_corpus_runner_agrees_with_pytest():
    passed, failures = check_fixture_corpus(str(FIXTURES))
    assert failures == []
    # One check per fixture file: each rule's pair plus its facet pairs.
    fixtures = [*FIXTURES.glob("*_positive.py"),
                *FIXTURES.glob("*_negative.py")]
    assert len(passed) == len(fixtures) >= 2 * len(RULES)


def test_uuid_facet_of_d001_flags_every_entropy_uuid_call():
    rule = get_rule("D001")
    findings = analyze_source(load_fixture("D001_uuid_positive.py"), [rule])
    assert [f.line for f in findings] == [7, 11]
    assert all("uuid" in f.message for f in findings)
    assert analyze_source(load_fixture("D001_uuid_negative.py"), [rule]) == []


def test_corpus_runner_reports_a_stubbed_rule(tmp_path):
    """An empty positive fixture (rule never fires) is a corpus failure."""
    for rule in RULES:
        (tmp_path / f"{rule.code}_positive.py").write_text("x = 1\n")
        (tmp_path / f"{rule.code}_negative.py").write_text("x = 1\n")
    _, failures = check_fixture_corpus(str(tmp_path))
    assert len(failures) == len(RULES)
    assert all("not firing" in failure for failure in failures)


# ---------------------------------------------------------------------------
# Path-scoped behaviour the corpus cannot express
# ---------------------------------------------------------------------------

def make_source(body: str, rel_path: str) -> SourceFile:
    return SourceFile(rel_path, textwrap.dedent(body), rel_path=rel_path)


def test_wall_clock_allowlist_is_path_scoped():
    body = """\
        import time


        def manifest():
            return {"created": time.time()}
        """
    allowed = make_source(body, "src/repro/harness/cache_admin.py")
    assert analyze_source(allowed, [get_rule("D003")]) == []
    elsewhere = make_source(body, "src/repro/harness/runner.py")
    assert len(analyze_source(elsewhere, [get_rule("D003")])) == 1


def test_slots_rule_only_applies_to_listed_files():
    body = """\
        class Event:
            def __init__(self):
                self.callbacks = []
        """
    hot = make_source(body, "src/repro/simkit/core.py")
    assert len(analyze_source(hot, [get_rule("P002")])) == 1
    cold = make_source(body, "src/repro/harness/session.py")
    assert analyze_source(cold, [get_rule("P002")]) == []


def test_backend_rule_exempts_sweep_style_run_methods():
    """run() without a `points` parameter is not the backend protocol."""
    source = make_source("""\
        class ConsumerSweep:
            def run(self, *, session=None, policy=None):
                return run_scenarios(self.scenarios, session=session,
                                     policy=policy)
        """, "src/repro/harness/sweep.py")
    assert analyze_source(source, [get_rule("B001")]) == []
