"""The analyzer against the regression corpus: every PR 4 bug shape
is flagged, every clean counterpart is silent.

The corpus under ``tests/analysis/corpus/`` pairs each ``bad_*.py``
fixture (a distilled real bug) with a ``clean_*.py`` rewrite; the
tests here are the contract that the analyzer separates them.
"""

from pathlib import Path

import pytest

from repro.analysis.concurrency import analyze_paths
from repro.analysis.concurrency.model import (
    ACQUIRE_WITHOUT_WITH,
    BLOCKING_CALL_UNDER_LOCK,
    CHECK_THEN_ACT,
    INIT_PUBLISH_AFTER_START,
    LOCK_ORDER_CYCLE,
    TORN_READ,
    UNGUARDED_RMW,
    UNGUARDED_WRITE,
    WAIT_OUTSIDE_LOOP,
)

CORPUS = Path(__file__).parent / "corpus"


def rules_for(name: str) -> dict:
    """Analyze one corpus file -> {rule: [violations]}."""
    report = analyze_paths([CORPUS / name])
    assert report.modules, f"{name} produced no module model"
    return report.by_rule()


class TestPR4BugShapes:
    """The four dynamically-caught PR 4 bugs, now caught statically."""

    def test_unlocked_tally_increment(self):
        rules = rules_for("bad_tally_race.py")
        [violation] = rules[UNGUARDED_RMW]
        assert violation.subject == "_offered"
        assert "submit" in violation.function

    def test_torn_multi_field_histogram_read(self):
        rules = rules_for("bad_torn_histogram.py")
        [violation] = rules[TORN_READ]
        fields = set(violation.subject.split(","))
        assert fields == {"_count", "_sum", "_max"}
        assert "summary" in violation.function

    def test_idle_time_mischarge_unguarded_clock(self):
        rules = rules_for("bad_idle_clock.py")
        subjects = {v.subject for v in rules[UNGUARDED_WRITE]}
        assert "_clock_ms" in subjects
        functions = {
            v.function for v in rules[UNGUARDED_WRITE]
            if v.subject == "_clock_ms"
        }
        assert any("begin_dispatch" in fn for fn in functions)

    def test_unlocked_state_transition_check(self):
        rules = rules_for("bad_state_check.py")
        [violation] = rules[CHECK_THEN_ACT]
        assert violation.subject == "_closed"
        assert "close_once" in violation.function


class TestDeadlockShapes:
    def test_opposite_order_nesting_is_a_cycle(self):
        report = analyze_paths([CORPUS / "bad_lock_cycle.py"])
        cycles = report.graph.cycles()
        assert len(cycles) == 1
        [violation] = report.by_rule()[LOCK_ORDER_CYCLE]
        assert "_lock_a" in violation.subject
        assert "_lock_b" in violation.subject
        # The witness names both acquisition sites.
        assert "transfer_in" in violation.message or \
            "transfer_out" in violation.message

    def test_consistent_order_is_acyclic(self):
        report = analyze_paths([CORPUS / "clean_lock_order.py"])
        assert report.graph.cycles() == []
        assert LOCK_ORDER_CYCLE not in report.by_rule()
        # The nesting still produces the A -> B edge.
        assert len(report.graph.edges) == 1


class TestHygieneShapes:
    def test_bad_hygiene_flags_all_four(self):
        rules = rules_for("bad_hygiene.py")
        assert ACQUIRE_WITHOUT_WITH in rules
        assert WAIT_OUTSIDE_LOOP in rules
        assert BLOCKING_CALL_UNDER_LOCK in rules
        [late] = rules[INIT_PUBLISH_AFTER_START]
        assert late.subject == "_late_config"

    def test_clean_hygiene_is_silent(self):
        report = analyze_paths([CORPUS / "clean_hygiene.py"])
        assert report.active == [], "\n".join(
            v.format() for v in report.active
        )


@pytest.mark.parametrize("name", [
    "clean_tally.py",
    "clean_histogram.py",
    "clean_idle_clock.py",
    "clean_state_check.py",
    "clean_lock_order.py",
    "clean_hygiene.py",
])
def test_clean_counterparts_not_flagged(name):
    report = analyze_paths([CORPUS / name])
    assert report.active == [], "\n".join(
        v.format() for v in report.active
    )


def test_corpus_pairs_are_complete():
    """Every bad fixture has a clean counterpart checked above."""
    bad = {p.name for p in CORPUS.glob("bad_*.py")}
    assert bad == {
        "bad_tally_race.py", "bad_torn_histogram.py",
        "bad_idle_clock.py", "bad_state_check.py",
        "bad_lock_cycle.py", "bad_hygiene.py",
    }


class TestTypedCallResolution:
    """Receivers typed by parameter-assigned attributes, attribute
    chains, loops over typed attributes and annotated locals resolve;
    an untyped receiver of an ambiguous method name does not."""

    @pytest.fixture(scope="class")
    def edges(self):
        report = analyze_paths([CORPUS / "typed_calls.py"])
        return set(report.graph.edges)

    @pytest.mark.parametrize("outer", ["OuterChain", "OuterLoop",
                                       "OuterLocal"])
    def test_typed_receiver_resolves(self, edges, outer):
        assert (f"typed_calls.{outer}._lock",
                "typed_calls.Leaf._lock") in edges

    def test_untyped_receiver_stays_unresolved(self, edges):
        assert not any(src.startswith("typed_calls.OuterUntyped")
                       for src, _ in edges)
