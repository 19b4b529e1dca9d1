"""Presentation validation against its frozen reference.

tests/data/presentations.json is written by make_presentation_fixtures.py and
holds the reports of the sampled validation that the exact checks replaced.
A valid presentation must get a byte-identical report; a near miss must fail
exactly the same named checks, and only the `detail` text of a failed check
may differ.
"""

import json
from pathlib import Path

import pytest
from make_presentation_fixtures import cases, record

FIXTURES = json.loads((Path(__file__).parent / "data" / "presentations.json").read_text())
RECORDS = FIXTURES["presentations"]


def _label(rec):
    return rec["label"]


def _verdicts(report):
    return [(c["name"], c["passed"]) for c in report["checks"]]


def test_fixture_holds_the_corpus():
    assert [(label, text) for label, text, _ in cases()] == [(r["label"], r["text"]) for r in RECORDS]


@pytest.mark.parametrize("frozen", [r for r in RECORDS if r["report"]["ok"]], ids=_label)
def test_valid_report_is_byte_identical(frozen):
    fresh = record(frozen["label"], frozen["text"])
    assert json.dumps(fresh) == json.dumps(frozen)


@pytest.mark.parametrize("frozen", [r for r in RECORDS if not r["report"]["ok"]], ids=_label)
def test_near_miss_fails_the_same_checks(frozen):
    fresh = record(frozen["label"], frozen["text"])["report"]
    assert not fresh["ok"]
    assert fresh["seed"] == frozen["report"]["seed"]
    assert _verdicts(fresh) == _verdicts(frozen["report"])
    assert all(c["detail"] for c in fresh["checks"] if not c["passed"])
    assert not any(c["detail"] for c in fresh["checks"] if c["passed"])
