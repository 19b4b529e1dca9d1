"""The witness engine against its frozen reference.

tests/data/witness.json is written by make_witness_fixtures.py; every recorded
witness, shift tuple and the criterion-10 digest must come out the same.
"""

import json
from pathlib import Path

import pytest
from make_witness_fixtures import (
    criterion_10_digest,
    example_cases,
    inverse_records,
    seeded_cases,
    stable_records,
)

FIXTURES = json.loads((Path(__file__).parent / "data" / "witness.json").read_text())
SECTIONS = {
    "examples": lambda: inverse_records(example_cases()),
    "seeded": lambda: inverse_records(seeded_cases()),
    "stable": stable_records,
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_matches_frozen_reference(section):
    fresh = json.loads(json.dumps(SECTIONS[section]()))
    frozen = FIXTURES[section]
    assert len(fresh) == len(frozen)
    for new, old in zip(fresh, frozen):
        assert new == old, old["label"]


def test_criterion_10_witnesses_match_frozen_digest():
    assert criterion_10_digest() == FIXTURES["criterion_10_sha256"]
