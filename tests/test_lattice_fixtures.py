"""The finite-ring Zariski engine against its frozen reference.

tests/data/lattice_rings.json is written by make_lattice_fixtures.py; every
recorded report, ideal and certificate must come out the same.
"""

import json
from pathlib import Path

import pytest
from make_lattice_fixtures import ring_record

FIXTURES = json.loads((Path(__file__).parent / "data" / "lattice_rings.json").read_text())


@pytest.mark.parametrize("frozen", FIXTURES["rings"], ids=lambda r: r["spec"])
def test_ring_matches_frozen_reference(frozen):
    fresh = json.loads(json.dumps(ring_record(frozen["spec"])))
    for key, value in frozen.items():
        assert fresh[key] == value, key
