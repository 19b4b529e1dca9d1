"""Regenerate tests/data/lattice_rings.json.

A frozen reference for the finite-ring Zariski engine: for each ring of
`suites.TEST_RINGS` plus `prod:Zmod:4*Fp:3`, the exhaustive lattice-law
report, the primes, D of every element and of every ordered pair, the
boundary ideal of every element, and the one-generator Kronecker certificate
of every ordered pair.  Ideals are stored as the indices of their elements in
`ring.elements`, which is listed (formatted) once per ring.

The output pins what the engine computes today, so that a rewrite of its
internals can be checked against it; regenerate only when a change of result
is intended.

Run as: python3 tests/make_lattice_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from skewpbw.suites import TEST_RINGS
from skewpbw.zariski import (
    boundary_ideal,
    check_lattice_laws,
    enumerate_primes,
    kronecker_reduce_dim0,
    parse_ring_spec,
    zariski_D,
)

OUT = Path(__file__).parent / "data" / "lattice_rings.json"

RINGS = tuple(label for label, _ in TEST_RINGS) + ("prod:Zmod:4*Fp:3",)


def ring_record(spec: str) -> dict:
    ring = parse_ring_spec(spec)
    els = ring.elements

    def idx(ideal):
        return [ring.index[a] for a in ideal.sorted_elements()]

    def cert(u1, u):
        c = kronecker_reduce_dim0(u1, u, ring)
        return [ring.index[c.shifts[0]], c.constructive, c.fallback_used]

    return {
        "spec": spec,
        "elements": [ring.format(a) for a in els],
        "laws": check_lattice_laws(ring, mode="exhaustive"),
        "primes": [idx(P) for P in enumerate_primes(ring)],
        "D1": [idx(zariski_D((a,), ring)) for a in els],
        "D2": [[idx(zariski_D((a, b), ring)) for b in els] for a in els],
        "boundary": [idx(boundary_ideal(a, ring)) for a in els],
        "kronecker": [[cert(u1, u) for u in els] for u1 in els],
    }


def main():
    rings = [ring_record(spec) for spec in RINGS]
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"rings": rings}, separators=(",", ":")) + "\n")
    print(f"wrote {len(rings)} rings to {OUT}")


if __name__ == "__main__":
    main()
