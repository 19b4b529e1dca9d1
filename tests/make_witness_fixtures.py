"""Regenerate tests/data/witness.json.

A frozen reference for the witness engine in `skewpbw.matrices`:

- `find_right_inverse_row` / `find_left_inverse_column` on the examples of
  test_matrices.py, and on seeded rows over each F_p algebra that the
  benchmark's witness workload uses plus the Weyl algebra over Q, at witness
  bounds 1-3, on both sides;
- `search_stable_reduction` at a-bound 1 and 2 over F_3[x], F_5[x] and
  A_1 over F_3, including columns with a common factor (no shift works);
- one SHA-256 over all 6561 witnesses of acceptance criterion 10 (every pair
  of F_3[x] polynomials of degree <= 3 at the gcd-criterion bound).

Polynomials are stored as sorted [exponents, coefficient text] lists.  The
output pins what the engine computes today, so that a rewrite of its
internals can be checked against it; regenerate only when a change of result
is intended.

Run as: python3 tests/make_witness_fixtures.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from oracles import ptrim

from skewpbw.catalog import build
from skewpbw.matrices import (
    find_left_inverse_column,
    find_right_inverse_row,
    search_stable_reduction,
)
from skewpbw.pbw import SkewPoly

OUT = Path(__file__).parent / "data" / "witness.json"

# (catalog name, p, params); p None is Q.  The F_p rows are the algebras of
# the benchmark's witness workload.
ALGEBRAS = (
    ("weyl", 101, ()), ("weyl", 7, ()), ("weyl", 7, (("n", 2),)), ("usl2", 7, ()),
    ("dispin", 7, ()), ("quantum-plane", 7, ()), ("q-heisenberg", 7, ()),
    ("additive-analogue", 7, ()), ("weyl", None, ()),
)
ROWS_PER_ALGEBRA = 3
SEARCH = {"right": find_right_inverse_row, "left": find_left_inverse_column}


def _build(name, p, params):
    if p is None:
        return build(name, rationals=True, **dict(params))
    return build(name, p=p, **dict(params))


def poly_record(f: SkewPoly):
    return [[list(m), str(c)] for m, c in sorted(f.terms.items())]


def out_record(out):
    return None if out is None else [poly_record(f) for f in out]


def _fpx(P, coeffs):
    p = P.ring.p
    return SkewPoly(P, {(k,): c % p for k, c in enumerate(coeffs) if c % p})


def example_cases():
    """(label, entries, bound, side): the worked examples of test_matrices.py."""
    A1, W101, F5x = build("weyl", p=7), build("weyl", p=101), build("polynomial-ring", p=5, n=1)
    t, x = A1.var("t"), A1.var("x")
    xx = F5x.var("x")
    cases = [
        ("A1/F7 [1, 0]", [A1.one(), A1.zero()], 0, "right"),
        ("A1/F101 [t, x]", [W101.var("t"), W101.var("x")], 1, "right"),
        ("F5[x] [x, x+1]", [xx, xx + F5x.one()], 0, "right"),
        ("F5[x] [x, x]", [xx, xx], 3, "right"),
        ("A1/F7 [t, x] left", [t, x], 1, "left"),
    ]
    rng = random.Random(8)
    for k in range(30):
        cases.append((f"A1/F7 random {k}", [A1.random_poly(rng, 1) for _ in range(2)], 2, "right"))
    P3 = build("polynomial-ring", p=3, n=1)
    pairs = itertools.product(itertools.product(range(3), repeat=3), repeat=2)
    for a, b in itertools.islice(pairs, 0, None, 37):
        bound = len(ptrim(list(a))) + len(ptrim(list(b)))
        cases.append((f"F3[x] {a} {b}", [_fpx(P3, a), _fpx(P3, b)], bound, "right"))
    return cases


def seeded_cases():
    """Seeded rows over each algebra, at witness bounds 1-3 on both sides."""
    cases = []
    for name, p, params in ALGEBRAS:
        P = _build(name, p, params)
        rng = random.Random(f"{name}/{p}/{params}")
        size = 3 if P.n == 4 else 2
        for k in range(ROWS_PER_ALGEBRA):
            entries = [P.random_poly(rng, 1, nonzero=True) for _ in range(size)]
            if k % 2 == 0:  # a unit constant term makes a witness likely
                entries[0] = entries[0] + P.one()
            for bound in (1, 2, 3):
                for side in ("right", "left"):
                    label = f"{name}/{p or 'Q'}{dict(params) or ''} row {k}"
                    cases.append((label, entries, bound, side))
    return cases


def stable_cases():
    """(label, column, a-bound, witness bound) for search_stable_reduction."""
    F3x, F5x = build("polynomial-ring", p=3, n=1), build("polynomial-ring", p=5, n=1)
    A1 = build("weyl", p=3)
    cases = []
    for P, bound in ((F3x, 2), (F5x, 3)):
        p = P.ring.p
        rng = random.Random(f"stable/{p}")
        for a_bound in (1, 2):
            for k in range(3):
                column = [_fpx(P, [rng.randrange(p) for _ in range(3)]) for _ in range(2)]
                cases.append((f"F{p}[x] r2 a{a_bound} {k}", column, a_bound, bound))
            # a shared factor x: no shift can ever work
            common = [_fpx(P, [0, rng.randrange(1, p), rng.randrange(p)]) for _ in range(2)]
            cases.append((f"F{p}[x] common a{a_bound}", common, a_bound, bound))
        column = [_fpx(P, [rng.randrange(p) for _ in range(3)]) for _ in range(3)]
        cases.append((f"F{p}[x] r3 a1", column, 1, bound))
        common = [_fpx(P, [0, rng.randrange(1, p), rng.randrange(p)]) for _ in range(3)]
        cases.append((f"F{p}[x] r3 common a1", common, 1, bound))
    xx = F5x.var("x")
    one = F5x.one()
    cases.append(("F5[x] test hard", [xx * xx, xx * (xx + one), one + xx * xx], 1, 6))
    rng = random.Random("stable/A1")
    t, x = A1.var("t"), A1.var("x")
    cases.append(("A1/F3 [t, x] a1", [t, x], 1, 1))
    cases.append(("A1/F3 [x t, x^2] a1", [x * t, x * x], 1, 2))
    for a_bound in (1, 2):
        for k in range(2):
            column = [A1.random_poly(rng, 1, nonzero=True),
                      A1.random_poly(rng, 1, nonzero=True) + A1.one()]
            cases.append((f"A1/F3 a{a_bound} {k}", column, a_bound, 2))
    # planted: v_1 = 1 - a v_2 with deg a = 2, so some shift of degree <= 2 works
    for P in (F3x, F5x, A1):
        rng = random.Random(f"planted/{P!r}")
        for k in range(2):
            v2 = P.random_poly(rng, 1, nonzero=True)
            a = P.random_poly(rng, 2, nonzero=True)
            column = [P.one() - a * v2, v2]
            if k:
                column.insert(1, P.random_poly(rng, 1))
            cases.append((f"{P.ring!r} {','.join(P.names)} planted r{len(column)}", column,
                          2 if len(column) == 2 else 1, 2))
    return cases


def criterion_10_digest() -> str:
    P = build("polynomial-ring", p=3, n=1)
    polys = [list(c) for c in itertools.product(range(3), repeat=4)]
    h = hashlib.sha256()
    for a, b in itertools.product(polys, repeat=2):
        bound = len(ptrim(a)) + len(ptrim(b))
        out = find_right_inverse_row([_fpx(P, a), _fpx(P, b)], bound)
        h.update(json.dumps(out_record(out)).encode() + b"\n")
    return h.hexdigest()


def inverse_records(cases):
    return [
        {"label": label, "entries": [poly_record(f) for f in entries], "bound": bound,
         "side": side, "out": out_record(SEARCH[side](entries, bound))}
        for label, entries, bound, side in cases
    ]


def stable_records():
    return [
        {"label": label, "column": [poly_record(f) for f in column], "a_bound": a_bound,
         "bound": bound, "out": out_record(search_stable_reduction(column, a_bound, bound))}
        for label, column, a_bound, bound in stable_cases()
    ]


def records() -> dict:
    return {
        "examples": inverse_records(example_cases()),
        "seeded": inverse_records(seeded_cases()),
        "stable": stable_records(),
        "criterion_10_sha256": criterion_10_digest(),
    }


def main():
    doc = records()
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {sum(len(v) for v in doc.values() if isinstance(v, list))} cases to {OUT}")


if __name__ == "__main__":
    main()
