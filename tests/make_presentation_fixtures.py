"""Regenerate tests/data/presentations.json.

A frozen reference for presentation validation: the report of
`validate_presentation` (default arguments) for

* every catalog algebra, at its default parameters, over F_5, F_7, F_11,
  F_13, F_101 and Q;
* a near-miss corpus, each presentation one small edit away from a valid one:
  U(sl2) with the sign of `2e` in `he` or of `-2f` in `hf` flipped; the
  quantum matrices with the twist of `a` or of `d` by the wrong power of q;
  quotient-ring actions whose sigma or delta does not preserve the modulus;
  and a bijective declaration whose sigma is not invertible;
* controls that look like near misses but are valid: the `fe` sign flip of
  U(sl2), which is U(sl2) again with f -> -f, and quotient-ring actions that
  do preserve the modulus.

Each record keeps the presentation file text, so the test re-parses exactly
what was validated.  The output pins what validation reports today, so that a
rewrite of it can be checked against it; regenerate only when a change of
result is intended.

Run as: python3 tests/make_presentation_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from skewpbw.catalog import build, catalog_names, parse_presentation_file, serialize
from skewpbw.pbw import Presentation, validate_presentation
from skewpbw.rings import EndoSpec

OUT = Path(__file__).parent / "data" / "presentations.json"

FIELDS = (5, 7, 11, 13, 101, None)  # None is Q

# usl2 pairs (i, j) of its rewrites x_j x_i: (e, f) -> fe, (e, h) -> he, (f, h) -> hf
USL2_FLIPS = {"fe": (0, 1), "he": (0, 2), "hf": (1, 2)}

EXTRA = (  # (label, text, valid)
    # sigma(f) != 0 mod f
    ("F2[x]/(x^2) sigma x -> x+1", "ring quot Fp 2 x^2\nvars y\nsigma y x -> x + 1\n", False),
    ("F5[x]/(x^2+2) sigma x -> 2x", "ring quot Fp 5 x^2+2\nvars y\nsigma y x -> 2*x\n", False),
    ("F2[x]/(x^3+x+1) sigma x -> x+1, two variables",
     "ring quot Fp 2 x^3+x+1\nvars y z\nsigma y x -> x + 1\n", False),
    # delta(f) != 0 mod f
    ("F3[x]/(x^2) delta x -> 1", "ring quot Fp 3 x^2\nvars y\ndelta y x -> 1\n", False),
    ("F5[x]/(x^2+2) delta x -> 1", "ring quot Fp 5 x^2+2\nvars y\ndelta y x -> 1\n", False),
    ("F2[x]/(x^3+x+1) delta x -> 1, two variables",
     "ring quot Fp 2 x^3+x+1\nvars y z\ndelta z x -> 1\n", False),
    # a sigma that is not invertible, declared bijective
    ("F2[x]/(x^2) sigma x -> 0, bijective",
     "ring quot Fp 2 x^2\nvars y\nbijective true\nsigma y x -> 0\n", False),
    ("F5[t] sigma t -> t^2, bijective",
     "ring poly Fp 5 t\nvars y\nbijective true\nsigma y t -> t^2\n", False),
    # valid controls
    ("F2[x]/(x^3+x+1) Frobenius, bijective",
     "ring quot Fp 2 x^3+x+1\nvars y\nbijective true\nsigma y x -> x^2\n", True),
    ("F3[x]/(x^2) sigma x -> 2x, delta x -> 1",
     "ring quot Fp 3 x^2\nvars y\nbijective true\nsigma y x -> 2*x\ndelta y x -> 1\n", True),
    ("F2[x]/(x^2) delta x -> 1", "ring quot Fp 2 x^2\nvars y\ndelta y x -> 1\n", True),
    ("F5[x]/(x^2+2) sigma x -> 4x, delta x -> x",
     "ring quot Fp 5 x^2+2\nvars y\nsigma y x -> 4*x\ndelta y x -> x\n", True),
    ("F5[x]/(x^2+2) sigma x -> 4x, two variables, bijective",
     "ring quot Fp 5 x^2+2\nvars y z\nbijective true\nsigma y x -> 4*x\nc z y = 2\n", True),
)


def _field_label(p) -> str:
    return "Q" if p is None else f"F_{p}"


def _build(name, p):
    return build(name, p=p, rationals=p is None)


def usl2_flipped(p, rel: str) -> str:
    P = _build("usl2", p)
    R = P.ring
    lower = dict(P.lower)
    d0, dks = lower[USL2_FLIPS[rel]]
    lower[USL2_FLIPS[rel]] = (d0, tuple(R.neg(d) for d in dks))
    return serialize(Presentation(R, P.names, P.sigma, P.delta, P.c, lower, P.bijective))


def manin_twisted(p, var: str, power: int) -> str:
    """The quantum matrices (q = 3) with sigma of `var` set to b -> q^power b."""
    P = _build("manin", p)
    R = P.ring
    q = R.base.from_int(3)
    qk = R.base.one
    for _ in range(abs(power)):
        qk = R.base.mul(qk, q)
    if power < 0:
        qk = R.base.inv(qk)
    sigma = list(P.sigma)
    sigma[P.names.index(var)] = EndoSpec(R, R.scale(qk, R.generator))
    return serialize(Presentation(R, P.names, sigma, P.delta, P.c, P.lower, P.bijective))


def cases():
    """(label, presentation text, expected to be valid) in a fixed order."""
    out = []
    for p in FIELDS:
        for name in catalog_names():
            out.append((f"{name} over {_field_label(p)}", serialize(_build(name, p)), True))
    for p in FIELDS:
        for rel in USL2_FLIPS:
            out.append((f"usl2 over {_field_label(p)}, sign of {rel} flipped",
                        usl2_flipped(p, rel), rel == "fe"))
        out.append((f"manin over {_field_label(p)}, sigma[a] b -> q b",
                    manin_twisted(p, "a", 1), False))
        out.append((f"manin over {_field_label(p)}, sigma[d] b -> q^-1 b",
                    manin_twisted(p, "d", -1), False))
    return out + list(EXTRA)


def record(label: str, text: str) -> dict:
    report = validate_presentation(parse_presentation_file(text))
    return {"label": label, "text": text, "report": report.as_dict()}


def main():
    records = []
    for label, text, valid in cases():
        rec = record(label, text)
        if rec["report"]["ok"] != valid:
            raise SystemExit(f"{label}: expected ok={valid}, got {rec['report']}")
        records.append(rec)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"presentations": records}, indent=1) + "\n")
    print(f"wrote {len(records)} presentations to {OUT}")


if __name__ == "__main__":
    main()
