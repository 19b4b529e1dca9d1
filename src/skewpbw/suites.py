"""Property-suite runners shared by the CLI `suite` subcommand and the tests.

Each runner returns a plain dict: {"name", "seed", "checks": [{name, passed,
detail}], "ok"}.  Checks are appended in a fixed order and any sharded
execution must merge by check name, so reports are deterministic for a given
seed.
"""

from __future__ import annotations

import random

from .catalog import build, catalog_names
from .errors import NotFoundWithinBound
from .matrices import (
    PolyMatrix,
    find_right_inverse_row,
    mat_multiply,
    random_invertible,
    verify_completion,
    verify_inverse,
)
from .pbw import (
    DEFAULT_SEED,
    associated_graded,
    is_quasi_commutative,
    validate_presentation,
    zero_divisor_probe,
)
from .zariski import (
    FiniteCommRing,
    FptBackend,
    check_boundary_condition,
    check_lattice_laws,
    kronecker_reduce,
    kronecker_reduce_dim0,
    zariski_D,
)

TEST_RINGS = (
    ("Zmod:4", lambda: FiniteCommRing.zmod(4)),
    ("Zmod:6", lambda: FiniteCommRing.zmod(6)),
    ("Zmod:8", lambda: FiniteCommRing.zmod(8)),
    ("Zmod:12", lambda: FiniteCommRing.zmod(12)),
    ("Zmod:30", lambda: FiniteCommRing.zmod(30)),
    ("quot:F2:x^3", lambda: FiniteCommRing.quotient_poly(2, (0, 0, 0, 1))),
)


def _report(name: str, seed: int) -> dict:
    return {"name": name, "seed": seed, "checks": [], "ok": True}


def _add(report: dict, name: str, passed: bool, detail: str = ""):
    report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})
    report["ok"] = report["ok"] and bool(passed)


def suite_pbw(trials: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """Catalog validation, associativity sampling, graded law, domain probes."""
    report = _report("pbw", seed)
    rng = random.Random(seed)
    for name in catalog_names():
        P = build(name, p=7)
        val = validate_presentation(P)
        _add(report, f"{name}: presentation checks", val.ok,
             "; ".join(c.name for c in val.failures()))
        bad = []
        for k in range(trials):
            f = P.random_poly(rng, 2)
            g = P.random_poly(rng, 2)
            h = P.random_poly(rng, 2)
            if (f * g) * h != f * (g * h):
                bad.append(k)
                break
        _add(report, f"{name}: {trials} associativity triples", not bad)
        _add(report, f"{name}: graded presentation is quasi-commutative",
             is_quasi_commutative(associated_graded(P)))
    for name in ("weyl", "quantum-plane"):
        P = build(name, p=7)
        probe = zero_divisor_probe(P, trials, 3, seed=seed)
        _add(report, f"{name}: zero-divisor probe ({trials} trials)", probe.ok)
    return report


def suite_lattice(seed: int = DEFAULT_SEED) -> dict:
    """Twelve lattice laws plus the boundary condition on the six test rings."""
    report = _report("lattice", seed)
    for label, make in TEST_RINGS:
        ring = make()
        law_rep = check_lattice_laws(ring, mode="exhaustive", seed=seed)
        for law in law_rep["laws"]:
            _add(report, f"{label}: {law['law']} ({law['cases']} cases)", law["ok"],
                 "; ".join(law["failures"]))
        bnd = check_boundary_condition(ring)
        _add(report, f"{label}: boundary ideals are the whole ring", bnd["ok"],
             ", ".join(bnd["violations"]))
    return report


def suite_kronecker(fresh: int = 50, bound: int = 6, seed: int = DEFAULT_SEED) -> dict:
    """Dimension-zero reduction on all pairs; polynomial backend on random triples."""
    report = _report("kronecker", seed)
    total = constructive = 0
    for label, make in TEST_RINGS:
        ring = make()
        bad = []
        for u1 in ring.elements:
            for u in ring.elements:
                cert = kronecker_reduce_dim0(u1, u, ring)
                total += 1
                constructive += not cert.fallback_used
                x1 = cert.shifts[0]
                got = zariski_D((ring.add(u1, ring.mul(x1, u)),), ring)
                if got != zariski_D((u1, u), ring):
                    bad.append((u1, u))
        _add(report, f"{label}: one-generator reduction on all pairs", not bad,
             f"failures: {bad[:3]}")
    rate = constructive / total if total else 1.0
    _add(report, f"constructive pick rate {rate:.3f} over {total} pairs", rate >= 0.95)

    backend = FptBackend(5)
    rng = random.Random(seed)
    ok = 0
    verified = True
    for _ in range(fresh):
        u1 = backend.ring.random_element(rng, 4)
        u2 = backend.ring.random_element(rng, 4)
        u = backend.ring.random_element(rng, 4)
        try:
            xs = kronecker_reduce((u1, u2), u, backend, bound)
        except NotFoundWithinBound:
            continue
        ok += 1
        R = backend.ring
        shifted = (R.add(u1, R.mul(xs[0], u)), R.add(u2, R.mul(xs[1], u)))
        if backend.radical_class(shifted) != backend.radical_class((u1, u2, u)):
            verified = False
    _add(report, f"F_5[t] reduction certificates all verify ({ok}/{fresh} found)",
         verified and ok >= int(0.9 * fresh))
    return report


def suite_matrix(samples: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Witness solver and completion consistency checks."""
    report = _report("matrix", seed)
    A1 = build("weyl", p=101)
    t, x = A1.var("t"), A1.var("x")
    w = find_right_inverse_row([t, x], 1)
    _add(report, "weyl row (t, x) has a degree-1 right inverse",
         w is not None and verify_inverse(PolyMatrix.row([t, x]), PolyMatrix.column(w), "right"))

    P5 = build("polynomial-ring", p=5, n=1, names=["t"])
    bad = 0
    for k in range(samples):
        U, Uinv = random_invertible(P5, 3, 6, 2, seed=seed + k)
        if not verify_completion(list(U.entries[0]), Uinv, U):
            bad += 1
    _add(report, f"completion consistency on {samples} random invertibles", bad == 0,
         f"{bad} failures")

    # order sensitivity: the two bracketings of t, x differ by the commutator
    lhs = mat_multiply(PolyMatrix.row([t, x]), PolyMatrix.column([x, -t])).entries[0][0]
    rhs = mat_multiply(PolyMatrix.row([x, t]), PolyMatrix.column([t, -x])).entries[0][0]
    _add(report, "entry order changes noncommutative products", lhs != rhs,
         f"{lhs} vs {rhs}")
    return report


def suite_all(trials: int = 200, seed: int = DEFAULT_SEED) -> dict:
    report = _report("all", seed)
    for sub in (suite_pbw(trials, seed), suite_lattice(seed),
                suite_kronecker(seed=seed), suite_matrix(seed=seed)):
        for chk in sub["checks"]:
            _add(report, f"{sub['name']}: {chk['name']}", chk["passed"], chk["detail"])
    return report


SUITES = {
    "pbw": suite_pbw,
    "lattice": suite_lattice,
    "kronecker": suite_kronecker,
    "matrix": suite_matrix,
    "all": suite_all,
}
