import random
import time
from math import comb, factorial

import pytest
from oracles import naive_normalize, random_word

from skewpbw.catalog import build, catalog_names
from skewpbw.errors import SemanticError
from skewpbw.parsing import parse_presentation
from skewpbw.pbw import (
    NEG_INF,
    Presentation,
    SkewPoly,
    associated_graded,
    is_quasi_commutative,
    validate_presentation,
    zero_divisor_probe,
)
from skewpbw.rings import DerivationSpec, EndoSpec, PrimeField


@pytest.fixture(scope="module")
def weyl7():
    return build("weyl", p=7)


@pytest.fixture(scope="module")
def qplane7():
    return build("quantum-plane", p=7, q=3)


def test_single_commutation(weyl7):
    t, x = weyl7.var("t"), weyl7.var("x")
    assert (x * t).terms == {(1, 1): 1, (0, 0): 1}  # x t = t x + 1


def test_quantum_plane_rule(qplane7):
    x, y = qplane7.var("x"), qplane7.var("y")
    assert (y * x).terms == {(1, 1): 3}


def test_square_commutation_rationals():
    P = build("weyl", rationals=True)
    t, x = P.var("t"), P.var("x")
    got = (x * x) * t
    # oracle: one-rule rewriting of the word x x t
    expected = naive_normalize(P, [("v", 1), ("v", 1), ("v", 0)])
    assert got.terms == expected
    one = P.ring.one
    assert got.terms == {(1, 2): one, (0, 1): one + one}  # t x^2 + 2 x


def test_add_and_cancel(weyl7):
    rng = random.Random(0)
    f = weyl7.random_poly(rng, 3)
    assert not (f - f)
    assert (f + weyl7.zero()) == f


def test_product_difference_of_squares(weyl7):
    t, x = weyl7.var("t"), weyl7.var("x")
    got = (t + x) * (t - x)
    # assemble the oracle value for (t + x)(t - x) term by term
    words = [
        ([("v", 0), ("v", 0)], 1),
        ([("v", 0), ("v", 1)], -1 % 7),
        ([("v", 1), ("v", 0)], 1),
        ([("v", 1), ("v", 1)], -1 % 7),
    ]
    acc = {}
    R = weyl7.ring
    for word, sign in words:
        for mono, c in naive_normalize(weyl7, word).items():
            s = R.add(acc.get(mono, 0), R.mul(sign, c))
            if s == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = s
    assert got.terms == acc
    assert got.terms == {(2, 0): 1, (0, 2): 6, (0, 0): 1}  # t^2 - x^2 + 1


def test_multiply_by_unit_monomial(weyl7):
    rng = random.Random(1)
    f = weyl7.random_poly(rng, 3)
    assert f * weyl7.one() == f
    assert weyl7.one() * f == f


def test_degree(weyl7):
    t, x = weyl7.var("t"), weyl7.var("x")
    assert (t * x + weyl7.one()).degree() == 2
    assert weyl7.zero().degree() == NEG_INF
    assert weyl7.scalar(5).degree() == 0


def test_associated_graded_weyl(weyl7):
    G = associated_graded(weyl7)
    assert is_quasi_commutative(G)
    t, x = G.var("t"), G.var("x")
    assert (x * t).terms == {(1, 1): 1}  # commutative after grading


def test_associated_graded_fixes_quasicommutative(qplane7):
    assert associated_graded(qplane7) == qplane7
    assert is_quasi_commutative(qplane7)


def test_associated_graded_idempotent():
    for name in catalog_names():
        P = build(name, p=7)
        G = associated_graded(P)
        assert associated_graded(G) == G
        assert is_quasi_commutative(G)


def test_is_quasi_commutative(weyl7, qplane7):
    assert not is_quasi_commutative(weyl7)
    assert is_quasi_commutative(build("polynomial-ring", p=7, n=3))
    assert is_quasi_commutative(qplane7)


def test_normalize_idempotent(weyl7, qplane7):
    rng = random.Random(5)
    for P in (weyl7, qplane7):
        for _ in range(100):
            word = random_word(P, rng)
            f = P.from_word(word)
            redo = P.normalize_terms(
                [[("c", c)] + [("v", i) for i, e in enumerate(m) for _ in range(e)]
                 for m, c in f.terms.items()]
            )
            assert redo == f


def test_oracle_equivalence_sample(weyl7, qplane7):
    rng = random.Random(11)
    for P in (weyl7, qplane7):
        for _ in range(50):
            word = random_word(P, rng)
            assert P.from_word(word).terms == naive_normalize(P, word)


def test_multiply_associative_and_linear():
    rng = random.Random(13)
    for name in catalog_names():
        P = build(name, p=7)
        for _ in range(25):
            f = P.random_poly(rng, 2)
            g = P.random_poly(rng, 2)
            h = P.random_poly(rng, 2)
            assert (f * g) * h == f * (g * h)
            r = P.ring.random_element(rng)
            assert f.scale_left(r) * g == (f * g).scale_left(r)


def test_degree_subadditive_and_exact():
    rng = random.Random(17)
    for name in catalog_names():
        P = build(name, p=7)
        for _ in range(40):
            f = P.random_poly(rng, 3, nonzero=True)
            g = P.random_poly(rng, 3, nonzero=True)
            prod = f * g
            assert prod.degree() <= f.degree() + g.degree()
            if P.ring.is_domain and P.bijective:
                assert prod.degree() == f.degree() + g.degree()


def test_validate_weyl_passes(weyl7):
    rep = validate_presentation(weyl7)
    assert rep.ok


def test_report_does_not_depend_on_seed_or_samples(monkeypatch):
    import random as random_module

    from skewpbw.parsing import parse_presentation

    def no_randomness(*_):
        raise AssertionError("validation drew a random number")

    monkeypatch.setattr(random_module, "Random", no_randomness)
    near_miss = parse_presentation("ring quot Fp 3 x^2\nvars y z\ndelta y x -> 1\nc z y = 2\n")
    for P in (build("manin", p=7), build("usl2", rationals=True), near_miss):
        base = validate_presentation(P).as_dict()
        for samples, seed in ((0, 0), (5000, 12345)):
            rep = validate_presentation(P, samples=samples, seed=seed).as_dict()
            assert rep["seed"] == seed
            assert {**rep, "seed": None} == {**base, "seed": None}


def test_validate_flags_broken_triple():
    # perturb the e-h rewrite of the sl2 presentation: he = eh + 2f is inconsistent
    field = PrimeField(7)
    base = build("usl2", p=7)
    lower = dict(base.lower)
    lower[(0, 2)] = (field.zero, (field.zero, field.from_int(2), field.zero))
    broken = Presentation(field, base.names, base.sigma, base.delta, base.c, lower)
    rep = validate_presentation(broken)
    assert not rep.ok
    bad = [c for c in rep.checks if not c.passed]
    assert any("(h*f)*e" in c.name for c in bad)
    flagged = next(c for c in bad if "(h*f)*e" in c.name)
    assert "left=" in flagged.detail and "right=" in flagged.detail


def test_zero_divisor_probe(weyl7):
    rep = zero_divisor_probe(weyl7, 200, 3)
    assert rep.ok and rep.trials == 200
    qp5 = build("quantum-plane", p=5, q=2)
    assert zero_divisor_probe(qp5, 100, 3).ok
    assert zero_divisor_probe(weyl7, 0, 3).ok  # degenerate request


def test_zero_divisor_probe_needs_domain():
    from skewpbw.parsing import parse_presentation

    text = "ring quot Fp 2 x^2\nvars u\n"
    P = parse_presentation(text)
    with pytest.raises(SemanticError):
        zero_divisor_probe(P, 10, 2)


def test_mixed_coefficient_words():
    # K[t][x; d/dt] written as a one-variable presentation over Q[t]
    from skewpbw.parsing import parse_presentation

    P = parse_presentation("ring poly Q t\nvars x\ndelta x t -> 1\n")
    t_payload = P.ring.generator
    got = P.from_word([("v", 0), ("c", t_payload)])  # x * t
    assert got.terms == {(1,): t_payload, (0,): P.ring.one}
    rng = random.Random(23)
    for _ in range(60):
        word = random_word(P, rng, max_len=6)
        assert P.from_word(word).terms == naive_normalize(P, word)


RIGHT_PRODUCT_ALGEBRAS = [(name, {}) for name in catalog_names()] + [
    ("weyl", {"n": 2}), ("q-heisenberg", {"n": 2}), ("multiplicative-analogue", {"n": 3}),
]


@pytest.mark.parametrize("rationals", [False, True], ids=["F7", "Q"])
@pytest.mark.parametrize("name, params", RIGHT_PRODUCT_ALGEBRAS,
                         ids=[f"{n}{p.get('n', '')}" for n, p in RIGHT_PRODUCT_ALGEBRAS])
def test_right_variable_product_matches_full_product(name, params, rationals):
    P = build(name, rationals=True, **params) if rationals else build(name, p=7, **params)
    rng = random.Random(29)
    for _ in range(12):
        f = P.random_poly(rng, 3)
        for j in range(P.n):
            assert P._rmul_var_dict(f.terms, j) == (f * P.var(j)).terms
    f = P.random_poly(rng, 2)
    for j in range(P.n):  # and against the one-rule rewriter, word by word
        want = P.zero()
        for m, c in f.terms.items():
            word = [("c", c)] + [("v", i) for i, e in enumerate(m) for _ in range(e)] + [("v", j)]
            want = want + SkewPoly(P, naive_normalize(P, word))
        assert P._rmul_var_dict(f.terms, j) == want.terms


def _weyl_closed_form(R, a, b):
    """x^a t^b = sum_k k! C(a,k) C(b,k) t^(b-k) x^(a-k) in A_1, variables ordered (t, x)."""
    out = {}
    for k in range(min(a, b) + 1):
        c = R.from_int(factorial(k) * comb(a, k) * comb(b, k))
        if c != R.zero:
            out[(b - k, a - k)] = c
    return out


CLOSED_FORM_GRID = [(a, b) for a in (0, 1, 2, 3, 7, 12, 25, 40) for b in (0, 1, 2, 5, 9, 17, 40)]


@pytest.mark.parametrize("kw, grid", [
    ({"p": 7}, [(a, b) for a in range(41) for b in range(41)]),
    ({"p": 101}, CLOSED_FORM_GRID),
    ({"rationals": True}, CLOSED_FORM_GRID),
], ids=["F7-all", "F101", "Q"])
def test_weyl_closed_form(kw, grid):
    P = build("weyl", **kw)
    assert P.names == ("t", "x")
    for a, b in grid:
        want = _weyl_closed_form(P.ring, a, b)
        assert (P.monomial((0, a)) * P.monomial((b, 0))).terms == want, (a, b)
        right = P.monomial((0, a)).terms
        for _ in range(b):
            right = P._rmul_var_dict(right, 0)
        assert right == want, (a, b)


@pytest.mark.parametrize("kw", [{"p": 7}, {"p": 101}, {"rationals": True}], ids=["F7", "F101", "Q"])
def test_quantum_plane_closed_form(kw):
    # y^a x^b = q^(ab) x^b y^a, variables ordered (x, y)
    q = 3
    P = build("quantum-plane", q=q, **kw)
    assert P.names == ("x", "y")
    for a in range(41):
        for b in range(41):
            want = {(b, a): P.ring.from_int(q ** (a * b))}
            assert (P.monomial((0, a)) * P.monomial((b, 0))).terms == want, (a, b)
        right = P.monomial((0, a)).terms
        for b in range(41):
            assert right == {(b, a): P.ring.from_int(q ** (a * b))}, (a, b)
            right = P._rmul_var_dict(right, 0)


def _stepwise(P, alpha, terms):
    """x^alpha * terms one variable at a time, as products were formed before power steps."""
    for i in range(P.n - 1, -1, -1):
        for _ in range(alpha[i]):
            terms = P._lmul_var_dict(i, terms)
    return terms


def _stepwise_product(P, f, g):
    out = P.zero()
    for alpha, c in f.terms.items():
        out = out + SkewPoly(P, _stepwise(P, alpha, g.terms)).scale_left(c)
    return out


# Two-variable presentations for pair shapes no catalog algebra has: a lower
# term B x_i in the larger variable (y x = x y + 3y = (x + 3) y) and a Weyl
# pair with a constant other than 1, which have closed forms, and two mixed
# lower parts, which have none; plus a lower term A x_j in the smaller variable.
HAND_WRITTEN_RELS = ["x y + 3*y", "x y + 5", "x y + 3*y + 2", "x y + 3*x + 2", "x y + 3*x"]
POWER_ALGEBRAS = RIGHT_PRODUCT_ALGEBRAS + [("rel", {"rhs": rhs}) for rhs in HAND_WRITTEN_RELS]


def _power_algebra(name, params, rationals):
    if name == "rel":
        ring = "Q" if rationals else "Fp 7"
        return parse_presentation(f"ring {ring}\nvars x y\nrel y x = {params['rhs']}\n")
    return build(name, rationals=True, **params) if rationals else build(name, p=7, **params)


@pytest.mark.parametrize("rationals", [False, True], ids=["F7", "Q"])
@pytest.mark.parametrize("name, params", POWER_ALGEBRAS,
                         ids=[f"{n}{p.get('n', '')}" if n != "rel" else f"rel[{p['rhs']}]"
                              for n, p in POWER_ALGEBRAS])
def test_power_step_matches_single_steps(name, params, rationals):
    P = _power_algebra(name, params, rationals)
    unit = lambda k, e: tuple(e if v == k else 0 for v in range(P.n))  # noqa: E731
    for j in range(P.n):
        for i in range(j):
            for a in range(13):
                for b in range(13):
                    got = (P.monomial(unit(j, a)) * P.monomial(unit(i, b))).terms
                    want = {unit(i, b): P.ring.one}
                    for _ in range(a):
                        want = P._lmul_var_dict(j, want)
                    assert got == want, (P.names[j], a, P.names[i], b)
                    if a <= 4 and b <= 4 and a + b <= 6:  # the rewriter is exponential in a + b
                        word = [("v", j)] * a + [("v", i)] * b
                        assert got == naive_normalize(P, word), (P.names[j], a, P.names[i], b)
    rng = random.Random(31)
    for _ in range(12):
        f, g = P.random_poly(rng, 3), P.random_poly(rng, 3)
        assert f * g == _stepwise_product(P, f, g)


@pytest.mark.parametrize("p", [7, 101])
def test_closed_forms_at_degree_2000(p):
    a = 2000
    P = build("weyl", p=p)
    want = {}
    for k in range(a + 1):
        c = factorial(k) * comb(a, k) ** 2 % p
        if c:
            want[(a - k, a - k)] = c
    start = time.perf_counter()
    got = P.monomial((0, a)) * P.monomial((a, 0))
    assert time.perf_counter() - start < 1.0
    assert got.terms == want and len(P._mono_cache) < 4

    q = 3
    P = build("quantum-plane", p=p, q=q)
    start = time.perf_counter()
    got = P.monomial((0, a)) * P.monomial((a, 0))
    assert time.perf_counter() - start < 1.0
    assert got.terms == {(a, a): pow(q, a * a, p)} and len(P._mono_cache) < 4


def test_var_rejects_unknown_names_and_indices(weyl7):
    assert weyl7.var(1) == weyl7.var("x")
    for bad in (5, -1, 2, "zz"):
        with pytest.raises(SemanticError):
            weyl7.var(bad)
