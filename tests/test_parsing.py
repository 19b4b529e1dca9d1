import pytest

from skewpbw.catalog import build, catalog_names, parse_presentation_file, serialize
from skewpbw.errors import ParseError, SemanticError
from skewpbw.parsing import (
    MAX_SCALAR_DEGREE,
    degree_bound,
    eval_expr,
    parse_expr_tree,
    parse_presentation,
    parse_scalar,
)
from skewpbw.rings import PolynomialRing, PrimeField, QuotientRing, Rationals

WEYL_FILE = """
# one-variable commutation over F_7
ring Fp 7
vars t x
c x t = 1
rel x t = 1 * t x + 1
bijective true
"""


def test_parse_weyl_file():
    P = parse_presentation(WEYL_FILE)
    assert P == build("weyl", p=7)


def test_rel_rejects_zero_constant():
    text = "ring Fp 7\nvars x1 x2\nrel x2 x1 = 0 * x1 x2 + 1\n"
    with pytest.raises(SemanticError, match="nonzero"):
        parse_presentation(text)


def test_rel_rejects_quadratic_lower_terms():
    text = "ring Fp 7\nvars x1 x2 x3\nrel x3 x1 = 1 * x1 x3 + x3 x3\n"
    with pytest.raises(SemanticError, match="degree >= 2"):
        parse_presentation(text)


def test_conflicting_c_and_rel():
    text = "ring Fp 7\nvars t x\nc x t = 2\nrel x t = 1 * t x + 1\n"
    with pytest.raises(SemanticError, match="conflicting"):
        parse_presentation(text)


def test_in_order_relation_rejected():
    text = "ring Fp 7\nvars t x\nrel t x = 1 * t x\n"
    with pytest.raises(SemanticError, match="out-of-order"):
        parse_presentation(text)


def test_residue_coefficients_rejected():
    with pytest.raises(SemanticError, match="residue"):
        parse_presentation("ring Zmod 12\nvars x\n")


def test_bijective_mode_needs_unit_constants():
    text = "ring poly Fp 5 t\nvars u v\nrel v u = t * u v\nbijective true\n"
    with pytest.raises(SemanticError, match="unit"):
        parse_presentation(text)
    # same relation without the flag is fine: t is nonzero in a domain
    assert not parse_presentation(text.replace("bijective true", "bijective false")).bijective


def test_roundtrip_catalog():
    for name in catalog_names():
        P = build(name, p=7)
        assert parse_presentation_file(serialize(P)) == P
    Pq = build("weyl", rationals=True)
    assert parse_presentation_file(serialize(Pq)) == Pq


def test_roundtrip_with_delta_over_polyring():
    text = "ring poly Q t\nvars x\nsigma x t -> t\ndelta x t -> 1\nbijective true\n"
    P = parse_presentation(text)
    assert parse_presentation_file(serialize(P)) == P


def test_expression_grammar():
    P = build("weyl", p=7)
    t, x = P.var("t"), P.var("x")
    assert eval_expr("x*x*t - 3*t", P) == (x * x) * t - t.scale_left(3)
    assert eval_expr("x x t - 3 t", P) == eval_expr("x*x*t - 3*t", P)  # juxtaposition
    assert eval_expr("(t + x)^2", P) == (t + x) * (t + x)
    assert eval_expr("-t", P) == -t


def test_expression_division():
    P = build("weyl", rationals=True)
    t = P.var("t")
    half_t = eval_expr("t/2", P)
    assert half_t + half_t == t
    with pytest.raises(SemanticError):
        eval_expr("t/x", P)


def test_parse_errors_carry_position():
    P = build("weyl", p=7)
    with pytest.raises(ParseError) as err:
        eval_expr("x*(t", P)
    assert err.value.col == 5
    with pytest.raises(ParseError):
        eval_expr("x $ t", P)
    with pytest.raises(SemanticError, match="unknown name"):
        eval_expr("x*z", P)


def test_scalar_parsing():
    F5t = PolynomialRing(PrimeField(5), "t")
    assert parse_scalar("t^2 + 3*t + 1", F5t) == (1, 3, 1)
    assert parse_scalar("-1/2", Rationals()) == Rationals().from_int(-1) / 2
    with pytest.raises(SemanticError):
        parse_scalar("u + 1", F5t)


def test_scalar_powers_match_repeated_products():
    rings = [PrimeField(7), Rationals(), PolynomialRing(PrimeField(5), "t"),
             QuotientRing(2, (1, 1, 0, 1), "t"), QuotientRing(3, (0, 0, 1), "t")]
    for R in rings:
        base = parse_scalar("2*t + 1" if hasattr(R, "gen_name") else "3/2", R)
        power = R.one
        for k in range(12):
            assert parse_scalar(f"({R.format(base)})^{k}", R) == power, (R, k)
            power = R.mul(power, base)


def test_huge_scalar_powers():
    F2x3 = QuotientRing(2, (0, 0, 0, 1), "x")  # F_2[x]/(x^3)
    assert parse_scalar("x^99999999", F2x3) == F2x3.zero
    assert parse_scalar("(x + 1)^99999999", F2x3) == parse_scalar("(x + 1)^7", F2x3)
    assert parse_scalar("3^99999999", PrimeField(7)) == pow(3, 99999999, 7)
    F5t = PolynomialRing(PrimeField(5), "t")
    assert parse_scalar(f"t^{MAX_SCALAR_DEGREE}", F5t)[-1] == 1
    with pytest.raises(ParseError, match="degree up to 99999999"):
        parse_scalar("t^99999999 - t^99999999", F5t)


def test_degree_bound():
    cases = {"7": 0, "t": 1, "-t^3 + 1": 3, "(t + 1)*(t^2 - t)/2": 3, "(t^2 + t)^5": 10,
             "t^4 - t^4": 4}
    for text, want in cases.items():
        assert degree_bound(parse_expr_tree(text)) == want, text


def test_default_pairs_commute():
    text = "ring Fp 5\nvars a b c\nrel b a = 2 * a b\n"
    P = parse_presentation(text)
    cb, ca = P.var("c") * P.var("b"), P.var("c") * P.var("a")
    assert cb.terms == {(0, 1, 1): 1}
    assert ca.terms == {(1, 0, 1): 1}
    assert (P.var("b") * P.var("a")).terms == {(1, 1, 0): 2}


def test_quotient_coefficient_ring_file():
    text = "ring quot Fp 2 x^3+x+1\nvars u v\nrel v u = 1 * u v + x\n"
    P = parse_presentation(text)
    assert P.ring.size == 8 and P.ring.is_field  # x^3+x+1 is irreducible over F_2
    assert parse_presentation_file(serialize(P)) == P


@pytest.mark.parametrize("name, p", [("weyl", 7), ("usl2", 7), ("quantum-plane", 7), ("weyl", None),
                                     ("manin", 11)])
def test_expression_powers_match_repeated_products(name, p):
    P = build(name, p=p, rationals=p is None)
    base = "(" + " + ".join(P.names) + " + 1)"
    for k in range(6):
        product = "*".join([base] * k) if k else "1"
        assert eval_expr(f"{base}^{k}", P) == eval_expr(product, P), (name, k)


def test_huge_expression_powers_refused():
    P = build("weyl", p=7)
    with pytest.raises(ParseError, match="degree up to 99999999"):
        eval_expr("x^99999999", P)
    with pytest.raises(ParseError, match="degree up to 200000"):
        eval_expr("(x*t)^100000", P)


def test_relation_powers_expand_by_word():
    head = "ring Fp 7\nvars x y\nrel y x = "
    assert parse_presentation(head + "x y + (1+1)^40\n") == parse_presentation(head + f"x y + {2**40 % 7}\n")
    assert parse_presentation(head + "(x + 1)*(y + 1) - x - y - 1\n") == parse_presentation(head + "x y\n")
    poly = "ring poly Fp 5 t\nvars x y\nrel y x = "
    assert (parse_presentation(poly + "x y + (t + 1)^3 * x\n")
            == parse_presentation(poly + "x y + (t^3 + 3*t^2 + 3*t + 1) * x\n"))
    with pytest.raises(SemanticError, match=r"got y\*y"):  # its coefficients sum to zero
        parse_presentation(head + "x y + (y - y)^2\n")
    with pytest.raises(SemanticError, match="has degree 40"):  # refused before 2^40 words
        parse_presentation(head + "x y + (x + y)^40\n")
    with pytest.raises(ParseError, match="degree up to 99999999"):
        parse_presentation(poly + "x y + t^99999999\n")
