import itertools
import random
from fractions import Fraction

import pytest
from oracles import fp_free_columns, fp_solutions, pgcd, ptrim

from skewpbw.catalog import build, catalog_names
from skewpbw.errors import DimensionMismatch, UnsupportedCoefficientRing
from skewpbw.matrices import (
    PolyMatrix,
    UnimodularCertificate,
    _chain_products,
    elementary_matrix,
    find_left_inverse_column,
    find_right_inverse_row,
    mat_multiply,
    random_invertible,
    search_stable_reduction,
    solve_linear,
    stable_reduce_check,
    verify_completion,
    verify_completion_rect,
    verify_inverse,
)
from skewpbw.pbw import SkewPoly, monomials_up_to
from skewpbw.rings import PrimeField, Rationals


@pytest.fixture(scope="module")
def A1():
    return build("weyl", p=7)


@pytest.fixture(scope="module")
def F5x():
    return build("polynomial-ring", p=5, n=1)


def _poly(P, coeffs):
    """Univariate helper: coeffs ascending."""
    return SkewPoly(P, {(k,): c % P.ring.p for k, c in enumerate(coeffs) if c % P.ring.p})


def test_identity_neutral(A1):
    rng = random.Random(2)
    M = PolyMatrix(A1, [[A1.random_poly(rng, 2) for _ in range(3)] for _ in range(2)])
    assert mat_multiply(M, PolyMatrix.identity(A1, 3)) == M
    assert mat_multiply(PolyMatrix.identity(A1, 2), M) == M


def test_dimension_mismatch(A1):
    M = PolyMatrix.identity(A1, 2)
    N = PolyMatrix.identity(A1, 3)
    with pytest.raises(DimensionMismatch):
        mat_multiply(M, N)


def test_row_column_product_weyl(A1):
    t, x = A1.var("t"), A1.var("x")
    prod = mat_multiply(PolyMatrix.row([t, x]), PolyMatrix.column([-x, t]))
    assert prod.entries[0][0] == A1.one()  # t(-x) + x t = 1
    wrong = mat_multiply(PolyMatrix.row([t, x]), PolyMatrix.column([x, -t]))
    assert wrong.entries[0][0] == -A1.one()


def test_commutative_dot_product(F5x):
    a, b = _poly(F5x, [1, 2]), _poly(F5x, [3, 0, 1])
    lhs = mat_multiply(PolyMatrix.row([a, b]), PolyMatrix.column([b, a])).entries[0][0]
    assert lhs == a * b + b * a == (a * b).scale_left(2)


def test_verify_inverse(A1):
    t, x = A1.var("t"), A1.var("x")
    ident = PolyMatrix.identity(A1, 2)
    assert verify_inverse(ident, ident, "right")
    assert verify_inverse(PolyMatrix.row([t, x]), PolyMatrix.column([-x, t]), "right")
    assert not verify_inverse(PolyMatrix.row([t, x]), PolyMatrix.column([x, -t]), "right")


def test_find_right_inverse_trivial(A1):
    one, zero = A1.one(), A1.zero()
    w = find_right_inverse_row([one, zero], 0)
    assert [str(b) for b in w] == ["1", "0"]


def test_find_right_inverse_weyl101():
    P = build("weyl", p=101)
    t, x = P.var("t"), P.var("x")
    w = find_right_inverse_row([t, x], 1)
    assert w is not None
    assert UnimodularCertificate((t, x), tuple(w), "right").verify()
    assert w[0] == -x and w[1] == t


def test_find_right_inverse_commutative(F5x):
    xx = F5x.var("x")
    w = find_right_inverse_row([xx, xx + F5x.one()], 0)
    assert [str(b) for b in w] == ["4", "1"]  # (x+1) - x = 1
    assert find_right_inverse_row([xx, xx], 3) is None  # both in <x>


def test_left_inverse_column(A1):
    t, x = A1.var("t"), A1.var("x")
    w = find_left_inverse_column([t, x], 1)
    assert w is not None
    assert UnimodularCertificate((t, x), tuple(w), "left").verify()


def test_solver_requires_field_coefficients():
    manin = build("manin", p=7)
    with pytest.raises(UnsupportedCoefficientRing):
        find_right_inverse_row([manin.var("a")], 1)


def test_solver_matches_gcd_criterion_small():
    # degree <= 2 here; the acceptance suite raises this to degree <= 3
    P = build("polynomial-ring", p=3, n=1)
    polys = [[c0, c1, c2] for c0 in range(3) for c1 in range(3) for c2 in range(3)]
    for a, b in itertools.product(polys, repeat=2):
        fa, fb = _poly(P, a), _poly(P, b)
        bound = len(ptrim(a)) + len(ptrim(b))
        witness = find_right_inverse_row([fa, fb], bound)
        coprime = pgcd(a, b, 3) == [1]
        assert (witness is not None) == coprime, (a, b)
        if witness is not None:
            assert UnimodularCertificate((fa, fb), tuple(witness), "right").verify()


def test_stable_reduce_examples(A1, F5x):
    t, x = A1.var("t"), A1.var("x")
    w = A1.random_poly(random.Random(3), 2)
    assert stable_reduce_check([A1.one(), A1.zero(), w], [A1.zero(), A1.zero()], 0)
    assert stable_reduce_check([t, x, A1.one()], [A1.one() - t, -x], 0)
    xx = F5x.var("x")
    assert not stable_reduce_check([xx, xx], [F5x.one()], 2)
    assert search_stable_reduction([xx, xx], 1, 2) is None


def test_search_stable_reduction(F5x):
    xx, one = F5x.var("x"), F5x.one()
    found = search_stable_reduction([xx * xx, xx + one, xx], 1, 4)
    assert found == (F5x.zero(), F5x.zero())  # gcd(x^2, x+1) is already 1
    # front pair not coprime: x^2 and x(x+1) share x, so a nonzero shift is needed
    hard = search_stable_reduction([xx * xx, xx * (xx + one), one + xx * xx], 1, 6)
    assert hard is not None
    assert stable_reduce_check([xx * xx, xx * (xx + one), one + xx * xx], hard, 6)


def test_verify_completion(A1, F5x):
    ident = PolyMatrix.identity(F5x, 3)
    e1 = [F5x.one(), F5x.zero(), F5x.zero()]
    assert verify_completion(e1, ident, ident)
    U, Uinv = random_invertible(F5x, 3, 5, 2, seed=4)
    assert verify_completion(list(U.entries[0]), Uinv, U)
    # wrong inverse is rejected
    bad = elementary_matrix(F5x, 3, 1, 2, F5x.one())
    assert not verify_completion(list(U.entries[0]), Uinv, bad)


def test_verify_completion_rect(F5x):
    U, Uinv = random_invertible(F5x, 3, 5, 2, seed=6)
    F = PolyMatrix(F5x, [list(Uinv.entries[0]), list(Uinv.entries[1])])
    assert verify_completion_rect(F, U, Uinv)


def test_elementary(A1):
    s = A1.var("t") * A1.var("x")
    E = elementary_matrix(A1, 2, 1, 2, s)
    Einv = elementary_matrix(A1, 2, 1, 2, -s)
    assert mat_multiply(E, Einv) == PolyMatrix.identity(A1, 2)
    assert elementary_matrix(A1, 3, 2, 3, A1.zero()) == PolyMatrix.identity(A1, 3)
    with pytest.raises(ValueError):
        elementary_matrix(A1, 2, 1, 1, s)


def test_random_invertible_exact(F5x):
    U, Uinv = random_invertible(F5x, 3, 6, 2, seed=1)
    ident = PolyMatrix.identity(F5x, 3)
    assert mat_multiply(U, Uinv) == ident and mat_multiply(Uinv, U) == ident


def test_first_row_witness_is_first_column(F5x):
    for seed in range(10):
        U, Uinv = random_invertible(F5x, 3, 6, 2, seed=seed)
        row = list(U.entries[0])
        col = [Uinv.entries[i][0] for i in range(3)]
        assert UnimodularCertificate(tuple(row), tuple(col), "right").verify()


def test_order_sensitivity(A1):
    t, x = A1.var("t"), A1.var("x")
    noncomm = mat_multiply(PolyMatrix.row([t, x]), PolyMatrix.column([x, -t])).entries[0][0]
    reordered = mat_multiply(PolyMatrix.row([x, t]), PolyMatrix.column([t, -x])).entries[0][0]
    assert noncomm != reordered


def test_solver_soundness_random(A1):
    rng = random.Random(8)
    hits = 0
    for _ in range(30):
        u = [A1.random_poly(rng, 1) for _ in range(2)]
        w = find_right_inverse_row(u, 2)
        if w is not None:
            hits += 1
            assert UnimodularCertificate(tuple(u), tuple(w), "right").verify()
    assert hits > 0


def _shuffled_with_zero_row(rng, rows, rhs, zero):
    order = list(range(len(rows))) + [None]
    rng.shuffle(order)
    width = len(rows[0])
    return ([rows[i] if i is not None else [zero] * width for i in order],
            [rhs[i] if i is not None else zero for i in order])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_linear_matches_enumeration_oracle(p):
    """None exactly when unsolvable, else the one solution that is zero on free columns."""
    rng = random.Random(p)
    field = PrimeField(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.5:
            y0 = [rng.randrange(p) for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, y0)) % p for row in rows]
        else:
            rhs = [rng.randrange(p) for _ in range(nrows)]
        solutions = fp_solutions(rows, rhs, p)
        want = None
        if solutions:
            free = fp_free_columns(rows, p)
            canonical = [y for y in solutions if all(y[c] == 0 for c in free)]
            assert len(canonical) == 1
            want = canonical[0]
        assert solve_linear(field, rows, rhs) == want, (rows, rhs)
        # row order and all-zero rows do not matter
        assert solve_linear(field, *_shuffled_with_zero_row(rng, rows, rhs, 0)) == want


def test_solve_linear_over_q_rank_deficient_and_inconsistent():
    F = Fraction
    # column 1 = 2 * column 0 and column 3 = column 0 - column 2, so both are free
    rows = [[F(1), F(2), F(0), F(1)],
            [F(1, 2), F(1), F(3), F(-5, 2)],
            [F(0), F(0), F(1), F(-1)],
            [F(2), F(4), F(-1), F(3)]]
    y = [F(1, 3), F(0), F(-7), F(0)]
    rhs = [sum(a * b for a, b in zip(row, y)) for row in rows]
    # (1, 0, 0, 0) is not a combination of columns 0 and 2
    bad = [rhs[0] + 1] + rhs[1:]
    rng = random.Random(5)
    for _ in range(20):
        assert solve_linear(Rationals(), rows, rhs) == y
        assert solve_linear(Rationals(), rows, bad) is None
        shuffled = _shuffled_with_zero_row(rng, rows, rhs, F(0))
        assert solve_linear(Rationals(), *shuffled) == y
        # invertible row operations, row_i = d * row_i + c * row_j, keep both answers
        i, j = rng.sample(range(len(rows)), 2)
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        d = F(rng.choice((-3, -2, 2, 3)), rng.randint(1, 5))
        rows = [r if k != i else [d * a + c * b for a, b in zip(r, rows[j])]
                for k, r in enumerate(rows)]
        rhs, bad = ([v if k != i else d * v + c * vec[j] for k, v in enumerate(vec)]
                    for vec in (rhs, bad))


@pytest.mark.parametrize("rationals", [False, True], ids=["F7", "Q"])
@pytest.mark.parametrize("name", catalog_names())
def test_chain_products_match_full_products(name, rationals):
    P = build(name, rationals=True) if rationals else build(name, p=7)
    basis = monomials_up_to(P.n, 3)
    rng = random.Random(31)
    for _ in range(4):
        u = P.random_poly(rng, 2)
        assert _chain_products(P, basis, u.terms, "right") == [
            (u * P.monomial(b)).terms for b in basis]
        assert _chain_products(P, basis, u.terms, "left") == [
            (P.monomial(b) * u).terms for b in basis]
