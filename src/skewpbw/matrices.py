"""Matrices over a skew polynomial presentation.

Entry products are noncommutative, so multiplication keeps the declared order:
(FG)[i][k] = sum_j F[i][j] * G[j][k].  Witness searches reduce to exact linear
algebra over the base field: the unknown coefficients of a candidate inverse
enter the product linearly once each basis product u_i * x^beta (or
x^beta * u_i) is normalized, and the resulting system is solved by
Gauss-Jordan elimination with field inverses, on ints mod p over F_p and on
Fractions over Q.

Both one-sided searches build their products along the graded basis as a
chain, each one variable step from an earlier product: x^beta u =
x_i (x^(beta - e_i) u) with x_i the first variable of x^beta, and
u x^beta = (u x^(beta - e_j)) x_j with x_j its last variable.
The stable-reduction search normalizes the products it needs once per search
and builds every candidate's system from them by scalar combinations.

A failed search means "no witness within the degree bound", never "the input
is not unimodular"; nothing here bounds witness degrees a priori.

Candidate scans run in a fixed canonical order (degree stages, then the
enumeration order of the coefficient field), so a sharded scan must reduce to
the canonically first hit to match the sequential result.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import DimensionMismatch, PreconditionFailed, UnsupportedCoefficientRing
from .pbw import Presentation, SkewPoly, bump, monomials_up_to
from .rings import PrimeField, Rationals


class PolyMatrix:
    """Immutable rectangular matrix of normal-form entries."""

    __slots__ = ("pres", "rows", "cols", "entries")

    def __init__(self, pres: Presentation, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("matrix dimensions must be positive")
        if any(len(row) != len(entries[0]) for row in entries):
            raise DimensionMismatch("ragged rows")
        for row in entries:
            for e in row:
                if not isinstance(e, SkewPoly) or e.pres != pres:
                    raise DimensionMismatch("entries must be SkewPoly over the same presentation")
        self.pres = pres
        self.rows = len(entries)
        self.cols = len(entries[0])
        self.entries = entries

    @classmethod
    def identity(cls, pres: Presentation, r: int) -> "PolyMatrix":
        return cls(
            pres,
            [[pres.one() if i == j else pres.zero() for j in range(r)] for i in range(r)],
        )

    @classmethod
    def row(cls, entries) -> "PolyMatrix":
        entries = list(entries)
        return cls(entries[0].pres, [entries])

    @classmethod
    def column(cls, entries) -> "PolyMatrix":
        entries = list(entries)
        return cls(entries[0].pres, [[e] for e in entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.pres == other.pres and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return mat_multiply(self, other)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"<{self.rows}x{self.cols} matrix over {self.pres!r}>"


def mat_multiply(F: PolyMatrix, G: PolyMatrix) -> PolyMatrix:
    if F.pres != G.pres:
        raise DimensionMismatch("matrices live over different presentations")
    if F.cols != G.rows:
        raise DimensionMismatch(f"cannot multiply {F.rows}x{F.cols} by {G.rows}x{G.cols}")
    P = F.pres
    out = []
    for i in range(F.rows):
        row = []
        for k in range(G.cols):
            acc = P.zero()
            for j in range(F.cols):
                acc = acc + F.entries[i][j] * G.entries[j][k]
            row.append(acc)
        out.append(row)
    return PolyMatrix(P, out)


def verify_inverse(F: PolyMatrix, G: PolyMatrix, side: str = "right") -> bool:
    """FG = I (right) or GF = I (left), by exact normal-form equality."""
    if side not in {"right", "left"}:
        raise ValueError("side must be 'right' or 'left'")
    prod = mat_multiply(F, G) if side == "right" else mat_multiply(G, F)
    if prod.rows != prod.cols:
        return False
    return prod == PolyMatrix.identity(prod.pres, prod.rows)


@dataclass(frozen=True)
class UnimodularCertificate:
    vector: tuple
    witness: tuple
    side: str

    def verify(self) -> bool:
        if self.side == "right":
            return verify_inverse(
                PolyMatrix.row(self.vector), PolyMatrix.column(self.witness), "right"
            )
        return verify_inverse(
            PolyMatrix.column(self.vector), PolyMatrix.row(self.witness), "left"
        )


def _solver_field(pres: Presentation):
    R = pres.ring
    if not isinstance(R, (PrimeField, Rationals)):
        raise UnsupportedCoefficientRing(
            "witness search solves a linear system over the base field; "
            f"{R.describe()} coefficients are not supported"
        )
    return R


def solve_linear(field, rows: list[list], rhs: list):
    """One exact solution of rows * y = rhs over a field, or None.

    Gauss-Jordan elimination: columns are taken left to right, each pivots on
    the first remaining row where it is nonzero, and free variables are set
    to zero, so the output is canonical.  Over F_p the entries are ints
    reduced by `% p`; over Q they are Fractions.
    """
    p = None if isinstance(field, Rationals) else field.p
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows, ncols = len(m), (len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        # rows from r on are zero left of column c, so only the tail changes
        lead = m[r][c]
        if p is None:
            piv = [v / lead for v in m[r][c:]]
        else:
            inv = pow(lead, -1, p)
            piv = [v * inv % p for v in m[r][c:]]
        m[r][c:] = piv
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                row = m[i]
                if p is None:
                    row[c:] = [a - f * b for a, b in zip(row[c:], piv)]
                else:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], piv)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols]:
            return None
    y = [field.zero] * ncols
    for i, c in enumerate(pivots):
        y[c] = m[i][ncols]
    return y


def _chain_products(P: Presentation, basis, terms: dict, side: str) -> list[dict]:
    """x^beta * f (side "left") or f * x^beta ("right") for each beta of a graded basis.

    x^beta = x_i x^(beta - e_i) for the first variable x_i of x^beta, and
    x^beta = x^(beta - e_j) x_j for its last variable x_j.  A graded basis
    lists beta - e_i and beta - e_j before beta, so each product is one
    variable step from an earlier one: x^beta f = x_i (x^(beta - e_i) f) and
    f x^beta = (f x^(beta - e_j)) x_j.
    """
    done = {}
    for beta in basis:
        used = [k for k, e in enumerate(beta) if e]
        if not used:
            done[beta] = terms
        elif side == "left":
            i = used[0]
            done[beta] = P._lmul_var_dict(i, done[bump(beta, i, -1)])
        else:
            j = used[-1]
            done[beta] = P._rmul_var_dict(done[bump(beta, j, -1)], j)
    return [done[beta] for beta in basis]


def _witness_search(entries, degree_bound: int, side: str):
    """Common core of the one-sided inverse searches."""
    entries = list(entries)
    P = entries[0].pres
    field = _solver_field(P)
    basis = monomials_up_to(P.n, degree_bound)
    products = [f for u in entries for f in _chain_products(P, basis, u.terms, side)]
    support = sorted({m for f in products for m in f}, key=lambda m: (sum(m), m))
    target = (0,) * P.n
    if target not in support:
        support.append(target)
    rows = [[f.get(m, field.zero) for f in products] for m in support]
    rhs = [field.one if m == target else field.zero for m in support]
    y = solve_linear(field, rows, rhs)
    if y is None:
        return None
    nb = len(basis)
    out = []
    for i in range(len(entries)):
        terms = {}
        for k, beta in enumerate(basis):
            cv = y[i * nb + k]
            if cv != field.zero:
                terms[beta] = cv
        out.append(SkewPoly(P, terms))
    return tuple(out)


def find_right_inverse_row(row_entries, degree_bound: int):
    """Column b with sum_i u_i * b_i = 1, entries of degree <= bound, or None."""
    return _witness_search(row_entries, degree_bound, "right")


def find_left_inverse_column(col_entries, degree_bound: int):
    """Row b with sum_i b_i * v_i = 1, entries of degree <= bound, or None."""
    return _witness_search(col_entries, degree_bound, "left")


def stable_reduce_check(col_entries, shifts, degree_bound: int) -> bool:
    """Does v' = (v_1 + a_1 v_r, ..., v_{r-1} + a_{r-1} v_r) admit a left inverse?"""
    col_entries = list(col_entries)
    shifts = list(shifts)
    if len(col_entries) < 2:
        raise PreconditionFailed("need a column of length >= 2")
    if len(shifts) != len(col_entries) - 1:
        raise DimensionMismatch("need one shift per retained entry")
    last = col_entries[-1]
    shortened = [v + a * last for v, a in zip(col_entries[:-1], shifts)]
    return find_left_inverse_column(shortened, degree_bound) is not None


def iter_polys(P: Presentation, degree_bound: int):
    """Deterministic stream of all polynomials of degree <= bound.

    Finite fields enumerate every coefficient assignment; over Q a small
    integer coefficient pool stands in for exhaustion.
    """
    R = P.ring
    monos = monomials_up_to(P.n, degree_bound)
    if isinstance(R, PrimeField):
        pool = list(R.elements())
    elif isinstance(R, Rationals):
        pool = [R.from_int(k) for k in (0, 1, -1, 2, -2)]
    else:
        raise UnsupportedCoefficientRing("candidate enumeration needs field coefficients")
    width = len(pool)

    def poly_for(code):
        terms = {}
        for mono in monos:
            c = pool[code % width]
            code //= width
            if c != R.zero:
                terms[mono] = c
        return SkewPoly(P, terms)

    for code in range(width ** len(monos)):
        yield poly_for(code)


def search_stable_reduction(col_entries, a_degree_bound: int, witness_degree_bound: int):
    """First shift tuple (by degree stages, then enumeration order) that reduces v.

    A candidate (a_1, ..., a_{r-1}) reduces v when `stable_reduce_check`
    accepts it: the system that `find_left_inverse_column` solves for
    v' = (v_i + a_i v_r)_{i<r} is consistent.  Over the solver field (F_p or
    Q) every sigma is the identity and every delta zero (EndoSpec and
    DerivationSpec admit nothing else on a field), so scalars are central,
    and for a_i = sum_gamma s_gamma x^gamma

        x^beta (v_i + a_i v_r) = x^beta v_i + sum_gamma s_gamma x^beta (x^gamma v_r).

    The products x^beta v_i and x^beta (x^gamma v_r), for gamma up to the
    a-bound, are normalized once per search as dense vectors over one sorted
    support; each candidate's columns are scalar combinations of them.  The
    union support orders the rows differently from a single check and adds
    all-zero rows.  Neither changes whether the system is consistent, nor its
    solution with free variables zero, since the reduced row echelon form is
    unique; so the first reducing tuple is the one single checks would find.
    """
    col_entries = list(col_entries)
    P = col_entries[0].pres
    r = len(col_entries)
    if r < 2:
        raise PreconditionFailed("need a column of length >= 2")
    table = None
    for stage in range(a_degree_bound + 1):
        candidates = list(iter_polys(P, stage))
        if table is None:  # built once iter_polys has rejected non-field coefficients
            table = _ShiftedColumns(col_entries, a_degree_bound, witness_degree_bound)
        degrees = [s.degree() for s in candidates]
        blocks = {}
        for ks in itertools.product(range(len(candidates)), repeat=r - 1):
            if stage > 0 and all(degrees[k] < stage for k in ks):
                continue  # already tried at an earlier stage
            columns = []
            for i, k in enumerate(ks):
                if (i, k) not in blocks:
                    blocks[i, k] = table.shifted(i, candidates[k])
                columns += blocks[i, k]
            rows = list(zip(*columns)) or [()] * len(table.rhs)  # no columns, no witness
            if solve_linear(table.field, rows, table.rhs) is not None:
                return tuple(candidates[k] for k in ks)
    return None


class _ShiftedColumns:
    """The products of one stable-reduction search, normalized once.

    For v = (v_1, ..., v_r) it holds x^beta v_i (i < r) and x^beta (x^gamma v_r)
    as dense vectors over one sorted support that contains every product and
    the constant monomial, for beta up to the witness bound and gamma up to
    the a-bound; `rhs` is the constant monomial's indicator vector.
    """

    def __init__(self, col_entries, a_degree_bound: int, witness_degree_bound: int):
        *front, last = col_entries
        P = last.pres
        self.field = field = _solver_field(P)
        self.p = None if isinstance(field, Rationals) else field.p
        basis = monomials_up_to(P.n, witness_degree_bound)
        a_basis = monomials_up_to(P.n, a_degree_bound)
        fronts = [_chain_products(P, basis, v.terms, "left") for v in front]
        lasts = {gamma: _chain_products(P, basis, w, "left")
                 for gamma, w in zip(a_basis, _chain_products(P, a_basis, last.terms, "left"))}
        target = (0,) * P.n
        support = {target}.union(*itertools.chain(*fronts, *lasts.values()))
        support = sorted(support, key=lambda m: (sum(m), m))
        self.rhs = [field.one if m == target else field.zero for m in support]

        def dense(block):
            return [[f.get(m, field.zero) for m in support] for f in block]

        self.fronts = [dense(block) for block in fronts]
        self.lasts = {gamma: dense(block) for gamma, block in lasts.items()}

    def shifted(self, i: int, shift: SkewPoly) -> list[list]:
        """The columns x^beta (v_i + shift * v_r), beta over the witness basis."""
        cols = self.fronts[i]
        for gamma, s in shift.terms.items():
            cols = [[a + s * b for a, b in zip(col, other)]
                    for col, other in zip(cols, self.lasts[gamma])]
        if self.p is not None:
            cols = [[a % self.p for a in col] for col in cols]
        return cols


def verify_completion(u_entries, U: PolyMatrix, Uinv: PolyMatrix) -> bool:
    """U invertible with inverse Uinv, and u * U = (1, 0, ..., 0)."""
    u_entries = list(u_entries)
    P = U.pres
    r = U.rows
    if U.cols != r or Uinv.rows != r or Uinv.cols != r or len(u_entries) != r:
        raise DimensionMismatch("completion data must be square and match the row")
    ident = PolyMatrix.identity(P, r)
    if mat_multiply(U, Uinv) != ident or mat_multiply(Uinv, U) != ident:
        return False
    prod = mat_multiply(PolyMatrix.row(u_entries), U)
    want = [P.one()] + [P.zero()] * (r - 1)
    return list(prod.entries[0]) == want


def verify_completion_rect(F: PolyMatrix, U: PolyMatrix, Uinv: PolyMatrix) -> bool:
    """F * U = [I_s | 0] with U invertible (rectangular unimodular form)."""
    r = U.rows
    if U.cols != r or F.cols != r or F.rows > r:
        raise DimensionMismatch("need F of shape s x r with s <= r and U square r x r")
    ident = PolyMatrix.identity(F.pres, r)
    if mat_multiply(U, Uinv) != ident or mat_multiply(Uinv, U) != ident:
        return False
    prod = mat_multiply(F, U)
    P = F.pres
    for i in range(F.rows):
        for j in range(r):
            want = P.one() if i == j else P.zero()
            if prod.entries[i][j] != want:
                return False
    return True


def elementary_matrix(P: Presentation, r: int, i: int, j: int, s: SkewPoly) -> PolyMatrix:
    """I + s * E_ij (one off-diagonal entry), i != j, 1-based indices."""
    if i == j:
        raise ValueError("off-diagonal position required")
    if not (1 <= i <= r and 1 <= j <= r):
        raise DimensionMismatch("position outside the matrix")
    rows = [[P.one() if a == b else P.zero() for b in range(r)] for a in range(r)]
    rows[i - 1][j - 1] = s
    return PolyMatrix(P, rows)


def random_invertible(P: Presentation, r: int, factors: int, degree_bound: int, seed: int):
    """(U, Uinv) as a product of random elementary matrices and its reversed inverse."""
    rng = random.Random(seed)
    U = PolyMatrix.identity(P, r)
    inverse_factors = []
    for _ in range(factors):
        i = rng.randrange(1, r + 1)
        j = rng.randrange(1, r + 1)
        while j == i:
            j = rng.randrange(1, r + 1)
        s = P.random_poly(rng, degree_bound)
        U = mat_multiply(U, elementary_matrix(P, r, i, j, s))
        inverse_factors.append(elementary_matrix(P, r, i, j, -s))
    Uinv = PolyMatrix.identity(P, r)
    for E in reversed(inverse_factors):
        Uinv = mat_multiply(Uinv, E)
    return U, Uinv
