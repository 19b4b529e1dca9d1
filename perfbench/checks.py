"""Independent output checks for the benchmark's requests.

Nothing here calls the package's rewriting, elimination, gcd or closure code.
The closed forms, the Euclid gcd over F_p and the radical tests below use
their own integer arithmetic, so agreement with the package is evidence
rather than a tautology.  Each check returns None when the output is right and
a short message when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def scalar(k: int, p: int | None):
    """Image of the integer k in F_p (p given) or in Q (p None)."""
    return Fraction(k) if p is None else k % p


def _clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c != 0}


# -- closed forms for rewriting ------------------------------------------------------


def weyl1_form(a: int, b: int, p: int | None) -> dict:
    """x^a t^b = sum_k k! C(a,k) C(b,k) t^(b-k) x^(a-k) in A_1 (variables t, x)."""
    return _clean(
        {(b - k, a - k): scalar(factorial(k) * comb(a, k) * comb(b, k), p)
         for k in range(min(a, b) + 1)})


def weyl2_form(a: int, b: int, c: int, d: int, p: int | None) -> dict:
    """x1^a t1^b x2^c t2^d in A_2 (variables t1, t2, x1, x2): the two blocks commute."""
    out = {}
    for (t1, x1), c1 in weyl1_form(a, b, None).items():
        for (t2, x2), c2 in weyl1_form(c, d, None).items():
            out[(t1, t2, x1, x2)] = scalar(int(c1 * c2), p)
    return _clean(out)


def qplane_form(a: int, b: int, q: int, p: int | None) -> dict:
    """y^a x^b = q^(ab) x^b y^a in the quantum plane yx = q xy (variables x, y)."""
    coeff = pow(q, a * b, p) if p is not None else Fraction(q) ** (a * b)
    return _clean({(b, a): coeff})


def _inv(q: int, p: int | None):
    return pow(q, -1, p) if p is not None else 1 / Fraction(q)


def leading_constant(algebra: str, exps, q: int, p: int | None):
    """Top-degree coefficient of the reverse-ordered word x_n^e_n ... x_1^e_1.

    Lower terms of the relations have smaller degree, so the top-degree part of
    the normal form is the quasi-commutative reordering: the product over pairs
    i < j of c_ij^(e_i e_j).  The constants are the literature presentations:
    U(sl2) e, f, h all 1; dispin x, y, z: c_xy = -1; q-Heisenberg x, y, z:
    c_xy = q, c_xz = q^-1, c_yz = q; 2x2 quantum matrices a, c, d over K[b]:
    c_ac = q, c_ad = 1, c_cd = q.
    """
    one = scalar(1, p)
    qv, qi = scalar(q, p), _inv(q, p)
    pairs = {
        "usl2": {},
        "dispin": {(0, 1): scalar(-1, p)},
        "q-heisenberg": {(0, 1): qv, (0, 2): qi, (1, 2): qv},
        "manin": {(0, 1): qv, (1, 2): qv},
    }[algebra]
    out = one
    for (i, j), cv in pairs.items():
        out = out * cv ** (exps[i] * exps[j])
        if p is not None:
            out %= p
    return out


def check_terms(got: dict, want: dict) -> str | None:
    if got == want:
        return None
    extra = sorted(set(got) ^ set(want))[:2]
    diff = [m for m in want if m in got and got[m] != want[m]][:2]
    return f"normal form differs (terms {extra} present on one side only, coefficients differ at {diff})"


def check_leading(terms: dict, exps, coeff) -> str | None:
    """The top-degree part of `terms` is exactly coeff * x^exps."""
    deg = sum(exps)
    top = {m: c for m, c in terms.items() if sum(m) >= deg}
    if top != {tuple(exps): coeff}:
        return f"top-degree part {top!r} is not {coeff!r} * x^{tuple(exps)}"
    return None


# -- polynomials over F_p as ascending coefficient lists ----------------------------


def ptrim(a) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p) -> list:
    n = max(len(a), len(b))
    return ptrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def pmul(a, b, p) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return ptrim(out)


def pmod(a, b, p) -> list:
    a, b = ptrim(a), ptrim(b)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c:
            f = c * inv % p
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - f * cb) % p
    return ptrim(a)


def pgcd(a, b, p) -> list:
    """Monic gcd by Euclid's algorithm; [] for gcd(0, 0)."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def pgcd_many(polys, p) -> list:
    g = []
    for f in polys:
        g = pgcd(g, f, p)
    return g


def _divides_power(f, g, p) -> bool:
    """f | g^N with N = deg f + 1, reducing mod f at every step."""
    acc = [1]
    for _ in range(len(f)):
        acc = pmod(pmul(acc, g, p), f, p)
    return not acc


def same_radical(f, g, p) -> bool:
    """rad<f> = rad<g> in F_p[t] by power divisibility; no factorization."""
    f, g = ptrim(f), ptrim(g)
    if not f or not g:
        return f == g
    return _divides_power(f, g, p) and _divides_power(g, f, p)


def univariate(terms: dict) -> list:
    """Coefficient list of a one-variable normal form {(k,): c}."""
    if not terms:
        return []
    out = [0] * (max(m[0] for m in terms) + 1)
    for (k,), c in terms.items():
        out[k] = c
    return out


# -- finite commutative rings ----------------------------------------------------------


def zmod_primes(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def zmod_radical(n: int, gens) -> frozenset:
    """D(gens) in Z/n: multiples of every prime of n that divides all generators."""
    qs = [q for q in zmod_primes(n) if all(g % q == 0 for g in gens)]
    return frozenset(a for a in range(n) if all(a % q == 0 for q in qs))


class RingTables:
    """A finite ring's addition and multiplication tables, read once from the ring.

    The radical and prime checks below take any object with `elements`,
    `size`, `zero`, `add` and `mul`; given these tables they run on lookups,
    with memory fixed by the ring's size.
    """

    def __init__(self, ring):
        self.elements, self.size, self.zero = ring.elements, ring.size, ring.zero
        pairs = [(a, b) for a in ring.elements for b in ring.elements]
        self._add = {(a, b): ring.add(a, b) for a, b in pairs}
        self._mul = {(a, b): ring.mul(a, b) for a, b in pairs}

    def add(self, a, b):
        return self._add[a, b]

    def mul(self, a, b):
        return self._mul[a, b]


def ideal_closure(ring, gens) -> frozenset:
    """Additive closure of the ring multiples of the generators."""
    out = {ring.zero}
    frontier = {ring.mul(r, g) for g in gens for r in ring.elements}
    while frontier:
        out |= frontier
        frontier = {ring.add(a, b) for a in frontier for b in out} - out
    return frozenset(out)


def radical_by_powers(ring, gens) -> frozenset:
    """{a : a^k in <gens> for some k}; powers cycle within ring.size steps."""
    ideal = ideal_closure(ring, gens)
    out = set()
    for a in ring.elements:
        acc = a
        for _ in range(ring.size + 1):
            if acc in ideal:
                out.add(a)
                break
            acc = ring.mul(acc, a)
    return frozenset(out)


def check_prime_ideal(ring, elements: frozenset) -> str | None:
    if len(elements) == ring.size:
        return "a listed prime is the whole ring"
    for a in elements:
        for r in ring.elements:
            if ring.mul(r, a) not in elements:
                return "a listed prime is not closed under ring multiples"
        for b in elements:
            if ring.add(a, b) not in elements:
                return "a listed prime is not closed under addition"
    outside = [a for a in ring.elements if a not in elements]
    for x in outside:
        for y in outside:
            if ring.mul(x, y) in elements:
                return "a listed ideal is not prime"
    return None
