"""Zariski lattice, boundary ideals, and Kronecker reduction.

Two backends:

* finite commutative rings (Z/n, F_p[x]/(f), finite products, quotients,
  any carrier with add and mul callables), read once into index tables:
  element i is index i, an ideal is an int bitmask whose bit i is element
  i, and primes, radicals, and lattice laws are settled by exhaustive
  enumeration over those masks; and
* F_p[t], where D(generators) is the squarefree part of their gcd, kept as a
  canonical monic representative.

Radicals over F_p[t] come from gcds alone: w = f / gcd(f, f') collects the
primes whose multiplicity p does not divide, and where f' vanishes (f in
F_p[t^p]) a p-th root, f(t) = g(t^p) = g(t)^p, lowers the degree instead;
no candidate factor is ever enumerated (see `FptBackend.squarefree_part`).

The reduction lemma behind `kronecker_reduce` is usually stated for domains,
but its inductive step passes to quotient rings that need not be domains; the
engines here exercise the commutative reading (finite commutative rings and
F_p[t]), where the boundary condition holds unconditionally and every scan is
backed by an explicit verification of the two radicals.

All searches scan candidates in the canonical enumeration order and return the
first verifying certificate, so sharded scans must reduce to the canonically
first hit to stay equivalent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidRing, NotFoundWithinBound, PreconditionFailed, RingTooLarge
from .parsing import degree_bound, parse_expr_tree, parse_scalar, tokenize
from .rings import PolynomialRing, PrimeField, QuotientRing, ResidueRing, Ring

# The add and mul tables hold 2 n^2 entries; 256 elements keep them near 1 MiB.
MAX_RING_SIZE = 256
_EXHAUSTIVE_LIMIT = 64
_SUBSET_LIMIT = 16


def _bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending: the canonical order of an ideal."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _too_large(label: str) -> RingTooLarge:
    return RingTooLarge(
        f"{label} has more than {MAX_RING_SIZE} elements, the limit for a finite ring"
    )


class FiniteCommRing:
    """Finite commutative unital ring, held as index tables.

    Element i of `elements` has index i.  `add` and `mul` are called once per
    pair to fill `add_table` and `mul_table` (indices in, index out); the ring
    laws are then validated on the tables, exhaustively up to 64 elements and
    by seeded sampling above that, and negation is read off the add table.
    Every algorithm in this module runs on indices, with an ideal carried as
    an int bitmask over them (see `IdealFin`).  Carriers above
    `MAX_RING_SIZE` elements are refused.
    """

    def __init__(self, elements, add, mul, zero, one, label: str = "ring"):
        els = tuple(itertools.islice(elements, MAX_RING_SIZE + 1))
        if len(els) > MAX_RING_SIZE:
            raise _too_large(label)
        self.elements = els
        self.index = index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise InvalidRing("duplicate elements in carrier")
        if zero not in index or one not in index:
            raise InvalidRing("carrier must contain 0 and 1")
        try:
            self.add_table = [[index[add(a, b)] for b in els] for a in els]
            self.mul_table = [[index[mul(a, b)] for b in els] for a in els]
        except KeyError:
            raise InvalidRing("addition or multiplication leaves the carrier") from None
        self.zero = zero
        self.one = one
        self.label = label
        self.size = len(els)
        self.zero_i = index[zero]
        self.one_i = index[one]
        self.full = (1 << self.size) - 1
        self._validate()
        self.neg_table = []
        for a, row in zip(els, self.add_table):
            if self.zero_i not in row:
                raise InvalidRing(f"{a!r} has no additive inverse")
            self.neg_table.append(row.index(self.zero_i))
        # in a commutative unital ring the multiples of a already form <a>
        self.principal = [_mask(row) for row in self.mul_table]
        self.source: Ring | None = None  # ring whose syntax and format the elements follow
        self._ideals = None
        self._primes = None
        self._prime_masks = None
        self._zar = None
        self._joins = {}  # ideal mask -> [I + <g> by element index g, None until filled]

    def add(self, a, b):
        index = self.index
        return self.elements[self.add_table[index[a]][index[b]]]

    def mul(self, a, b):
        index = self.index
        return self.elements[self.mul_table[index[a]][index[b]]]

    def neg(self, a):
        return self.elements[self.neg_table[self.index[a]]]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mask_of(self, elements) -> int:
        index = self.index
        return _mask(index[a] for a in elements)

    def _validate(self):
        els, n = self.elements, self.size
        A, M = self.add_table, self.mul_table
        if n <= _EXHAUSTIVE_LIMIT:
            triples = ((a, b, range(n)) for a in range(n) for b in range(n))
            pairs = itertools.product(range(n), repeat=2)
        else:
            rng = random.Random(9)
            triples = ((rng.randrange(n), rng.randrange(n), (rng.randrange(n),)) for _ in range(4000))
            pairs = (tuple(rng.randrange(n) for _ in range(2)) for _ in range(4000))
        for a, b in pairs:
            if A[a][b] != A[b][a]:
                raise InvalidRing(f"addition not commutative at {(els[a], els[b])!r}")
            if M[a][b] != M[b][a]:
                raise InvalidRing(f"multiplication not commutative at {(els[a], els[b])!r}")
        for a, b, cs in triples:  # the rows of a, b, a + b and a b serve every c
            Aa, Ma, Ab, Mb = A[a], M[a], A[b], M[b]
            Aab, Mab, AMab = A[Aa[b]], M[Ma[b]], A[Ma[b]]
            for c in cs:
                if Aab[c] != Aa[Ab[c]]:
                    raise InvalidRing(f"addition not associative at {(els[a], els[b], els[c])!r}")
                if Mab[c] != Ma[Mb[c]]:
                    raise InvalidRing(f"multiplication not associative at {(els[a], els[b], els[c])!r}")
                if Ma[Ab[c]] != AMab[Ma[c]]:
                    raise InvalidRing(f"distributivity fails at {(els[a], els[b], els[c])!r}")
        for a in range(n):
            if A[a][self.zero_i] != a or M[a][self.one_i] != a:
                raise InvalidRing(f"identity laws fail at {els[a]!r}")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_ring(cls, ring: Ring, label: str | None = None) -> "FiniteCommRing":
        out = cls(ring.elements(), ring.add, ring.mul, ring.zero, ring.one, label or ring.describe())
        out.source = ring
        return out

    @classmethod
    def zmod(cls, n: int) -> "FiniteCommRing":
        return cls.from_ring(ResidueRing(n), f"Z/{n}")

    @classmethod
    def fp(cls, p: int) -> "FiniteCommRing":
        return cls.from_ring(PrimeField(p), f"F_{p}")

    @classmethod
    def quotient_poly(cls, p: int, modulus, gen_name: str = "x") -> "FiniteCommRing":
        # checked before the add and mul tables of p^d elements are built
        if p ** (len(modulus) - 1) > MAX_RING_SIZE:
            raise _too_large(f"F_{p}[{gen_name}]/(modulus of degree {len(modulus) - 1})")
        return cls.from_ring(QuotientRing(p, modulus, gen_name))

    @classmethod
    def product(cls, r1: "FiniteCommRing", r2: "FiniteCommRing") -> "FiniteCommRing":
        return cls(
            ((a, b) for a in r1.elements for b in r2.elements),
            lambda x, y: (r1.add(x[0], y[0]), r2.add(x[1], y[1])),
            lambda x, y: (r1.mul(x[0], y[0]), r2.mul(x[1], y[1])),
            (r1.zero, r2.zero),
            (r1.one, r2.one),
            f"{r1.label} x {r2.label}",
        )

    def quotient_by(self, ideal: "IdealFin") -> tuple["FiniteCommRing", dict]:
        """Quotient ring on canonical coset representatives, with the map onto them.

        The representative of a coset is its element of least index.
        """
        els, A = self.elements, self.add_table
        members = _bits(ideal.mask)
        lead = [None] * self.size
        for a in range(self.size):
            if lead[a] is None:
                for x in members:
                    lead[A[a][x]] = a
        rep = {els[c]: els[lead[c]] for c in range(self.size)}
        out = FiniteCommRing(
            (els[a] for a in range(self.size) if lead[a] == a),
            lambda x, y: rep[self.add(x, y)],
            lambda x, y: rep[self.mul(x, y)],
            rep[self.zero],
            rep[self.one],
            f"{self.label}/{ideal.short()}",
        )
        out.source = self.source
        return out, rep

    def format(self, a) -> str:
        return str(a) if self.source is None else self.source.format(a)

    def element_from_text(self, text: str):
        if self.source is None:
            raise ValueError(f"{self.label} has no element syntax; index elements instead")
        el = parse_scalar(text.strip(), self.source)
        if el not in self.index:
            raise ValueError(f"{text!r} is not an element of {self.label}")
        return el

    def __repr__(self):
        return f"<{self.label}, {self.size} elements>"


@dataclass(frozen=True, eq=False)
class IdealFin:
    """Ideal of a finite commutative ring, as a bitmask over element indices.

    Bit i stands for `ring.elements[i]`: meet is `&`, containment is
    `a & ~b == 0`, and the canonical element order is bit order.  `gens` are
    the generators it was made from, as element payloads.
    """

    ring: FiniteCommRing
    mask: int
    gens: tuple

    @cached_property
    def elements(self) -> frozenset:
        return frozenset(self.sorted_elements())

    def __contains__(self, a):
        i = self.ring.index.get(a)
        return i is not None and bool(self.mask >> i & 1)

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def is_whole(self) -> bool:
        return self.mask == self.ring.full

    def sorted_elements(self):
        els = self.ring.elements
        return [els[i] for i in _bits(self.mask)]

    def short(self) -> str:
        return "<" + ",".join(self.ring.format(g) for g in self.gens) + ">"

    def __eq__(self, other):
        return isinstance(other, IdealFin) and self.ring is other.ring and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        els = ", ".join(self.ring.format(a) for a in self.sorted_elements())
        return "{" + els + "}"


def _sum(ring: FiniteCommRing, I: int, J: int) -> int:
    """I + J for ideal masks: the cosets of I through the members of J."""
    A = ring.add_table
    out, rest = I, J & ~I
    members = _bits(I) if rest else ()
    while rest:  # out is a union of cosets of I, so the coset of each b left is new
        row = A[(rest & -rest).bit_length() - 1]
        for a in members:
            out |= 1 << row[a]
        rest &= ~out
    return out


def _join(ring: FiniteCommRing, I: int, g: int) -> int:
    """I + <g> for an ideal mask and an element index, read from `ring._joins`.

    Each entry is filled once by `_sum`, so the table holds at most
    (number of ideals) x n entries.
    """
    row = ring._joins.get(I)
    if row is None:
        row = ring._joins[I] = [None] * ring.size
    out = row[g]
    if out is None:
        out = row[g] = _sum(ring, I, ring.principal[g])
    return out


def _ideal(ring: FiniteCommRing, gens: int) -> int:
    """Mask of the ideal generated by a mask: the sum of the principal ideals,
    joining <g> for the least generator g outside the ideal so far."""
    out = 1 << ring.zero_i
    rest = gens & ~out
    while rest:
        out = _join(ring, out, (rest & -rest).bit_length() - 1)
        rest &= ~out
    return out


def _radical(ring: FiniteCommRing, gens: int) -> int:
    """D of a mask: the meet of the primes that contain it (the whole ring if none)."""
    primes = ring._prime_masks
    if primes is None:
        primes = ring._prime_masks = tuple(P.mask for P in enumerate_primes(ring))
    out = ring.full
    for P in primes:
        if gens & ~P == 0:
            out &= P
    return out


def _canonical(mask: int):
    """Sort key of ideals: by size, then by their elements in canonical order."""
    return mask.bit_count(), _bits(mask)


def ideal_generated(gens, ring: FiniteCommRing) -> IdealFin:
    """Smallest ideal containing the generators."""
    gens = tuple(gens)
    return IdealFin(ring, _ideal(ring, ring.mask_of(gens)), gens)


def all_ideals(ring: FiniteCommRing) -> list[IdealFin]:
    """Every ideal, as the sum-closure of the principal ideals.

    Each ideal is a finite sum of principal ideals of its own elements, so
    closing the principal ideals under pairwise ideal sums reaches them all.
    """
    if ring._ideals is None:
        principal = {}
        for a, m in zip(ring.elements, ring.principal):
            principal.setdefault(m, IdealFin(ring, m, (a,)))
        pool = dict(principal)
        frontier = list(principal.values())
        while frontier:
            nxt = []
            for I in frontier:
                for J in principal.values():
                    s = _sum(ring, I.mask, J.mask)
                    if s not in pool:
                        pool[s] = K = IdealFin(ring, s, I.gens + J.gens)
                        nxt.append(K)
            frontier = nxt
        ring._ideals = sorted(pool.values(), key=lambda I: _canonical(I.mask))
    return ring._ideals


def enumerate_primes(ring: FiniteCommRing) -> list[IdealFin]:
    """All proper ideals P with xy in P implying x in P or y in P."""
    if ring._primes is None:
        M = ring.mul_table
        primes = []
        for I in all_ideals(ring):
            if I.is_whole():
                continue
            outside = _bits(ring.full & ~I.mask)
            if not any(I.mask >> M[x][y] & 1 for x in outside for y in outside):
                primes.append(I)
        ring._primes = primes
    return ring._primes


def zariski_D(gens, ring: FiniteCommRing) -> IdealFin:
    """Intersection of the primes containing the generators (whole ring if none)."""
    gens = tuple(gens)
    return IdealFin(ring, _radical(ring, ring.mask_of(gens)), gens)


def colon_to_radzero(v: int, ring: FiniteCommRing) -> int:
    """Mask of {x : v x lies in D(0)}, v an element index (D(0) : <v>)."""
    d0 = _radical(ring, 0)
    return _mask(x for x, vx in enumerate(ring.mul_table[v]) if d0 >> vx & 1)


def boundary_ideal(v, ring: FiniteCommRing) -> IdealFin:
    """<v> plus everything that multiplies v into D(0)."""
    i = ring.index[v]
    return IdealFin(ring, _sum(ring, colon_to_radzero(i, ring), ring.principal[i]), (v,))


def check_boundary_condition(ring: FiniteCommRing) -> dict:
    """Dimension zero forces I_v = S for every v; checked exhaustively."""
    bad = [v for v in ring.elements if not boundary_ideal(v, ring).is_whole()]
    return {
        "ring": ring.label,
        "elements": ring.size,
        "violations": [ring.format(v) for v in bad],
        "ok": not bad,
    }


# -- lattice laws -----------------------------------------------------------------


def _zar_elements(ring: FiniteCommRing) -> list[int]:
    """The distinct D-values of all ideals, as masks in canonical order."""
    if ring._zar is None:
        ring._zar = sorted({_radical(ring, I.mask) for I in all_ideals(ring)}, key=_canonical)
    return ring._zar


def _ideal_product(ring: FiniteCommRing, I: int, J: int) -> int:
    """IJ for masks: the ideal generated by the products g b, b in J, over
    generators g of I (picked as `_ideal` picks them), since each a in I is a
    combination sum r_k g_k and so a b = sum r_k (g_k b)."""
    M = ring.mul_table
    right = _bits(J)
    prods, span = 0, 1 << ring.zero_i
    rest = I & ~span
    while rest:
        g = (rest & -rest).bit_length() - 1
        row = M[g]
        for b in right:
            prods |= 1 << row[b]
        span = _join(ring, span, g)
        rest &= ~span
    return _ideal(ring, prods)


def check_lattice_laws(ring: FiniteCommRing, mode: str = "exhaustive", seed: int = 9) -> dict:
    """Verify the twelve Zariski-lattice laws over a finite commutative ring.

    `exhaustive` settles every law over all ideals/elements; the
    generators-vs-ideal law enumerates every subset only for rings with at
    most 16 elements and falls back to seeded sampling above that.  Ideals
    and D-values are compared as masks; elements are indices.

    Some laws read tables instead of recomputing.  Every ideal comes through
    the ring's join table (`_join`); D of an ideal or D-value mask is
    memoized for the call, while the 2^n subsets of law (i) and other raw
    masks go to `_radical`; law (v) reads, for each D-value, which D-values
    lie above it; law (xii) reads D(Z | W) for pairs of D-values from a
    table filled once.  Each table caches a pure function of masks, and each
    law still visits and counts every one of its cases, so verdicts, counts
    and failures are those of computing every D afresh.
    """
    rng = random.Random(seed)
    els, n = ring.elements, ring.size
    A, M = ring.add_table, ring.mul_table
    ideals = all_ideals(ring)

    memo = {}

    def D(mask):  # for ideal and D-value masks; other masks call _radical
        out = memo.get(mask)
        if out is None:
            out = memo[mask] = _radical(ring, mask)
        return out

    dx = [_radical(ring, 1 << x) for x in range(n)]  # D of each element

    rad = D(0)
    results = []

    def law(name, cases, failures):
        results.append(
            {"law": name, "cases": cases, "failures": failures[:3], "ok": not failures}
        )

    sampled = mode != "exhaustive"
    if sampled:
        ideals_used = [rng.choice(ideals) for _ in range(min(len(ideals), 6))]
        elements_used = [rng.randrange(n) for _ in range(min(n, 12))]
    else:
        ideals_used = ideals
        elements_used = range(n)

    # (i) D of a generating set equals D of the ideal it generates
    fails, cases = [], 0
    if n <= _SUBSET_LIMIT and not sampled:
        subsets = range(1 << n)
    else:
        subsets = [_mask(rng.sample(range(n), rng.randint(0, min(3, n)))) for _ in range(400)]
    for X in subsets:
        cases += 1
        if _radical(ring, X) != D(_ideal(ring, X)):
            fails.append(repr(tuple(els[i] for i in _bits(X))))
    law("generating-set-vs-ideal", cases, fails)

    # (ii) D(I) = D(0) exactly for ideals inside D(0)
    fails = []
    for I in ideals_used:
        if (I.mask & ~rad == 0) != (D(I.mask) == rad):
            fails.append(I.short())
    law("radical-zero-characterization", len(ideals_used), fails)

    # (iii) D(I) is everything exactly for the unit ideal
    fails = []
    for I in ideals_used:
        if (D(I.mask) == ring.full) != I.is_whole():
            fails.append(I.short())
    law("unit-ideal-detection", len(ideals_used), fails)

    # (iv) closure operator: extensive, idempotent, monotone
    fails, cases = [], 0
    dvals = {I.mask: D(I.mask) for I in ideals}
    for I in ideals_used:
        cases += 1
        d = dvals[I.mask]
        if I.mask & ~d:
            fails.append(f"not extensive at {I.short()}")
        if D(d) != d:
            fails.append(f"not idempotent at {I.short()}")
    for I in ideals_used:
        for J in ideals_used:
            cases += 1
            if I.mask & ~J.mask == 0 and dvals[I.mask] & ~dvals[J.mask]:
                fails.append(f"not monotone at {I.short()},{J.short()}")
    law("closure-operator", cases, fails)

    # (v) D(I + J) is the join, elementwise version included.  D(I + J) is
    # least when every D-value above both D(I) and D(J) also holds it:
    # above[d] marks, by position in zar, the D-values that contain d.
    fails, cases = [], 0
    zar = _zar_elements(ring)
    above = {d: _mask(k for k, Z in enumerate(zar) if d & ~Z == 0) for d in set(dvals.values())}
    for I in ideals_used:
        for J in ideals_used:
            cases += 1
            dI, dJ = dvals[I.mask], dvals[J.mask]
            dij = D(_ideal(ring, I.mask | J.mask))
            if (dI | dJ) & ~dij:
                fails.append(f"{I.short()}+{J.short()} not an upper bound")
            elif above[dI] & above[dJ] & ~above[dij]:
                fails.append(f"{I.short()}+{J.short()} not least")
    for x in elements_used:
        for y in elements_used:
            cases += 1
            if _radical(ring, 1 << x | 1 << y) != _radical(ring, dx[x] | dx[y]):
                fails.append(f"join of D({els[x]!r}),D({els[y]!r})")
    law("sum-is-join", cases, fails)

    # (vi) D(I J) is the meet (set intersection)
    fails, cases = [], 0
    for I in ideals_used:
        for J in ideals_used:
            cases += 1
            if D(_ideal_product(ring, I.mask, J.mask)) != dvals[I.mask] & dvals[J.mask]:
                fails.append(f"{I.short()}*{J.short()}")
    law("product-is-meet", cases, fails)

    # (vii) D(x + y) inside D(x, y)
    fails, cases = [], 0
    for x in elements_used:
        for y in elements_used:
            cases += 1
            if dx[A[x][y]] & ~_radical(ring, 1 << x | 1 << y):
                fails.append(f"({els[x]!r},{els[y]!r})")
    law("sum-inside-pair", cases, fails)

    # (viii) equality when the product of the two principals lies in D(0);
    # <x><y> = <xy>, so that is xy in D(0)
    fails, cases = [], 0
    for x in elements_used:
        for y in elements_used:
            if rad >> M[x][y] & 1:
                cases += 1
                if _radical(ring, 1 << x | 1 << y) != dx[A[x][y]]:
                    fails.append(f"({els[x]!r},{els[y]!r})")
    law("orthogonal-sum-equality", cases, fails)

    # (ix) members of D(I) are absorbed
    fails, cases = [], 0
    for I in ideals_used:
        d = dvals[I.mask]
        for x in _bits(d):
            cases += 1
            if _radical(ring, I.mask | 1 << x) != d:
                fails.append(f"{I.short()} absorb {els[x]!r}")
                break
    law("member-absorption", cases, fails)

    # (x) D commutes with passing to a quotient
    fails, cases = [], 0
    for I in ideals_used:
        Q, rep = ring.quotient_by(I)
        to_q = [Q.index[rep[a]] for a in els]
        for J in ideals_used:
            if I.mask & ~J.mask:
                continue
            cases += 1
            pushed = _mask(to_q[a] for a in _bits(dvals[J.mask]))
            if pushed != _radical(Q, _mask(to_q[a] for a in _bits(J.mask))):
                fails.append(f"{I.short()} then {J.short()}")
    law("quotient-compatibility", cases, fails)

    # (xi) membership in D(I) means a power lands in I
    fails, cases = [], 0
    for I in ideals_used:
        d = dvals[I.mask]
        for u in elements_used:
            cases += 1
            member = bool(d >> u & 1)
            if member != (_nilpotency_exponent(u, I.mask, ring) is not None):
                fails.append(f"{I.short()} vs {els[u]!r}")
    law("radical-membership-power", cases, fails)

    # (xii) distributivity of the lattice of D-values.  Values are indexed by
    # position: zar_used, then any meet of two of them outside it (none in
    # exhaustive mode when D is right, as meets of radicals are radicals).
    # Both sides read D(Z | W) from a table of all pairs, filled once.
    fails = []
    zar_used = zar if not sampled else zar[: min(len(zar), 5)]
    pos = {Z: i for i, Z in enumerate(zar_used)}
    meet = [[pos.setdefault(Z & W, len(pos)) for W in zar_used] for Z in zar_used]
    vals = list(pos)
    join = [[_radical(ring, Z | W) for W in vals] for Z in vals]
    cases = 0
    for a, Z1 in enumerate(zar_used):
        ja, ma = join[a], meet[a]
        for b in range(len(zar_used)):
            jb, mb, jab, jmab = join[b], meet[b], ja[b], join[ma[b]]
            for jbc, jac, mac, mbc in zip(jb, ja, ma, mb):
                cases += 1
                if Z1 & jbc != jmab[mac]:
                    fails.append("meet-over-join")
                elif ja[mbc] != jab & jac:
                    fails.append("join-over-meet")
    law("distributivity", cases, fails)

    return {
        "ring": ring.label,
        "mode": mode,
        "laws": results,
        "ok": all(r["ok"] for r in results),
    }


def _nilpotency_exponent(u: int, ideal: int, ring: FiniteCommRing):
    """Smallest k >= 1 with u^k in the ideal mask, or None once the powers repeat."""
    row = ring.mul_table[u]
    acc, seen, k = u, 0, 1
    while not seen >> acc & 1:  # a power seen before starts the cycle again
        if ideal >> acc & 1:
            return k
        seen |= 1 << acc
        acc, k = row[acc], k + 1
    return None


def radical_membership_finite(a, gens, ring: FiniteCommRing):
    gens = ring.mask_of(gens)
    i = ring.index[a]
    if not _radical(ring, gens) >> i & 1:
        return False, None
    return True, _nilpotency_exponent(i, _ideal(ring, gens), ring)


# -- Kronecker reduction, finite backend -------------------------------------------


@dataclass
class KroneckerCertificate:
    shifts: tuple
    constructive: bool
    fallback_used: bool


def kronecker_reduce_dim0(u1, u, ring: FiniteCommRing) -> KroneckerCertificate:
    """One-generator reduction x1 with D(u1 + x1 u) = D(u1, u).

    The constructive pick follows the boundary-ideal decomposition
    1 = a u1 + x1 with x1 in (D(0) : <u1>); an exhaustive scan backs it up
    should verification ever fail.
    """
    if u == ring.zero:
        # any shift works; keep the canonical zero certificate
        return KroneckerCertificate((ring.zero,), True, False)
    A, M = ring.add_table, ring.mul_table
    i1, iu = ring.index[u1], ring.index[u]
    target = _radical(ring, 1 << i1 | 1 << iu)
    pv = ring.principal[i1]
    one_minus = A[ring.one_i]
    pick = next(
        (x for x in _bits(colon_to_radzero(i1, ring)) if pv >> one_minus[ring.neg_table[x]] & 1),
        None,
    )
    if pick is not None and _radical(ring, 1 << A[i1][M[pick][iu]]) == target:
        return KroneckerCertificate((ring.elements[pick],), True, False)
    for x in range(ring.size):
        if _radical(ring, 1 << A[i1][M[x][iu]]) == target:
            return KroneckerCertificate((ring.elements[x],), False, True)
    raise PreconditionFailed("no reduction exists; the ring violates the dimension-zero case")


def _kronecker_finite(us, u, ring: FiniteCommRing):
    us = tuple(us)
    A, M = ring.add_table, ring.mul_table
    starts = [ring.index[a] for a in us]
    iu = ring.index[u]
    target = _radical(ring, ring.mask_of(us + (u,)))
    for xs in itertools.product(range(ring.size), repeat=len(us)):
        shifted = _mask(A[ui][M[xi][iu]] for ui, xi in zip(starts, xs))
        if _radical(ring, shifted) == target:
            return tuple(ring.elements[x] for x in xs)
    raise PreconditionFailed("exhausted the ring without a verifying shift tuple")


# -- F_p[t] backend -----------------------------------------------------------------


@dataclass(frozen=True)
class RadicalClass:
    """Canonical radical of an ideal of F_p[t]: a monic squarefree generator.

    () is the zero class (radical of the zero ideal); the constant one marks
    the unit class D = S.
    """

    p: int
    poly: tuple

    def is_unit_class(self) -> bool:
        return len(self.poly) == 1

    def is_zero_class(self) -> bool:
        return self.poly == ()


class FptBackend:
    """Radical arithmetic for F_p[t]: gcds, squarefree parts, shift scans."""

    def __init__(self, p: int):
        self.p = p
        self.ring = PolynomialRing(PrimeField(p), "t")
        self._squarefree: dict = {}  # monic f -> its squarefree part

    def element_from_text(self, text: str):
        return parse_scalar(text, self.ring)

    def format(self, a) -> str:
        return self.ring.format(a)

    def gcd_many(self, gens) -> tuple:
        g = ()
        for a in gens:
            g = self.ring.gcd(g, a)
        return g

    def squarefree_part(self, f: tuple) -> tuple:
        """rad(f): the product of the distinct monic primes dividing f, from gcds alone.

        Over F_p, with f monic and f = prod q^e_q:
        * if f' = 0, only powers t^(pk) occur in f, so f = g(t^p) = g(t)^p
          (every coefficient is its own p-th power) and rad(f) = rad(g), where
          g takes every p-th coefficient of f;
        * otherwise g = gcd(f, f') = prod q^(e_q - 1 if p does not divide e_q,
          else e_q), so w = f / g is the product of the q whose exponent p does
          not divide, every other prime divides g, and rad(f) = lcm(w, rad(g)).
        Both steps lower the degree, so the loop ends at g = 1.
        """
        if f == ():
            return ()
        R = self.ring
        f = R.monic(f)
        hit = self._squarefree.get(f)
        if hit is None:
            hit, rest = R.one, f
            while len(rest) > 1:
                d = R.derivative(rest)
                if not d:
                    rest = rest[::self.p]
                    continue
                g = R.gcd(rest, d)
                w = R.divmod(rest, g)[0]
                hit = R.mul(hit, R.divmod(w, R.gcd(hit, w))[0])
                rest = g
            self._squarefree[f] = hit
        return hit

    def radical_class(self, gens) -> RadicalClass:
        g = self.gcd_many(tuple(gens))
        return RadicalClass(self.p, self.squarefree_part(g))


def radical_membership_fpt(a, gens, backend: FptBackend):
    """a in D(<gens>)?  With the smallest power exponent on success."""
    R = backend.ring
    h = backend.gcd_many(tuple(gens))
    if h == ():
        return (a == (), 1 if a == () else None)
    if R.deg(h) == 0:
        return True, 1
    g = backend.squarefree_part(h)
    if R.divmod(a, g)[1] != ():
        return False, None
    acc = R.divmod(a, h)[1]
    power = acc
    for k in range(1, R.deg(h) + 2):
        if power == ():
            return True, k
        power = R.divmod(R.mul(power, acc), h)[1]
    return True, None


def kronecker_reduce(us, u, backend, degree_bound: int | None = None):
    """Shift tuple xs with D(u_i + x_i u) = D(us, u), verified before returning.

    Finite backend: any arity, exhaustive scan, always succeeds.  F_p[t]
    backend: two generators, scan by increasing degree up to the bound.
    """
    if isinstance(backend, FiniteCommRing):
        return _kronecker_finite(us, u, backend)
    if not isinstance(backend, FptBackend):
        raise TypeError("backend must be a finite ring or an F_p[t] backend")
    us = tuple(us)
    if len(us) != 2:
        raise PreconditionFailed(
            "the polynomial backend implements the dimension-one case: exactly two generators"
        )
    if degree_bound is None:
        raise PreconditionFailed("the polynomial backend needs a degree bound")
    R = backend.ring
    u1, u2 = us
    target = backend.radical_class((u1, u2, u))
    unit_target = target.is_unit_class()
    for stage in range(degree_bound + 1):
        polys = R.polys_up_to(stage)
        for x1 in polys:
            x1_seen = stage > 0 and R.deg(x1) < stage
            s1 = R.add(u1, R.mul(x1, u))
            for x2 in polys:
                if x1_seen and R.deg(x2) < stage:
                    continue  # both candidates already tried at an earlier stage
                s2 = R.add(u2, R.mul(x2, u))
                g = R.gcd(s1, s2)
                if unit_target:
                    if R.deg(g) == 0:
                        return (x1, x2)
                    continue
                if g == ():
                    if target.is_zero_class():
                        return (x1, x2)
                    continue
                if RadicalClass(backend.p, backend.squarefree_part(g)) == target:
                    return (x1, x2)
    raise NotFoundWithinBound(
        f"no shift tuple of degree <= {degree_bound} reproduces the radical"
    )


def generates_whole(us, backend) -> bool:
    if isinstance(backend, FiniteCommRing):
        return ideal_generated(tuple(us), backend).is_whole()
    g = backend.gcd_many(tuple(us))
    return backend.ring.deg(g) == 0 and g != ()


def unimodular_shrink(us, backend, degree_bound: int | None = None):
    """Drop the last generator of a unimodular tuple, shifting the others.

    Requires <us> = S; the shifted tuple it returns generates S again.
    """
    us = tuple(us)
    if len(us) < 2:
        raise PreconditionFailed("need at least two generators")
    if not generates_whole(us, backend):
        raise PreconditionFailed("the input tuple does not generate the whole ring")
    return kronecker_reduce(us[:-1], us[-1], backend, degree_bound)


def radical_membership(a, gens, backend):
    if isinstance(backend, FiniteCommRing):
        return radical_membership_finite(a, gens, backend)
    return radical_membership_fpt(a, gens, backend)


# -- ring spec mini-grammar ----------------------------------------------------------


def parse_ring_spec(text: str) -> FiniteCommRing:
    """Zmod:n | Fp:p | quot:F<p>:poly | prod:spec*spec (also with '×', U+00D7, as separator)."""
    text = text.strip()
    if text.startswith("prod:"):
        body = text[len("prod:"):]
        for sep in ("×", "*"):
            if sep in body:
                left, right = body.split(sep, 1)
                return FiniteCommRing.product(parse_ring_spec(left), parse_ring_spec(right))
        raise ValueError("product spec needs '*' between the factors")
    parts = text.split(":")
    if parts[0] == "Zmod" and len(parts) == 2:
        return FiniteCommRing.zmod(int(parts[1]))
    if parts[0] == "Fp" and len(parts) == 2:
        return FiniteCommRing.fp(int(parts[1]))
    if parts[0] == "quot" and len(parts) in {3, 4}:
        if len(parts) == 4 and parts[1] == "Fp":
            p, poly_text = int(parts[2]), parts[3]
        elif parts[1].startswith("F"):
            p, poly_text = int(parts[1][1:]), parts[2]
        else:
            raise ValueError("quotient spec looks like quot:F2:x^3")
        gen = next((t.text for t in tokenize(poly_text) if t.kind == "name"), None)
        if gen is None:
            raise ValueError(f"quotient modulus {poly_text!r} names no variable, as in quot:F2:x^3")
        field = PrimeField(p)
        # bounded on the tree, before a modulus such as x^99999999 is evaluated;
        # as p >= 2, a degree of MAX_RING_SIZE.bit_length() or more is too large
        degree = degree_bound(parse_expr_tree(poly_text))
        if degree >= MAX_RING_SIZE.bit_length() or p ** degree > MAX_RING_SIZE:
            raise _too_large(f"F_{p}[{gen}]/(modulus of degree up to {degree})")
        modulus = parse_scalar(poly_text, PolynomialRing(field, gen))
        return FiniteCommRing.quotient_poly(p, modulus, gen)
    raise ValueError(f"cannot parse ring spec {text!r}")


def parse_backend_spec(text: str):
    text = text.strip()
    if text.startswith("fpt:"):
        return FptBackend(int(text.split(":", 1)[1]))
    return parse_ring_spec(text)
