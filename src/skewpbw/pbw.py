"""PBW normal forms for skew polynomial presentations.

Elements live in the free left module over the coefficient ring with basis the
standard monomials x_1^a1 ... x_n^an (exponent tuples).  A presentation stores,
for every out-of-order adjacent pair x_j x_i with j > i, the rewrite

    x_j x_i  ->  c * x_i x_j + d_1 x_1 + ... + d_n x_n + d_0

together with per-variable endomorphism/derivation actions on coefficients:

    x_i r  ->  sigma_i(r) x_i + delta_i(r)

Rewriting terminates: each step either lowers total degree or keeps it while
strictly reducing the number of out-of-order adjacent variable pairs.  The
engine evaluates words right-to-left, with deterministic output: a word one
variable at a time, and a product x^alpha * g one power x_i^a at a time, each
through cached products.  Right products by one variable, x^alpha x_j, share
that monomial cache.

The power step x_i^a * x^mono splits x^mono at its first variable x_j.  When
j < i and the pair's rewrite x_i x_j -> c x_j x_i + lower has one of these
shapes,

    no lower terms            x_i^a x_j^m = c^(am) x_j^m x_i^a
    c = 1, lower term g       x_i^a x_j^m = sum_k k! C(a,k) C(m,k) g^k x_j^(m-k) x_i^(a-k)
    c = 1, lower term A x_j   x_i^a x_j^m = x_j^m (x_i + mA)^a
    c = 1, lower term B x_i   x_i^a x_j^m = (x_j + aB)^m x_i^a

the closed form is used, and each resulting x_j^p (x_i^q x^rest) is again a
power step.  The closed forms hold when the scalars are central, so they are
used only over a field without a coefficient generator (F_p or Q), where
every sigma is the identity and every delta is zero.  Every other pair and
ring, and every power a = 1, takes `a` single steps x_i * (...).  The closed
forms assume that the rewrites give a PBW basis, as `validate_presentation`
decides.  Over Q a closed-form power whose coefficients would take more than
MAX_POWER_BITS bits in all is refused with `LimitExceeded`.

Presentations and polynomials are immutable; all operations are pure, so
independent products may be evaluated concurrently with identical results.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from . import rings
from .errors import LimitExceeded, SemanticError
from .rings import DerivationSpec, EndoSpec, Ring

NEG_INF = -math.inf

DEFAULT_SEED = 101

MAX_POWER_BITS = 1 << 23  # coefficient bits, summed, of one closed-form power over Q

Monomial = tuple  # exponent vector, length n


class SkewPoly:
    """Element in PBW normal form: map from exponent tuples to nonzero coefficients."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: "Presentation", terms: dict):
        self.pres = pres
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.pres == other.pres and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        R = self.pres.ring
        return SkewPoly(self.pres, {m: R.neg(c) for m, c in self.terms.items()})

    def __add__(self, other):
        self._same_pres(other)
        R = self.pres.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = R.add(out.get(m, R.zero), c)
            if s == R.zero:
                out.pop(m, None)
            else:
                out[m] = s
        return SkewPoly(self.pres, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SkewPoly):
            self._same_pres(other)
            return self.pres.multiply(self, other)
        return NotImplemented

    def _same_pres(self, other):
        if self.pres != other.pres:
            raise SemanticError("operands belong to different presentations")

    def scale_left(self, r) -> "SkewPoly":
        R = self.pres.ring
        out = {}
        for m, c in self.terms.items():
            v = R.mul(r, c)
            if v != R.zero:
                out[m] = v
        return SkewPoly(self.pres, out)

    def degree(self):
        """Total degree in the variables; the zero element reports -inf."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def constant_coefficient(self):
        zero_m = (0,) * self.pres.n
        return self.terms.get(zero_m, self.pres.ring.zero)

    def is_scalar(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.pres.n}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        R = self.pres.ring
        names = self.pres.names
        pieces = []
        for m, c in self.sorted_terms():
            vars_s = "*".join(
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, m) if e
            )
            cs = R.format(c)
            if not vars_s:
                pieces.append(cs)
                continue
            if cs == "1":
                pieces.append(vars_s)
            else:
                if " + " in cs or " - " in cs:
                    cs = f"({cs})"
                pieces.append(f"{cs}*{vars_s}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"<{self}>"


class Presentation:
    """Presentation data for a skew polynomial extension.

    `c[(i, j)]` and `lower[(i, j)]` with i < j describe the rewrite of
    x_j x_i; `lower` entries are pairs (d0, dks) with dks a length-n tuple.
    Treated as immutable after construction.
    """

    def __init__(self, ring: Ring, names, sigma, delta, c, lower, bijective=False):
        self.ring = ring
        self.names = tuple(names)
        self.n = len(self.names)
        if len(set(self.names)) != self.n or self.n == 0:
            raise SemanticError("variable names must be nonempty and distinct")
        self.sigma = tuple(sigma)
        self.delta = tuple(delta)
        if len(self.sigma) != self.n or len(self.delta) != self.n:
            raise SemanticError("need one sigma and one delta per variable")
        self.c = dict(c)
        self.lower = dict(lower)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                self.c.setdefault((i, j), ring.one)
                self.lower.setdefault((i, j), (ring.zero, (ring.zero,) * self.n))
        for (i, j), cv in self.c.items():
            if not (0 <= i < j < self.n):
                raise SemanticError(f"bad variable pair {(i, j)}")
            if cv == ring.zero:
                raise SemanticError(
                    f"constant for {self.names[j]}*{self.names[i]} must be nonzero"
                )
        for (i, j), (d0, dks) in self.lower.items():
            if not (0 <= i < j < self.n):
                raise SemanticError(f"bad variable pair {(i, j)}")
            if len(dks) != self.n:
                raise SemanticError("lower-term data must cover every variable")
        self.bijective = bool(bijective)
        self._mono_cache: dict = {}
        self._desc = None
        self._sigma_triv = tuple(s.is_identity for s in self.sigma)
        self._delta_zero = tuple(d.is_zero for d in self.delta)
        # closed-form shape per pair (j, i), see the module doc; a ring without a
        # generator admits only the identity sigma and the zero delta
        self._pair_forms = None
        if ring.is_field and ring.generator is None:
            self._pair_forms = {
                pair: _pair_form(ring, *pair, self.c[pair], self.lower[pair]) for pair in self.c
            }

    # -- identity and constructors -------------------------------------------------

    def descriptor(self):
        if self._desc is None:
            self._desc = (
                self.ring.descriptor(),
                self.names,
                tuple(s.gen_image for s in self.sigma),
                tuple(d.gen_image for d in self.delta),
                tuple(sorted(self.c.items())),
                tuple(sorted(self.lower.items())),
                self.bijective,
            )
        return self._desc

    def __eq__(self, other):
        return isinstance(other, Presentation) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"<presentation {'*'.join(self.names)} over {self.ring.describe()}>"

    def zero(self) -> SkewPoly:
        return SkewPoly(self, {})

    def one(self) -> SkewPoly:
        return SkewPoly(self, {(0,) * self.n: self.ring.one})

    def scalar(self, r) -> SkewPoly:
        if r == self.ring.zero:
            return self.zero()
        return SkewPoly(self, {(0,) * self.n: r})

    def var(self, which) -> SkewPoly:
        i = self.var_index(which) if isinstance(which, str) else which
        if not 0 <= i < self.n:
            raise SemanticError(f"variable index {i} is out of range 0..{self.n - 1}")
        return SkewPoly(self, {bump((0,) * self.n, i): self.ring.one})

    def monomial(self, exponents, coeff=None) -> SkewPoly:
        m = tuple(exponents)
        if len(m) != self.n or any(e < 0 for e in m):
            raise SemanticError("exponent vector has wrong shape")
        c = self.ring.one if coeff is None else coeff
        if c == self.ring.zero:
            return self.zero()
        return SkewPoly(self, {m: c})

    def var_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SemanticError(f"unknown variable {name!r}") from None

    # -- rewriting core -------------------------------------------------------------

    def _mono_lmul(self, i: int, mono: Monomial) -> dict:
        """x_i * x^mono as a normal-form term dict (cached)."""
        key = (i, mono)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        R = self.ring
        j = next((k for k, e in enumerate(mono) if e), None)
        if j is None or i <= j:
            out = {bump(mono, i): R.one}
        else:
            rest = bump(mono, j, -1)
            inner = self._mono_lmul(i, rest)
            cv = self.c[(j, i)]
            d0, dks = self.lower[(j, i)]
            out: dict = {}
            _acc_scaled(R, out, cv, self._lmul_var_dict(j, inner))
            if d0 != R.zero:
                _acc_term(R, out, rest, d0)
            for k, dk in enumerate(dks):
                if dk != R.zero:
                    _acc_scaled(R, out, dk, self._mono_lmul(k, rest))
        self._mono_cache[key] = out
        return out

    def _lmul_var_dict(self, i: int, terms: dict) -> dict:
        R = self.ring
        sig, dlt = self.sigma[i], self.delta[i]
        sig_id, dlt_zero = self._sigma_triv[i], self._delta_zero[i]
        out: dict = {}
        for m, cf in terms.items():
            s = cf if sig_id else sig.apply(cf)
            if s != R.zero:
                _acc_scaled(R, out, s, self._mono_lmul(i, m))
            if not dlt_zero:
                d = dlt.apply(cf)
                if d != R.zero:
                    _acc_term(R, out, m, d)
        return out

    def _mono_rmul(self, mono: Monomial, j: int) -> dict:
        """x^mono * x_j as a normal-form term dict (cached).

        x^mono x_j is already normal when j is at or after the last variable
        of x^mono; otherwise x^mono x_j = x_f (x^(mono - e_f) x_j) with x_f the
        first variable of x^mono.  Keys (mono, j) share `_mono_cache` with the
        left products' keys (i, mono) without colliding.
        """
        key = (mono, j)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        if not any(mono[j + 1:]):
            out = {bump(mono, j): self.ring.one}
        else:
            f = next(k for k, e in enumerate(mono) if e)
            out = self._lmul_var_dict(f, self._mono_rmul(bump(mono, f, -1), j))
        self._mono_cache[key] = out
        return out

    def _rmul_var_dict(self, terms: dict, j: int) -> dict:
        """(sum c_m x^m) * x_j: each coefficient stays on the left."""
        R = self.ring
        out: dict = {}
        for m, cf in terms.items():
            _acc_scaled(R, out, cf, self._mono_rmul(m, j))
        return out

    def _lpow_dict(self, i: int, a: int, terms: dict) -> dict:
        """x_i^a * (sum c_m x^m): a power step where the pair allows one.

        Terms whose first variable x_j has j >= i are already normal after
        x_i^a; terms whose pair (j, i) has a closed form take it.  The rest,
        and every term when a <= 1 or the ring has no closed forms, take `a`
        single steps together, as `_lmul_var_dict` gives them.
        """
        if a <= 1 or self._pair_forms is None:
            for _ in range(a):
                terms = self._lmul_var_dict(i, terms)
            return terms
        R = self.ring
        out: dict = {}
        stepped: dict = {}
        for m, cf in terms.items():
            j = next((k for k, e in enumerate(m) if e), i)
            if j >= i:
                _acc_term(R, out, bump(m, i, a), cf)
            elif self._pair_forms[(j, i)] is None:
                stepped[m] = cf
            else:
                _acc_scaled(R, out, cf, self._mono_lpow(i, a, m, j))
        if stepped:
            for _ in range(a):
                stepped = self._lmul_var_dict(i, stepped)
            for m, cf in stepped.items():
                _acc_term(R, out, m, cf)
        return out

    def _mono_lpow(self, i: int, a: int, mono: Monomial, j: int) -> dict:
        """x_i^a * x^mono (cached) where x_j, j < i, is the first variable of
        x^mono and the pair (j, i) has a closed form.

        With x^mono = x_j^m x^rest, x_i^a x_j^m = sum c x_j^p x_i^q gives
        x_i^a x^mono = sum c x_j^p (x_i^q x^rest), two more power steps per
        term.  Keys (i, a, mono) share `_mono_cache` with the single products'
        keys (i, mono) and (mono, j) without colliding.
        """
        key = (i, a, mono)
        hit = self._mono_cache.get(key)
        if hit is not None:
            return hit
        R = self.ring
        m = mono[j]
        rest = bump(mono, j, -m)
        label = f"{self.names[i]}^{a}*{self.names[j]}^{m}"
        out: dict = {}
        for cf, p, q in _closed_power(R, self._pair_forms[(j, i)], a, m, label):
            _acc_scaled(R, out, cf, self._lpow_dict(j, p, self._lpow_dict(i, q, {rest: R.one})))
        self._mono_cache[key] = out
        return out

    def _lmul_scalar_dict(self, r, terms: dict) -> dict:
        R = self.ring
        out = {}
        for m, cf in terms.items():
            v = R.mul(r, cf)
            if v != R.zero:
                out[m] = v
        return out

    def from_word(self, atoms) -> SkewPoly:
        """Normal form of a word of ('v', index) / ('c', payload) atoms."""
        acc = {(0,) * self.n: self.ring.one}
        for tag, val in reversed(tuple(atoms)):
            if tag == "v":
                acc = self._lmul_var_dict(val, acc)
            elif tag == "c":
                acc = self._lmul_scalar_dict(val, acc)
            else:
                raise SemanticError(f"bad word atom {(tag, val)!r}")
            if not acc:
                break
        return SkewPoly(self, acc)

    def normalize_terms(self, word_terms) -> SkewPoly:
        """Normal form of a formal sum of words."""
        total = self.zero()
        for atoms in word_terms:
            total = total + self.from_word(atoms)
        return total

    def multiply(self, f: SkewPoly, g: SkewPoly) -> SkewPoly:
        R = self.ring
        out: dict = {}
        for alpha, cf in f.terms.items():
            part = g.terms
            for i in range(self.n - 1, -1, -1):
                part = self._lpow_dict(i, alpha[i], part)
            _acc_scaled(R, out, cf, part)
        return SkewPoly(self, out)

    def random_poly(self, rng, degree_bound: int, nonzero: bool = False) -> SkewPoly:
        monos = monomials_up_to(self.n, degree_bound)
        while True:
            out = {}
            for m in monos:
                if rng.random() < 0.4:
                    c = self.ring.random_element(rng)
                    if c != self.ring.zero:
                        out[m] = c
            if out or not nonzero:
                return SkewPoly(self, out)


def bump(mono: Monomial, i: int, by: int = 1) -> Monomial:
    out = list(mono)
    out[i] += by
    return tuple(out)


def _acc_term(R, out: dict, m: Monomial, c):
    s = R.add(out.get(m, R.zero), c)
    if s == R.zero:
        out.pop(m, None)
    else:
        out[m] = s


def _acc_scaled(R, out: dict, r, terms: dict):
    for m, c in terms.items():
        _acc_term(R, out, m, R.mul(r, c))


def _pair_form(R, j: int, i: int, cv, lower):
    """Closed-form shape of the rewrite x_i x_j -> cv x_j x_i + lower (j < i), or None."""
    d0, dks = lower
    lows = [k for k, dk in enumerate(dks) if dk != R.zero]
    if d0 == R.zero and not lows:
        return ("q", cv)
    if cv != R.one:
        return None
    if not lows:
        return ("weyl", d0)
    if d0 == R.zero and lows == [j]:
        return ("left", dks[j])  # x_i x_j = x_j (x_i + A)
    if d0 == R.zero and lows == [i]:
        return ("right", dks[i])  # x_i x_j = (x_j + B) x_i
    return None


def _closed_power(R, form, a: int, m: int, label: str) -> list:
    """x_i^a x_j^m = sum cf x_j^p x_i^q for a pair of the given shape, as
    triples (cf, p, q) with cf nonzero.

    Each coefficient is a few field operations from the one before.  Over F_p,
    k! vanishes from k = p on, so a Weyl power takes O(min(a, m, p))
    operations.  Over Q, whose coefficients grow without bound, a power whose
    coefficients take more than MAX_POWER_BITS bits in all is refused, and so
    is a power with one coefficient too long to print (see `_check_digits`).
    """
    kind, v = form
    if kind == "q":  # v^(am) takes am log2|n d| bits for v = n/d: refuse it before computing it
        if R.size is None:
            _check_bits(R, a * m * math.log2(abs(v.numerator) * v.denominator), label)
            _check_digits(R, a * m * math.log10(max(abs(v.numerator), v.denominator)), label)
        return [(R.pow(v, a * m), m, a)]
    if kind == "weyl":
        terms = ((cf, m - k, a - k) for k, cf in enumerate(_weyl_coeffs(R, v, a, m)))
    elif kind == "left":  # x_j^m sum_t C(a,t) (mA)^t x_i^(a-t)
        terms = ((cf, m, a - t) for t, cf in enumerate(_binomial_terms(R, a, R.mul(R.from_int(m), v))))
    else:  # sum_t C(m,t) (aB)^t x_j^(m-t) x_i^a
        terms = ((cf, m - t, a) for t, cf in enumerate(_binomial_terms(R, m, R.mul(R.from_int(a), v))))
    out, bits = [], 0
    for term in terms:
        cf = term[0]
        if cf != R.zero:
            if R.size is None:
                bits += cf.numerator.bit_length() + cf.denominator.bit_length()
                _check_bits(R, bits, label)
                _check_digits(R, math.log10(max(abs(cf.numerator), cf.denominator)), label)
            out.append(term)
    return out


def _weyl_coeffs(R, g, a: int, m: int):
    """k! C(a,k) C(m,k) g^k for k = 0, 1, ... until it vanishes (in F_p, from k = p on)."""
    top = min(a, m) if R.size is None else min(a, m, R.size - 1)
    cf = R.one
    for k in range(top + 1):
        if k:  # k < p over F_p, so k is a unit
            cf = R.mul(R.mul(cf, g), R.mul(R.from_int((a - k + 1) * (m - k + 1)), R.inv(R.from_int(k))))
        if cf == R.zero:
            return
        yield cf


def _binomial_terms(R, n: int, s):
    """C(n,t) s^t for t = 0..n, stopping early when s = 0.

    C(n,t) = C(n,t-1) (n-t+1)/t; over F_p the factors p of each numerator and
    denominator are counted apart, so every step divides by a unit, and C(n,t)
    is zero in F_p exactly while that count is positive.
    """
    p = R.size
    unit, val, st = R.one, 0, R.one
    for t in range(n + 1):
        if t:
            num, den = n - t + 1, t
            while p and num % p == 0:
                num //= p
                val += 1
            while p and den % p == 0:
                den //= p
                val -= 1
            unit = R.mul(unit, R.mul(R.from_int(num), R.inv(R.from_int(den))))
            st = R.mul(st, s)
            if st == R.zero:
                return
        yield R.zero if val else R.mul(unit, st)


def _check_bits(R, bits: float, label: str):
    if bits > MAX_POWER_BITS:
        raise LimitExceeded(
            f"{label} needs coefficients of more than {MAX_POWER_BITS} bits over {R.describe()}, "
            "the limit for one power product"
        )


def _check_digits(R, digits: float, label: str):
    """Refuse a Q coefficient too long for Python to print: `digits` is log10
    of the larger of its numerator and denominator, which has more decimal
    digits than the limit exactly when `digits` reaches it.

    A q-power is checked before it is computed, and each Weyl or shift
    coefficient before the next is computed from it.
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and digits >= limit:
        raise LimitExceeded(
            f"{label} needs a coefficient of more than {limit} decimal digits over {R.describe()}, "
            "the limit sys.get_int_max_str_digits() sets for printing an integer"
        )


def monomials_up_to(n: int, degree_bound: int) -> list[Monomial]:
    """Exponent vectors of total degree <= bound, graded-lex order."""
    out = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(degree_bound + 1 - sum(m))]
    return sorted(out, key=lambda m: (sum(m), m))


def is_quasi_commutative(P: Presentation) -> bool:
    """True iff every derivation is zero and every pair rewrite has no lower part."""
    if not all(d.is_zero for d in P.delta):
        return False
    R = P.ring
    for d0, dks in P.lower.values():
        if d0 != R.zero or any(dk != R.zero for dk in dks):
            return False
    return True


def associated_graded(P: Presentation) -> Presentation:
    """Degree-filtration graded presentation: drop derivations and lower terms."""
    R = P.ring
    zero_delta = tuple(DerivationSpec(R, s) for s in P.sigma)
    zero_lower = {k: (R.zero, (R.zero,) * P.n) for k in P.lower}
    return Presentation(R, P.names, P.sigma, zero_delta, dict(P.c), zero_lower, P.bijective)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class PresentationReport:
    checks: list[CheckResult] = field(default_factory=list)
    seed: int = DEFAULT_SEED

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), detail))

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "ok": self.ok,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def validate_presentation(P: Presentation, samples: int = 200, seed: int = DEFAULT_SEED) -> PresentationReport:
    """Decide whether the rules of P give a PBW basis; nothing is sampled.

    `seed` is only recorded in the report and `samples` is ignored.  By
    Bergman's diamond lemma (Adv. Math. 29, 1978), over the base field k the
    reductions x_j x_i -> c x_i x_j + d_1 x_1 + ... + d_n x_n + d_0 (j > i),
    x_i t -> sigma_i(t) x_i + delta_i(t) for the coefficient generator t of
    k[t] or F_p[x]/(f), and t^d -> t^d - f(t) have the normal forms r x^alpha
    as irreducible words.  They decrease the semigroup order comparing
    x-degree, then inversions of the x-word, then the t-exponents between the
    x's read from the right (inversions first, as a constant c may involve
    t), which has no infinite descending chain.  So the normal forms are a
    basis iff these ambiguities resolve, each a named check:

        x_k x_j x_i (k > j > i)  associativity (x_k*x_j)*x_i
        x_j x_i t (j > i)        associativity (x_j*x_i)*r, with r = t
        x_i t^d                  sigma[x_i] ring map, delta[x_i] twisted Leibniz

    The engine compares both bracketings of the first two; over a field there
    is no t and r = 1 passes trivially.  `rings.check_endo_laws` and
    `rings.check_derivation_laws` decide the third exactly.
    """
    rep = PresentationReport(seed=seed)
    R = P.ring

    for (i, j), cv in sorted(P.c.items()):
        label = f"constant {P.names[j]}*{P.names[i]}"
        if cv == R.zero:
            rep.add(label, False, "zero constant")
        elif P.bijective and not R.is_unit(cv):
            rep.add(label, False, f"{R.format(cv)} is not a unit but the presentation is bijective")
        else:
            rep.add(label, True)

    for i, (sg, dl) in enumerate(zip(P.sigma, P.delta)):
        bad = rings.check_endo_laws(sg)
        rep.add(f"sigma[{P.names[i]}] ring map", not bad, "; ".join(bad))
        if P.bijective:
            ok = sg.bijectivity_known()
            rep.add(
                f"sigma[{P.names[i]}] bijective",
                ok,
                "" if ok else "generator image is not invertible",
            )
        bad = rings.check_derivation_laws(dl)
        rep.add(f"delta[{P.names[i]}] twisted Leibniz", not bad, "; ".join(bad))

    def bracketings(name, left, right):
        if left == right:
            rep.add(name, True)
        else:
            rep.add(name, False, f"left={left} right={right}")

    for k in range(P.n - 1, -1, -1):
        for j in range(k - 1, -1, -1):
            for i in range(j - 1, -1, -1):
                xk, xj, xi = P.var(k), P.var(j), P.var(i)
                bracketings(f"associativity ({P.names[k]}*{P.names[j]})*{P.names[i]}",
                            (xk * xj) * xi, xk * (xj * xi))

    r = P.scalar(R.one if R.generator is None else R.generator)
    for j in range(P.n):
        for i in range(j):
            xj, xi = P.var(j), P.var(i)
            bracketings(f"associativity ({P.names[j]}*{P.names[i]})*r", (xj * xi) * r, xj * (xi * r))
    return rep


@dataclass
class ProbeReport:
    trials: int
    degree_bound: int
    seed: int
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def as_dict(self):
        return {
            "trials": self.trials,
            "degree_bound": self.degree_bound,
            "seed": self.seed,
            "counterexamples": [(str(f), str(g)) for f, g in self.counterexamples],
            "ok": self.ok,
        }


def zero_divisor_probe(P: Presentation, trials: int, degree_bound: int, seed: int = DEFAULT_SEED) -> ProbeReport:
    """Random nonzero products; any vanishing product falsifies the presentation."""
    import random as _random

    if not P.ring.is_domain:
        raise SemanticError("zero-divisor probe needs a domain coefficient ring")
    rng = _random.Random(seed)
    rep = ProbeReport(trials=trials, degree_bound=degree_bound, seed=seed)
    for _ in range(trials):
        f = P.random_poly(rng, degree_bound, nonzero=True)
        g = P.random_poly(rng, degree_bound, nonzero=True)
        if not (f * g):
            rep.counterexamples.append((f, g))
    return rep
