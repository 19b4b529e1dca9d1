"""Exact coefficient-ring backends.

Every ring is a descriptor object; elements are plain hashable payloads in a
canonical form, so equality of elements is structural equality:

    prime field F_p      int in [0, p)
    rationals Q          fractions.Fraction
    residue ring Z/n     int in [0, n)
    poly ring k[t]       tuple of base payloads, ascending degree, no trailing zeros
    quotient F_p[x]/(f)  tuple of ints, length < deg(f), no trailing zeros

All arithmetic is exact; no floating point anywhere.  Values are immutable and
all operations are pure, so everything here is safe under concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import InfiniteRing, KindMismatch, NotAUnit


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def power(a, k: int, mul, one):
    """a^k for k >= 0 under an associative `mul` with unit `one`, by square-and-multiply."""
    out = one
    while k:
        if k & 1:
            out = mul(out, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return out


class Ring:
    """Common surface of all coefficient rings.

    Subclasses set `kind`, `size` (None when infinite), `is_field`,
    `is_domain`, `zero`, `one`, and implement the arithmetic methods.  Rings
    without a `generator` t admit only the identity map and the zero derivation;
    `relations` lists the polynomials in t, as unreduced coefficient tuples,
    that the ring sets to zero.
    """

    kind: str
    size: int | None
    is_field: bool
    is_domain: bool
    generator = None
    relations: tuple = ()

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def unit_inverse(self, a):
        """Two-sided inverse of `a`, or None when `a` is not a unit."""
        raise NotImplementedError

    def inv(self, a):
        w = self.unit_inverse(a)
        if w is None:
            raise NotAUnit(f"{self.format(a)} is not a unit in {self}")
        return w

    def is_unit(self, a) -> bool:
        return self.unit_inverse(a) is not None

    def is_zero(self, a) -> bool:
        return a == self.zero

    def pow(self, a, k: int):
        return power(a, k, self.mul, self.one)

    def from_int(self, k: int):
        """Canonical image of the integer k."""
        raise NotImplementedError

    def check(self, a):
        """Validate that `a` is a canonical payload of this ring."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        """Each element exactly once, in a fixed deterministic order."""
        raise InfiniteRing(f"{self} is not finite")

    def random_element(self, rng):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def descriptor(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        raise NotImplementedError


class Rationals(Ring):
    kind = "rationals"
    size = None
    is_field = True
    is_domain = True
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def unit_inverse(self, a):
        if a == 0:
            return None
        return 1 / Fraction(a)

    def from_int(self, k):
        return Fraction(k)

    def check(self, a):
        if not isinstance(a, Fraction):
            raise KindMismatch(f"{a!r} is not a canonical element of Q")
        return a

    def random_element(self, rng):
        # small pool keeps downstream searches and displays readable
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def descriptor(self):
        return ("rationals",)

    def describe(self):
        return "Q"


class ResidueRing(Ring):
    """Z/n with n >= 2, composite n allowed (zero divisors welcome)."""

    kind = "residue"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.size = n
        self.is_field = self.is_domain = _is_prime(n)
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def unit_inverse(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:
            return None

    def from_int(self, k):
        return k % self.n

    def check(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.n:
            raise KindMismatch(f"{a!r} is not a canonical element of {self}")
        return a

    def elements(self):
        return iter(range(self.n))

    def random_element(self, rng):
        return rng.randrange(self.n)

    def descriptor(self):
        return ("residue", self.n)

    def describe(self):
        return f"Z/{self.n}"


class PrimeField(ResidueRing):
    """F_p: the residue ring of a prime modulus, with its own kind and name."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p

    def descriptor(self):
        return ("prime-field", self.p)

    def describe(self):
        return f"F_{self.p}"


def _trim(cs: tuple, zero) -> tuple:
    k = len(cs)
    while k and cs[k - 1] == zero:
        k -= 1
    return tuple(cs[:k])


class _Univariate(Ring):
    """Payloads are ascending coefficient tuples over the field `base`.

    Shared by k[t] and F_p[x]/(f), which differ only in `mul`.
    """

    def scale(self, c, a):
        if c == self.base.zero:
            return ()
        return _trim(tuple(self.base.mul(c, x) for x in a), self.base.zero)

    def compose(self, a, g):
        """a(g), by Horner's rule."""
        acc = ()
        for c in reversed(a):
            acc = self.add(self.mul(acc, g), (c,) if c != self.base.zero else ())
        return acc


class PolynomialRing(_Univariate):
    """Univariate polynomials over a base field (F_p or Q)."""

    kind = "univariate-poly"
    size = None
    is_field = False
    is_domain = True

    def __init__(self, base: Ring, gen_name: str = "t"):
        if not base.is_field:
            raise ValueError("polynomial coefficients must come from a field")
        self.base = base
        self.gen_name = gen_name
        self.zero = ()
        self.one = (base.one,)
        self.generator = (base.zero, base.one)

    def add(self, a, b):
        n = max(len(a), len(b))
        z = self.base.zero
        out = [self.base.add(a[i] if i < len(a) else z, b[i] if i < len(b) else z) for i in range(n)]
        return _trim(tuple(out), z)

    def neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        z = self.base.zero
        out = [z] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == z:
                continue
            for j, cb in enumerate(b):
                out[i + j] = self.base.add(out[i + j], self.base.mul(ca, cb))
        return _trim(tuple(out), z)

    def deg(self, a) -> int:
        # zero polynomial reports -1
        return len(a) - 1

    def divmod(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        z = self.base.zero
        inv_lead = self.base.inv(b[-1])
        rem = list(a)
        quo = [z] * max(0, len(a) - len(b) + 1)
        for i in range(len(a) - len(b), -1, -1):
            c = rem[i + len(b) - 1]
            if c == z:
                continue
            q = self.base.mul(c, inv_lead)
            quo[i] = q
            for j, cb in enumerate(b):
                rem[i + j] = self.base.sub(rem[i + j], self.base.mul(q, cb))
        return _trim(tuple(quo), z), _trim(tuple(rem), z)

    def derivative(self, a):
        return _trim(tuple(self.base.mul(self.base.from_int(k), c) for k, c in enumerate(a))[1:],
                     self.base.zero)

    def monic(self, a):
        if not a:
            return a
        return self.scale(self.base.inv(a[-1]), a)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.monic(a)

    def ext_gcd(self, a, b):
        """(g, s, u) with s*a + u*b = g, g monic when nonzero."""
        r0, r1 = a, b
        s0, s1 = self.one, self.zero
        t0, t1 = self.zero, self.one
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
            t0, t1 = t1, self.sub(t0, self.mul(q, t1))
        if r0:
            lead = self.base.inv(r0[-1])
            r0, s0, t0 = self.scale(lead, r0), self.scale(lead, s0), self.scale(lead, t0)
        return r0, s0, t0

    def unit_inverse(self, a):
        if len(a) != 1:
            return None
        w = self.base.unit_inverse(a[0])
        return None if w is None else (w,)

    def from_int(self, k):
        c = self.base.from_int(k)
        return (c,) if c != self.base.zero else ()

    def check(self, a):
        if not isinstance(a, tuple):
            raise KindMismatch(f"{a!r} is not a canonical element of {self}")
        for c in a:
            self.base.check(c)
        if a and a[-1] == self.base.zero:
            raise KindMismatch("trailing zero coefficient")
        return a

    def random_element(self, rng, max_deg: int = 3):
        cs = tuple(self.base.random_element(rng) for _ in range(rng.randint(0, max_deg) + 1))
        return _trim(cs, self.base.zero)

    def polys_up_to(self, max_deg: int):
        """All polynomials of degree <= max_deg, in base-p counting order.

        Only available over a finite base field.
        """
        if self.base.size is None:
            raise InfiniteRing("cannot enumerate polynomials over Q")
        base_elems = list(self.base.elements())
        p = len(base_elems)
        out = []
        for code in range(p ** (max_deg + 1)):
            cs = []
            v = code
            for _ in range(max_deg + 1):
                cs.append(base_elems[v % p])
                v //= p
            out.append(_trim(tuple(cs), self.base.zero))
        return out

    def format(self, a) -> str:
        if not a:
            return "0"
        pieces = []
        for k in range(len(a) - 1, -1, -1):
            c = a[k]
            if c == self.base.zero:
                continue
            cs = self.base.format(c)
            if k == 0:
                pieces.append(cs)
            else:
                head = "" if cs == "1" else cs + "*"
                pow_s = self.gen_name if k == 1 else f"{self.gen_name}^{k}"
                pieces.append(head + pow_s)
        return " + ".join(pieces)

    def descriptor(self):
        return ("univariate-poly", self.base.descriptor(), self.gen_name)

    def describe(self):
        return f"{self.base.describe()}[{self.gen_name}]"


class QuotientRing(_Univariate):
    """F_p[x]/(f) for a monic modulus f of degree >= 1."""

    kind = "quotient-poly"
    is_field = False

    def __init__(self, p: int, modulus: tuple, gen_name: str = "x"):
        self.base = PrimeField(p)
        self.poly = PolynomialRing(self.base, gen_name)
        modulus = _trim(tuple(modulus), 0)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.modulus = modulus
        self.gen_name = gen_name
        self.degree = len(modulus) - 1
        self.size = p ** self.degree
        self.zero = ()
        self.one = (1,) if self.size > 1 else ()
        self.generator = self._reduce((0, 1))
        self.relations = (modulus,)
        # a quotient by an irreducible modulus is a field
        self.is_field = self._modulus_irreducible()
        self.is_domain = self.is_field

    def _modulus_irreducible(self) -> bool:
        """Rabin's test: f of degree d is irreducible over F_p iff x^(p^d) = x
        mod f and gcd(x^(p^(d/q)) - x, f) = 1 for every prime q dividing d."""
        d, x = self.degree, self.generator
        frob = [x]  # frob[k] = x^(p^k) mod f
        for _ in range(d):
            frob.append(self.pow(frob[-1], self.p))
        if frob[d] != x:
            return False
        return not any(
            d % q == 0 and _is_prime(q)
            and self.poly.gcd(self.modulus, self.sub(frob[d // q], x)) != self.one
            for q in range(2, d + 1)
        )

    def _reduce(self, a):
        return self.poly.divmod(_trim(tuple(a), 0), self.modulus)[1]

    def add(self, a, b):
        return self.poly.add(a, b)

    def neg(self, a):
        return self.poly.neg(a)

    def mul(self, a, b):
        return self._reduce(self.poly.mul(a, b))

    def unit_inverse(self, a):
        g, s, _ = self.poly.ext_gcd(a, self.modulus)
        if g != self.poly.one:
            return None
        return self._reduce(s)

    def from_int(self, k):
        c = k % self.p
        return (c,) if c else ()

    def check(self, a):
        self.poly.check(a)
        if len(a) >= len(self.modulus):
            raise KindMismatch("payload not reduced modulo the modulus")
        return a

    def elements(self):
        for code in range(self.size):
            cs = []
            v = code
            for _ in range(self.degree):
                cs.append(v % self.p)
                v //= self.p
            yield _trim(tuple(cs), 0)

    def random_element(self, rng):
        return _trim(tuple(rng.randrange(self.p) for _ in range(self.degree)), 0)

    def format(self, a) -> str:
        return self.poly.format(a)

    def descriptor(self):
        return ("quotient-poly", self.p, self.modulus, self.gen_name)

    def describe(self):
        return f"F_{self.p}[{self.gen_name}]/({self.poly.format(self.modulus)})"


@dataclass(frozen=True)
class EndoSpec:
    """Ring endomorphism given by the image of the coefficient generator.

    `gen_image is None` means the identity map.  Rings without a generator
    (fields, residue rings) only admit the identity.  Whether the map is
    injective or bijective is decided exactly (see `injectivity_known`).
    """

    ring: Ring
    gen_image: tuple | None = None

    def __post_init__(self):
        if self.gen_image is not None:
            if self.ring.generator is None:
                raise ValueError(f"{self.ring} has no generator to remap")
            self.ring.check(self.gen_image)
            if self.gen_image == self.ring.generator:
                object.__setattr__(self, "gen_image", None)  # canonical identity

    @property
    def is_identity(self) -> bool:
        return self.gen_image is None

    def apply(self, a):
        return a if self.gen_image is None else self.ring.compose(a, self.gen_image)

    def injectivity_known(self) -> bool:
        """Exact verdict.  k[t]: iff the image g is non-constant.  F_p[x]/(f) of
        degree d: `apply` is the F_p-linear map x^k -> g^k (k < d), so iff
        1, g, ..., g^(d-1) are independent, found by an echelon basis."""
        R, g = self.ring, self.gen_image
        if g is None:
            return True
        if isinstance(R, PolynomialRing):
            return R.deg(g) >= 1
        basis = {}  # degree -> monic polynomial
        img = R.one
        for _ in range(R.degree):
            v = img
            while v and len(v) in basis:
                v = R.sub(v, R.scale(v[-1], basis[len(v)]))
            if not v:
                return False
            basis[len(v)] = R.poly.monic(v)
            img = R.mul(img, g)
        return True

    def bijectivity_known(self) -> bool:
        """k[t]: bijective iff g = a t + b with a a unit; a finite ring: iff injective."""
        R, g = self.ring, self.gen_image
        if g is not None and isinstance(R, PolynomialRing):
            return R.deg(g) == 1 and R.base.is_unit(g[1])
        return self.injectivity_known()


@dataclass(frozen=True)
class DerivationSpec:
    """sigma-derivation given by the image of the coefficient generator.

    Extension to the whole ring uses the twisted Leibniz rule
    delta(ab) = sigma(a) delta(b) + delta(a) b, with delta vanishing on the
    base field.  `gen_image is None` means the zero map.
    """

    ring: Ring
    sigma: EndoSpec
    gen_image: tuple | None = None

    def __post_init__(self):
        if self.gen_image is not None:
            if self.ring.generator is None:
                raise ValueError(f"{self.ring} only supports the zero derivation")
            self.ring.check(self.gen_image)
            if self.gen_image == self.ring.zero:
                object.__setattr__(self, "gen_image", None)  # canonical zero map
        if self.sigma.ring != self.ring:
            raise ValueError("twisting endomorphism acts on a different ring")

    @property
    def is_zero(self) -> bool:
        return self.gen_image is None

    def apply(self, a):
        R = self.ring
        if self.is_zero:
            return R.zero
        dt = self.gen_image
        t = R.generator
        st = self.sigma.apply(t)
        # delta(t^k) = sigma(t) delta(t^(k-1)) + delta(t) t^(k-1)
        out = R.zero
        d_pow = R.zero
        t_pow = R.one
        for k, c in enumerate(a):
            if k > 0:
                d_pow = R.add(R.mul(st, d_pow), R.mul(dt, t_pow))
                t_pow = R.mul(t_pow, t)
            if c != R.base.zero:
                out = R.add(out, R.scale(c, d_pow))
        return out


def check_endo_laws(spec: EndoSpec) -> list[str]:
    """Exact check that sigma is a well-defined ring endomorphism; returns failures.

    `apply` is Horner evaluation at the image g of t, so it is a k-algebra map
    on k[t], and on F_p[x]/(f) it is well defined iff f(g) = 0 mod f.
    """
    R, s = spec.ring, spec.apply
    if spec.is_identity:
        return []
    return [f"sigma({R.format(f)}) = {R.format(s(f))}, not 0" for f in R.relations if s(f) != R.zero]


def check_derivation_laws(spec: DerivationSpec) -> list[str]:
    """Exact check that delta is a well-defined sigma-derivation; returns failures.

    t -> M = [[sigma(t), delta(t)], [0, t]] extends to a k-algebra map on k[t]
    (k[M] is commutative) sending a to [[sigma(a), delta(a)], [0, a]], with
    delta(a) as `apply` computes it, which is the twisted Leibniz rule.  On
    F_p[x]/(f) delta is well defined iff the corner delta(f) of f(M) is 0 mod f.
    """
    R, d = spec.ring, spec.apply
    return [f"delta({R.format(f)}) = {R.format(d(f))}, not 0" for f in R.relations if d(f) != R.zero]
