"""The benchmark's workloads: seeded request streams, the core calls, checks.

Each workload is built from a seed (its set-up), then yields an endless
stream of requests in rounds.  Every round holds a fixed number of requests
of each kind (the workload's ROUND), in a seeded order, with seeded
parameters; fixing the mix per round keeps the cost distribution, and so the
latency percentiles, the same from one seed to the next.  The last request of
a round is marked, and a timed run ends only at a round's end.  Where a
workload's counts come from is stated at its ROUND and in README.md.  A
request's core call is what one CLI subcommand does after parsing its
arguments.  Inputs are built by the generator, outside the timed call.

`check` verifies an output with the independent oracles in `checks.py` and
returns None or a message; `canon` gives the text whose digest is frozen for
the default seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import checks
from skewpbw import catalog, matrices, parsing, pbw, zariski
from skewpbw.errors import NotFoundWithinBound
from skewpbw.matrices import PolyMatrix
from skewpbw.pbw import SkewPoly

PRIMES = (5, 7, 11, 13, 101)
FIELDS = PRIMES + (None,)  # None is Q


@dataclass(frozen=True)
class Request:
    kind: str
    params: tuple  # everything that defines the request; part of its digest
    inputs: object = None  # prebuilt operands, determined by params
    ends_round: bool = False


def _rounds(rng, counts, make):
    """Endless rounds: each kind repeated by its count, in a seeded order."""
    while True:
        deck = [kind for kind, k in counts for _ in range(k)]
        rng.shuffle(deck)
        for kind in deck[:-1]:
            yield make(kind)
        yield replace(make(deck[-1]), ends_round=True)


class _Deck:
    """Seeded cycle through a list of choices, so each appears equally often."""

    def __init__(self, rng, choices):
        self.rng, self.choices, self.left = rng, list(choices), []

    def draw(self):
        if not self.left:
            self.left = list(self.choices)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _poly_text(f: SkewPoly) -> str:
    return repr(sorted(f.terms.items()))


# -- rewrite-cold ------------------------------------------------------------------------

# Algebras whose `check` over Q stays under ~40 ms; manin, shift-operators and
# q-dilation take 90-230 ms over Q and are checked over F_p only.
CHEAP_Q_CHECKS = ("additive-analogue", "dispin", "multiplicative-analogue", "polynomial-ring",
                  "q-heisenberg", "quantum-plane", "usl2", "weyl")

# Exponents a, b of x^a*t^b (weyl1) and y^a*x^b (qplane), over F_p and over Q.
EXPONENTS = {"F_p": (4, 40), "Q": (3, 16)}

REVERSED_WORDS = {  # variable names in PBW order; the word lists them reversed
    "usl2": ("e", "f", "h"),
    "dispin": ("x", "y", "z"),
    "q-heisenberg": ("x", "y", "z"),
    "manin": ("a", "c", "d"),
}


class RewriteCold:
    """Every request builds a fresh presentation, so the monomial cache starts empty."""

    name = "rewrite-cold"
    # No test or suite builds a fresh presentation per call, so no count in the
    # repository fits this workload.  The counts are an assumption: the five
    # request families the CLI offers here are equally frequent, and each
    # request's coefficient field is dealt evenly from F_5, F_7, F_11, F_13,
    # F_101 and Q.
    ROUND = (("weyl1", 20), ("qplane", 20), ("weyl2", 20), ("reversed", 20), ("check", 20))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fields = _Deck(self.rng, FIELDS)
        self.algebras = _Deck(self.rng, catalog.catalog_names())
        self.cheap_q = _Deck(self.rng, CHEAP_Q_CHECKS)
        self.reversed = _Deck(self.rng, sorted(REVERSED_WORDS))
        self.reversed_q = _Deck(self.rng, ("usl2", "dispin", "q-heisenberg"))

    def requests(self):
        return _rounds(self.rng, self.ROUND, self._make)

    def _make(self, kind) -> Request:
        rng = self.rng
        r = rng.randint
        p = self.fields.draw()
        if kind in ("weyl1", "qplane"):
            lo, hi = EXPONENTS["Q" if p is None else "F_p"]
            a, b = r(lo, hi), r(lo, hi)
        if kind == "weyl1":
            return Request("normalize", ("weyl", p, (), f"x^{a}*t^{b}", ("weyl1", a, b)))
        if kind == "qplane":
            q = r(2, 5) if p is None else r(2, min(p - 1, 9))
            return Request("normalize", ("quantum-plane", p, (("q", q),), f"y^{a}*x^{b}",
                                         ("qplane", a, b, q)))
        if kind == "weyl2":
            hi = 3 if p is None else 6
            e = [r(1, hi) for _ in range(4)]
            return Request("normalize", ("weyl", p, (("n", 2),),
                                         f"x1^{e[0]}*t1^{e[1]}*x2^{e[2]}*t2^{e[3]}", ("weyl2", *e)))
        if kind == "reversed":
            alg = self.reversed.draw() if p is not None else self.reversed_q.draw()
            names = REVERSED_WORDS[alg]
            exps = tuple(r(1, 7 if p is not None else 4) for _ in names)
            opts = () if alg in ("usl2", "dispin") else (("q", r(2, 4)),)
            word = "*".join(f"{nm}^{e}" for nm, e in reversed(list(zip(names, exps))))
            return Request("normalize", (alg, p, opts, word, ("leading", alg, exps)))
        alg = self.algebras.draw() if p is not None else self.cheap_q.draw()
        return Request("check", (alg, p, ()))  # the catalog's default parameters, as the CLI

    @staticmethod
    def _build(alg, p, opts):
        return catalog.build(alg, p=p, rationals=p is None, **dict(opts))

    def execute(self, req: Request):
        if req.kind == "normalize":
            alg, p, opts, word, _ = req.params
            return parsing.eval_expr(word, self._build(alg, p, opts))
        alg, p, opts = req.params
        built = self._build(alg, p, opts)
        parsed = catalog.parse_presentation_file(catalog.serialize(built))
        return built, parsed, pbw.validate_presentation(parsed, samples=200, seed=pbw.DEFAULT_SEED)

    def check(self, req: Request, out):
        if req.kind == "check":
            built, parsed, report = out
            if parsed != built:
                return "round-tripped presentation differs from the built one"
            if not report.ok:
                return "validation failed: " + ", ".join(c.name for c in report.failures())
            return None
        _, p, _, _, form = req.params
        if form[0] == "weyl1":
            return checks.check_terms(out.terms, checks.weyl1_form(form[1], form[2], p))
        if form[0] == "weyl2":
            return checks.check_terms(out.terms, checks.weyl2_form(*form[1:], p))
        if form[0] == "qplane":
            return checks.check_terms(out.terms, checks.qplane_form(*form[1:], p))
        alg, exps = form[1], form[2]
        q = dict(req.params[2]).get("q", 1)
        coeff = checks.leading_constant(alg, exps, q, p)
        if alg == "manin":  # coefficients live in K[b]: the constant polynomial
            coeff = (coeff,)
        return checks.check_leading(out.terms, exps, coeff)

    def canon(self, req: Request, out) -> str:
        if req.kind == "check":
            return catalog.serialize(out[1]) + repr(out[2].as_dict())
        return repr(sorted(out.terms.items()))

    @staticmethod
    def result_terms(req: Request, out) -> int:
        return len(out.terms) if req.kind == "normalize" else 0

    @staticmethod
    def presentations(req: Request, out):
        return (out.pres,) if req.kind == "normalize" else (out[1],)


# -- witness -------------------------------------------------------------------------------


class Witness:
    """Presentations are built once, so PBW products hit a warm monomial cache."""

    name = "witness"
    # Acceptance criterion 10 runs 6561 F_3[x] pair searches for each 100
    # completions of criterion 11: 66 to 1.  Its single A_1 witness, and
    # reduce-stable, which no criterion runs, are an assumption: one each per
    # completion, so every round reaches the larger systems and the searches
    # that exhaust their bounds.
    ROUND = (("unimod-fpx", 66), ("unimod-alg", 1), ("reduce-stable", 1), ("complete", 1))
    ALGEBRAS = (("weyl", 101, ()), ("weyl", 7, ()), ("weyl", 7, (("n", 2),)), ("usl2", 7, ()),
                ("dispin", 7, ()), ("quantum-plane", 7, ()), ("q-heisenberg", 7, ()),
                ("additive-analogue", 7, ()))
    REDUCE_CASES = ("fpx3-r3-a1", "fpx3-r2-a2", "fpx5-r2-a1", "fpx5-r2-a2", "common-3",
                    "common-5", "weyl3-r2-a1")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pres = {}
        for p in (3, 5, 7):
            self.pres[("polynomial-ring", p, ())] = catalog.build("polynomial-ring", p=p, n=1)
        for alg, p, opts in self.ALGEBRAS + (("weyl", 3, ()),):
            self.pres[(alg, p, opts)] = catalog.build(alg, p=p, **dict(opts))
        self.pres["F5[t]"] = catalog.build("polynomial-ring", p=5, n=1, names=["t"])
        self.algebras = _Deck(self.rng, self.ALGEBRAS)
        self.reduce_cases = _Deck(self.rng, self.REDUCE_CASES)
        self.corrupt = _Deck(self.rng, (False, False, False, True))

    def requests(self):
        return _rounds(self.rng, self.ROUND,
                       lambda kind: getattr(self, "_make_" + kind.replace("-", "_"))(self.rng))

    @staticmethod
    def _coeffs(rng, p, length) -> tuple:
        return tuple(checks.ptrim([rng.randrange(p) for _ in range(length)]))

    def _fpx(self, p, coeffs) -> SkewPoly:
        P = self.pres[("polynomial-ring", p, ())]
        return SkewPoly(P, {(k,): c for k, c in enumerate(coeffs) if c})

    def _make_unimod_fpx(self, rng) -> Request:
        """A pair from criterion 10's range: F_3[x], degree at most 3."""
        p = 3
        a, b = self._coeffs(rng, p, 4), self._coeffs(rng, p, 4)
        bound = len(a) + len(b)  # the gcd-criterion bound
        entries = (self._fpx(p, a), self._fpx(p, b))
        return Request("unimod-fpx", (p, a, b, bound), entries)

    def _make_unimod_alg(self, rng) -> Request:
        key = self.algebras.draw()
        P = self.pres[key]
        # Entry degree and witness bound keep each system under a few thousand
        # cells; A_2 rows have three entries in four variables.
        size = 3 if P.n == 4 else 2
        deg = 1 if P.n == 4 else rng.randint(1, 2)
        entries = [P.random_poly(rng, deg, nonzero=True) for _ in range(size)]
        if rng.random() < 0.5:  # a unit constant term makes a witness likely
            entries[0] = entries[0] + P.one()
        bound = rng.randint(2, 3) if P.n == 4 or (P.n == 3 and deg == 2) else rng.randint(2, 4)
        side = rng.choice(("right", "left"))
        params = (key, tuple(_poly_text(e) for e in entries), bound, side)
        return Request("unimod-alg", params, (P, tuple(entries)))

    def _make_reduce_stable(self, rng) -> Request:
        case = self.reduce_cases.draw()
        if case.startswith("weyl3"):
            P = self.pres[("weyl", 3, ())]
            column = [P.random_poly(rng, 1, nonzero=True), P.random_poly(rng, 1, nonzero=True) + P.one()]
            params = (case, tuple(_poly_text(v) for v in column), 1, 2)
            return Request("reduce-stable", params, (P, tuple(column)))
        p = 3 if "3" in case else 5
        length = 3 if "-r3-" in case else 2
        a_bound = 2 if case.endswith("a2") else 1
        if case.startswith("common"):  # a shared factor x: no shift can ever work
            coeffs = [tuple(checks.ptrim([0, rng.randrange(p), rng.randrange(p)])) or (0, 1)
                      for _ in range(2)]
        else:
            coeffs = [self._coeffs(rng, p, 3) for _ in range(length)]
        bound = 2 if p == 3 else 3
        column = tuple(self._fpx(p, c) for c in coeffs)
        return Request("reduce-stable", (case, tuple(coeffs), a_bound, bound),
                       (self.pres[("polynomial-ring", p, ())], column))

    def _make_complete(self, rng) -> Request:
        seed, corrupt = rng.randrange(2**31), self.corrupt.draw()
        P = self.pres["F5[t]"]
        U, Uinv = matrices.random_invertible(P, 3, 6, 2, seed=seed)
        completing = Uinv
        if corrupt:
            rows = [list(row) for row in Uinv.entries]
            rows[0][0] = rows[0][0] + P.one()
            completing = PolyMatrix(P, rows)
        return Request("complete", (seed, corrupt), (list(U.entries[0]), completing, U))

    def execute(self, req: Request):
        if req.kind == "unimod-fpx":
            return matrices.find_right_inverse_row(list(req.inputs), req.params[3])
        if req.kind == "unimod-alg":
            _, entries = req.inputs
            _, _, bound, side = req.params
            if side == "right":
                return matrices.find_right_inverse_row(list(entries), bound)
            return matrices.find_left_inverse_column(list(entries), bound)
        if req.kind == "reduce-stable":
            _, column = req.inputs
            return matrices.search_stable_reduction(list(column), req.params[2], req.params[3])
        u, completing, inverse = req.inputs
        return matrices.verify_completion(u, completing, inverse)

    def check(self, req: Request, out):
        if req.kind == "unimod-fpx":
            p, a, b, _ = req.params
            unimodular = checks.pgcd(a, b, p) == [1]
            if (out is not None) != unimodular:
                return f"verdict {out is not None} but gcd says {unimodular}"
            if out is not None:
                w0, w1 = (checks.univariate(w.terms) for w in out)
                if checks.padd(checks.pmul(list(a), w0, p), checks.pmul(list(b), w1, p), p) != [1]:
                    return "witness does not combine to 1"
            return None
        if req.kind == "unimod-alg":
            P, entries = req.inputs
            if out is None:
                return None  # no witness within the bound is a verdict
            side = req.params[3]
            pairs = zip(entries, out) if side == "right" else zip(out, entries)
            total = P.zero()
            for f, g in pairs:
                total = total + f * g
            return None if total == P.one() else "witness product is not 1"
        if req.kind == "reduce-stable":
            return self._check_reduce(req, out)
        expected = not req.params[1]
        return None if out == expected else f"completion verdict {out}, expected {expected}"

    def _check_reduce(self, req, out):
        case, coeffs, _, bound = req.params
        P, column = req.inputs
        if case.startswith("weyl3"):
            if out is None:
                return None
            shortened = [v + a * column[-1] for v, a in zip(column[:-1], out)]
            w = matrices.find_left_inverse_column(shortened, bound)
            if w is None:
                return "shifted column has no left inverse"
            total = P.zero()
            for b, v in zip(w, shortened):
                total = total + b * v
            return None if total == P.one() else "left inverse product is not 1"
        p = P.ring.p
        if checks.pgcd_many(coeffs, p) != [1] and out is not None:
            return "found a reduction of a column with a common factor"
        if out is not None:
            last = list(coeffs[-1])
            short = [checks.padd(list(v), checks.pmul(checks.univariate(a.terms), last, p), p)
                     for v, a in zip(coeffs[:-1], out)]
            if checks.pgcd_many(short, p) != [1]:
                return "shifted column is not unimodular"
        return None

    def canon(self, req: Request, out) -> str:
        if out is None or isinstance(out, bool):
            return repr(out)
        return repr([sorted(w.terms.items()) for w in out])

    @staticmethod
    def result_terms(req: Request, out) -> int:
        if out is None or isinstance(out, bool):
            return 0
        return sum(len(w.terms) for w in out)

    def presentations(self, req: Request, out):
        return self.pres.values()


# -- lattice --------------------------------------------------------------------------------

SUITE_RINGS = ("Zmod:4", "Zmod:6", "Zmod:8", "Zmod:12", "Zmod:30", "quot:F2:x^3")  # suites.TEST_RINGS
SUBSET_RING = "Zmod:14"  # law (i) enumerates all 2^14 subsets: 1.2 s
BIG_RING = "quot:F2:x^5"  # 32 elements, 2.5-4 s to build; its 9 s laws are not run
# The seed draws two more query rings from rings of 30-56 elements whose
# one-generator reductions take 0.1-0.2 ms and that build in 0.1-0.25 s, so
# the draw moves no percentile.
EXTRA_CANDIDATES = ("Zmod:40", "Zmod:44", "Zmod:45", "Zmod:50", "Zmod:52", "Zmod:56",
                    "prod:Zmod:3*Zmod:10", "prod:Zmod:2*Zmod:15")
KRONECKER_P = 5


class Lattice:
    """Finite rings are built (and validated) in set-up; ideal caches start empty."""

    name = "lattice"
    # One pass of `skewpbw suite all` over its six rings makes 6 `laws`, 68
    # boundary ideals (every element), 1224 one-generator reductions (every
    # pair) and 50 F_5[t] reductions; a round makes the same counts.  The
    # suite's 2448 `D` calls verify its reductions, which the benchmark's own
    # checks do here, and it never lists primes, so `D`, `primes` and the
    # laws on the 14-element ring are an assumption: `D` and `primes` as
    # often as `boundary`, the suite's other one-ring query, and one `laws`
    # on Zmod:14 so that law (i) enumerates all 2^14 subsets every round.
    ROUND = (("laws", 6), ("laws-subset", 1), ("boundary", 68), ("kronecker1", 1224),
             ("kronecker2", 50), ("D", 68), ("primes", 68))

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        query = SUITE_RINGS + (SUBSET_RING, BIG_RING) + tuple(self.rng.sample(EXTRA_CANDIDATES, 2))
        self.rings = {spec: zariski.parse_ring_spec(spec) for spec in query}
        self.backend = zariski.FptBackend(KRONECKER_P)
        self.law_rings = _Deck(self.rng, SUITE_RINGS)
        self.query_rings = _Deck(self.rng, query)
        self.gen_counts = _Deck(self.rng, (1, 2, 3))
        # Boundary elements and reduction pairs cycle through all of a ring's
        # elements and pairs, as the suite visits every one.  The slowest
        # reductions (quot:F2:x^5) set p99, so sampling them evenly keeps it
        # from moving with the seed.
        self.elements = {spec: _Deck(self.rng, range(R.size)) for spec, R in self.rings.items()}
        self.pairs = {spec: _Deck(self.rng, [(i, j) for i in range(R.size) for j in range(R.size)])
                      for spec, R in self.rings.items()}
        self.tables = {}  # spec -> checks.RingTables, made at a ring's first check

    def requests(self):
        return _rounds(self.rng, self.ROUND, self._make)

    def _make(self, kind) -> Request:
        rng = self.rng
        if kind == "laws":
            return Request("laws", (self.law_rings.draw(),))
        if kind == "laws-subset":
            return Request("laws", (SUBSET_RING,))
        if kind == "kronecker2":
            return self._make_kronecker2(rng)
        spec = self.query_rings.draw()
        n = self.rings[spec].size
        if kind == "primes":
            return Request("primes", (spec,))
        if kind == "D":
            return Request("D", (spec, tuple(rng.randrange(n) for _ in range(self.gen_counts.draw()))))
        if kind == "boundary":
            return Request("boundary", (spec, self.elements[spec].draw()))
        return Request("kronecker1", (spec, *self.pairs[spec].draw()))

    def _make_kronecker2(self, rng) -> Request:
        p = KRONECKER_P

        def poly(deg):
            return tuple(checks.ptrim([rng.randrange(p) for _ in range(deg + 1)]))

        if rng.random() < 0.5:
            us = (poly(4), poly(4), poly(4))
        else:  # a shared factor keeps the target radical a proper ideal
            f = poly(rng.randint(1, 2)) or (1, 1)
            us = tuple(tuple(checks.pmul(list(f), list(poly(2)), p)) for _ in range(3))
        return Request("kronecker2", (us, rng.randint(2, 6)))

    def execute(self, req: Request):
        kind = req.kind
        if kind == "kronecker2":
            (u1, u2, u), bound = req.params
            try:
                return zariski.kronecker_reduce((u1, u2), u, self.backend, bound)
            except NotFoundWithinBound:
                return None  # a verdict, not a failure
        ring = self.rings[req.params[0]]
        el = ring.elements
        if kind == "laws":
            return zariski.check_lattice_laws(ring, mode="exhaustive", seed=pbw.DEFAULT_SEED)
        if kind == "primes":
            return zariski.enumerate_primes(ring)
        if kind == "D":
            return zariski.zariski_D(tuple(el[i] for i in req.params[1]), ring)
        if kind == "boundary":
            return zariski.boundary_ideal(el[req.params[1]], ring)
        return zariski.kronecker_reduce_dim0(el[req.params[1]], el[req.params[2]], ring)

    def _table(self, spec) -> checks.RingTables:
        if spec not in self.tables:
            self.tables[spec] = checks.RingTables(self.rings[spec])
        return self.tables[spec]

    def _radical(self, spec, gens) -> frozenset:
        if spec.startswith("Zmod:"):
            return checks.zmod_radical(self.rings[spec].size, gens)
        return checks.radical_by_powers(self._table(spec), gens)

    def check(self, req: Request, out):
        kind = req.kind
        if kind == "kronecker2":
            return self._check_kronecker2(req, out)
        spec = req.params[0]
        ring = self.rings[spec]
        el = ring.elements
        if kind == "laws":
            bad = [law["law"] for law in out["laws"] if not law["ok"]]
            return None if out["ok"] and not bad else f"laws failed: {bad}"
        if kind == "primes":
            return self._check_primes(spec, ring, out)
        if kind == "D":
            want = self._radical(spec, [el[i] for i in req.params[1]])
            return None if out.elements == want else "D differs from the radical"
        if kind == "boundary":
            return None if out.is_whole() else "boundary ideal is proper in dimension zero"
        u1, u = el[req.params[1]], el[req.params[2]]
        (x1,) = out.shifts
        got = self._radical(spec, [ring.add(u1, ring.mul(x1, u))])
        return None if got == self._radical(spec, [u1, u]) else "shift changes the radical"

    def _check_primes(self, spec, ring, out):
        got = {P.elements for P in out}
        if spec.startswith("Zmod:"):
            n = ring.size
            want = {frozenset(range(0, n, q)) for q in checks.zmod_primes(n)}
            return None if got == want else "primes differ from the primes dividing n"
        ring = self._table(spec)
        for P in got:
            err = checks.check_prime_ideal(ring, P)
            if err:
                return err
        meet = frozenset.intersection(*got) if got else frozenset(ring.elements)
        if meet != checks.radical_by_powers(ring, []):
            return "the primes do not cut out the nilradical"
        return None

    def _check_kronecker2(self, req, out):
        (u1, u2, u), _ = req.params
        if out is None:
            return None  # nothing within the bound is a verdict
        p = KRONECKER_P
        s1 = checks.padd(list(u1), checks.pmul(list(out[0]), list(u), p), p)
        s2 = checks.padd(list(u2), checks.pmul(list(out[1]), list(u), p), p)
        target = checks.pgcd_many([u1, u2, u], p)
        if not checks.same_radical(checks.pgcd(s1, s2, p), target, p):
            return "shifted pair has another radical"
        return None

    def canon(self, req: Request, out) -> str:
        kind = req.kind
        if kind in ("laws", "kronecker2"):
            return repr(out)
        if kind == "primes":
            return repr([P.sorted_elements() for P in out])
        if kind == "kronecker1":
            return repr((out.shifts, out.constructive, out.fallback_used))
        return repr(out.sorted_elements())

    @staticmethod
    def result_terms(req: Request, out) -> int:
        return 0

    @staticmethod
    def presentations(req: Request, out):
        return ()


WORKLOADS = {w.name: w for w in (RewriteCold, Witness, Lattice)}
