"""Independent oracles used by the tests.

Nothing here goes through the engine's cached product path: the rewriter below
applies exactly one rule at a time to explicit atom lists, and the polynomial
helpers work on bare coefficient lists with their own arithmetic.  Agreement
between these and the package is the point of the tests.
"""

from __future__ import annotations

import functools
import itertools
import random


def naive_normalize(P, atoms):
    """One-rule-at-a-time rewriting of a single word.

    State: list of (coeff, [atom...]) with atoms ('v', i) / ('c', r).  At each
    step the first non-normal term is located and exactly one rewrite fires at
    its leftmost reducible position:

      leading scalar        absorb into the coefficient
      scalar, scalar        multiply
      var i, scalar r       sigma_i(r) var_i  [+ sibling term delta_i(r)]
      var j, var i (j > i)  c * var_i var_j [+ sibling lower terms]

    Terminates because every rule lowers (degree, out-of-order pairs).
    """
    R = P.ring
    work = [(R.one, list(atoms))]
    while True:
        idx = next((k for k, (_, w) in enumerate(work) if _reducible_at(w) is not None), None)
        if idx is None:
            break
        coeff, word = work.pop(idx)
        pos = _reducible_at(word)
        new_terms = _apply_one_rule(P, coeff, word, pos)
        # keep scan order stable: rewritten material goes back where it was
        work[idx:idx] = [t for t in new_terms if t[0] != R.zero]
    out = {}
    for coeff, word in work:
        mono = [0] * P.n
        for tag, val in word:
            assert tag == "v"
            mono[val] += 1
        key = tuple(mono)
        s = R.add(out.get(key, R.zero), coeff)
        if s == R.zero:
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _reducible_at(word):
    if word and word[0][0] == "c":
        return 0
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a[0] == "c" and b[0] == "c":
            return k
        if a[0] == "v" and b[0] == "c":
            return k
        if a[0] == "v" and b[0] == "v" and a[1] > b[1]:
            return k
    return None


def _apply_one_rule(P, coeff, word, pos):
    R = P.ring
    if pos == 0 and word[0][0] == "c":
        return [(R.mul(coeff, word[0][1]), word[1:])]
    a, b = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    if a[0] == "c" and b[0] == "c":
        return [(coeff, head + [("c", R.mul(a[1], b[1]))] + tail)]
    if a[0] == "v" and b[0] == "c":
        i, r = a[1], b[1]
        out = [(coeff, head + [("c", P.sigma[i].apply(r)), a] + tail)]
        d = P.delta[i].apply(r)
        if d != R.zero:
            out.append((coeff, head + [("c", d)] + tail))
        return out
    j, i = a[1], b[1]
    cv = P.c[(i, j)]
    d0, dks = P.lower[(i, j)]
    out = [(coeff, head + [("c", cv), ("v", i), ("v", j)] + tail)]
    for k, dk in enumerate(dks):
        if dk != R.zero:
            out.append((coeff, head + [("c", dk), ("v", k)] + tail))
    if d0 != R.zero:
        out.append((coeff, head + [("c", d0)] + tail))
    return out


def random_nonzero(R, rng):
    while True:
        a = R.random_element(rng)
        if a != R.zero:
            return a


def random_word(P, rng, max_len=8):
    """Random mixed word of variables and nonzero scalars."""
    out = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.7:
            out.append(("v", rng.randrange(P.n)))
        else:
            out.append(("c", random_nonzero(P.ring, rng)))
    return out


# -- coefficient actions by sampling and by exhausting a finite ring -----------------


def _endo_failures(R, s, pairs, add, mul):
    bad = []
    for a, b in pairs:
        if s(add(a, b)) != add(s(a), s(b)):
            bad.append(f"additivity fails at ({R.format(a)}, {R.format(b)})")
        if s(mul(a, b)) != mul(s(a), s(b)):
            bad.append(f"multiplicativity fails at ({R.format(a)}, {R.format(b)})")
        if bad:
            break
    if s(R.one) != R.one:
        bad.append("does not fix 1")
    return bad


def _derivation_failures(R, d, s, pairs, add, mul):
    for a, b in pairs:
        if d(mul(a, b)) != add(mul(s(a), d(b)), mul(d(a), b)):
            return [f"Leibniz fails at ({R.format(a)}, {R.format(b)})"]
        if d(add(a, b)) != add(d(a), d(b)):
            return [f"additivity fails at ({R.format(a)}, {R.format(b)})"]
    return []


def _random_pairs(R, rng, samples):
    for _ in range(samples):
        yield R.random_element(rng), R.random_element(rng)


def sampled_endo_laws(spec, rng, samples=500):
    """Additivity and multiplicativity of sigma on random pairs, and sigma(1) = 1."""
    R = spec.ring
    return _endo_failures(R, spec.apply, _random_pairs(R, rng, samples), R.add, R.mul)


def sampled_derivation_laws(spec, rng, samples=500):
    """Twisted Leibniz rule and additivity of delta on random pairs."""
    R = spec.ring
    return _derivation_failures(R, spec.apply, spec.sigma.apply,
                                _random_pairs(R, rng, samples), R.add, R.mul)


@functools.lru_cache(maxsize=8)
def _tables(R):
    """Elements, and add and mul as lookups into tables of every pair."""
    els = tuple(R.elements())
    pairs = list(itertools.product(els, els))
    add_t = {(a, b): R.add(a, b) for a, b in pairs}
    mul_t = {(a, b): R.mul(a, b) for a, b in pairs}
    return els, pairs, lambda a, b: add_t[a, b], lambda a, b: mul_t[a, b]


@functools.lru_cache(maxsize=64)
def _tabulated(spec, els):
    """A coefficient action as a lookup into the table of its values on `els`."""
    return {a: spec.apply(a) for a in els}.__getitem__


def _extends_image(spec, act):
    """An action must send t to its declared image; over F_p[x]/(x - c), where
    t is the constant c, no image but the trivial one extends."""
    g = spec.gen_image
    if g is None or act(spec.ring.generator) == g:
        return []
    return ["does not send the generator to its image"]


def exhaustive_endo_laws(spec):
    """The sigma laws on every pair of elements of a finite ring."""
    els, pairs, add, mul = _tables(spec.ring)
    s = _tabulated(spec, els)
    return _extends_image(spec, s) + _endo_failures(spec.ring, s, pairs, add, mul)


def exhaustive_derivation_laws(spec):
    """The delta laws on every pair of elements of a finite ring."""
    els, pairs, add, mul = _tables(spec.ring)
    d = _tabulated(spec, els)
    return _extends_image(spec, d) + _derivation_failures(
        spec.ring, d, _tabulated(spec.sigma, els), pairs, add, mul)


def injective_by_scan(spec):
    """Injectivity of sigma on a finite ring, by collecting every image."""
    images = {spec.apply(a) for a in spec.ring.elements()}
    return len(images) == spec.ring.size


def irreducible_by_scan(R):
    """Irreducibility of the modulus of F_p[x]/(f), by trial division by every
    non-constant polynomial of degree at most deg(f) / 2."""
    d = len(R.modulus) - 1
    return not any(len(c) >= 2 and R.poly.divmod(R.modulus, c)[1] == ()
                   for c in R.poly.polys_up_to(d // 2))


def monic_moduli(p, d):
    """Every monic polynomial of degree d over F_p, as ascending coefficient tuples."""
    return [lower + (1,) for lower in itertools.product(range(p), repeat=d)]


def squarefree_by_trial_division(R, f):
    """rad(f) in F_p[t]: the product of the distinct monic irreducible factors
    of f, found by trial division by every monic polynomial of degree d, for
    d = 1, 2, ... while d is at most half the degree of what is left."""
    if f == ():
        return ()
    f, out, d = R.monic(f), R.one, 1
    while R.deg(f) >= 1:
        if d > R.deg(f) // 2:  # no factor of degree <= half is left: irreducible
            return R.mul(out, f)
        for cand in monic_moduli(R.base.p, d):
            q, rem = R.divmod(f, cand)
            if rem == ():
                out = R.mul(out, cand)
            while rem == ():
                f = q
                q, rem = R.divmod(f, cand)
        d += 1
    return out


# -- linear systems over F_p by enumeration ------------------------------------------


def fp_solutions(rows, rhs, p):
    """Every y in F_p^n with rows * y = rhs, found by trying each one."""
    n = len(rows[0])
    return [
        list(y)
        for y in itertools.product(range(p), repeat=n)
        if all((sum(a * b for a, b in zip(row, y)) - t) % p == 0 for row, t in zip(rows, rhs))
    ]


def fp_free_columns(rows, p):
    """Indices of the columns that are F_p-combinations of the columns before them.

    Each column is tested against every coefficient tuple on its predecessors.
    """
    cols = list(zip(*rows))
    return [
        c
        for c, col in enumerate(cols)
        if any(
            all((sum(k * prev[i] for k, prev in zip(coeffs, cols)) - col[i]) % p == 0
                for i in range(len(col)))
            for coeffs in itertools.product(range(p), repeat=c)
        )
    ]


# -- bare-list polynomial arithmetic over F_p ---------------------------------------


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return ptrim(out)


def pmod(a, b, p):
    a, b = ptrim(a), ptrim(b)
    assert b, "division by zero"
    inv = pow(b[-1], -1, p)
    a = list(a)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c == 0:
            continue
        q = c * inv % p
        for j, cb in enumerate(b):
            a[i + j] = (a[i + j] - q * cb) % p
    return ptrim(a)


def pgcd(a, b, p):
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def ppow_mod(a, k, m, p):
    out = [1]
    for _ in range(k):
        out = pmod(pmul(out, a, p), m, p)
    return out


def same_radical(f, g, p):
    """rad<f> = rad<g> in F_p[t], by power divisibility alone.

    f | g^N exactly when every irreducible factor of f divides g (N at least
    deg f); symmetrically for g | f^N.  No factorization involved.
    """
    f, g = ptrim(f), ptrim(g)
    if not f or not g:
        return f == g
    if len(f) == 1 or len(g) == 1:
        return len(f) == 1 and len(g) == 1
    n = max(len(f), len(g))
    return ppow_mod(g, n, f, p) == [] and ppow_mod(f, n, g, p) == []


def pgcd_many(polys, p):
    g = []
    for a in polys:
        g = pgcd(g, a, p)
    return g


def ideal_by_closure(elements, add, mul, zero, gens):
    """<gens> of a finite commutative ring, on the raw `add`/`mul` callables:
    the additive closure of all ring multiples of the generators."""
    ideal = {zero}
    frontier = {mul(r, g) for g in gens for r in elements} - ideal
    while frontier:
        ideal |= frontier
        frontier = {add(a, b) for a in frontier for b in ideal} - ideal
    return frozenset(ideal)


def radical_by_powers(elements, add, mul, zero, gens):
    """D(gens) of a finite commutative ring as {a : a^k in <gens> for some k}.

    Works on the raw `add`/`mul` callables: the ideal comes from
    `ideal_by_closure`, and powers of each element are followed until they
    repeat.  No prime is enumerated.
    """
    ideal = ideal_by_closure(elements, add, mul, zero, gens)
    out = set()
    for a in elements:
        seen, acc = set(), a
        while acc not in ideal and acc not in seen:
            seen.add(acc)
            acc = mul(acc, a)
        if acc in ideal:
            out.add(a)
    return frozenset(out)


def ring_law_failure(elements, add, mul, zero, one):
    """The first ring law that the callables break, as FiniteCommRing words it,
    or None.

    The rule is FiniteCommRing's: every pair and triple up to 64 elements,
    else 4000 pairs and then 4000 triples drawn from Random(9).  Each law is
    evaluated on the callables themselves, not on tables.
    """
    els = list(elements)
    n = len(els)
    if n <= 64:
        pairs = list(itertools.product(range(n), repeat=2))
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = random.Random(9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4000)]
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(4000)]
    for i, j in pairs:
        a, b = els[i], els[j]
        if add(a, b) != add(b, a):
            return f"addition not commutative at {(a, b)!r}"
        if mul(a, b) != mul(b, a):
            return f"multiplication not commutative at {(a, b)!r}"
    for i, j, k in triples:
        a, b, c = els[i], els[j], els[k]
        if add(add(a, b), c) != add(a, add(b, c)):
            return f"addition not associative at {(a, b, c)!r}"
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return f"multiplication not associative at {(a, b, c)!r}"
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            return f"distributivity fails at {(a, b, c)!r}"
    for a in els:
        if add(a, zero) != a or mul(a, one) != a:
            return f"identity laws fail at {a!r}"
    return None
