import itertools
import random

import pytest
from oracles import (
    ideal_by_closure,
    monic_moduli,
    pgcd_many,
    radical_by_powers,
    ring_law_failure,
    same_radical,
    squarefree_by_trial_division,
)

from skewpbw import zariski
from skewpbw.errors import InvalidRing, NotFoundWithinBound, PreconditionFailed, RingTooLarge
from skewpbw.rings import PrimeField, ResidueRing
from skewpbw.suites import TEST_RINGS
from skewpbw.zariski import (
    FiniteCommRing,
    FptBackend,
    RadicalClass,
    all_ideals,
    boundary_ideal,
    check_boundary_condition,
    check_lattice_laws,
    enumerate_primes,
    ideal_generated,
    kronecker_reduce,
    kronecker_reduce_dim0,
    parse_backend_spec,
    parse_ring_spec,
    radical_membership,
    unimodular_shrink,
    zariski_D,
)


@pytest.fixture(scope="module")
def Z12():
    return FiniteCommRing.zmod(12)


@pytest.fixture(scope="module")
def F2x3():
    return FiniteCommRing.quotient_poly(2, (0, 0, 0, 1))


@pytest.fixture(scope="module")
def B5():
    return FptBackend(5)


def test_ideal_generated(Z12):
    assert sorted(ideal_generated([2], Z12).elements) == [0, 2, 4, 6, 8, 10]
    assert ideal_generated([], Z12).elements == frozenset({0})
    assert ideal_generated([2, 3], Z12).is_whole()


def test_enumerate_primes(Z12, F2x3):
    primes = {frozenset(P.elements) for P in enumerate_primes(Z12)}
    assert primes == {frozenset({0, 2, 4, 6, 8, 10}), frozenset({0, 3, 6, 9})}
    x = F2x3.elements[F2x3.index[(0, 1)]]
    only = enumerate_primes(F2x3)
    assert len(only) == 1 and x in only[0].elements and len(only[0].elements) == 4
    field = FiniteCommRing.fp(7)
    assert [sorted(P.elements) for P in enumerate_primes(field)] == [[0]]


def test_zariski_D(Z12, B5):
    assert sorted(zariski_D((0,), Z12).elements) == [0, 6]
    assert zariski_D((1,), Z12).is_whole()
    t = B5.ring.generator
    t2 = B5.ring.mul(t, t)
    assert B5.radical_class((t2,)) == RadicalClass(5, t)
    assert B5.radical_class((B5.ring.one,)).is_unit_class()
    assert B5.radical_class(()).is_zero_class()


def test_lattice_laws_exhaustive(Z12):
    rep = check_lattice_laws(Z12, mode="exhaustive")
    assert rep["ok"] and len(rep["laws"]) == 12
    rep30 = check_lattice_laws(FiniteCommRing.zmod(30), mode="exhaustive")
    assert rep30["ok"]


def test_broken_table_rejected():
    els = [0, 1, 2]
    add = lambda a, b: (a + b) % 3
    bad_mul = lambda a, b: (a * b + a) % 3  # not associative, not unital
    with pytest.raises(InvalidRing):
        FiniteCommRing(els, add, bad_mul, 0, 1, "broken")


def _corrupted(n, rng):
    """Z/n with one seeded entry of its add or mul table replaced."""
    a0, b0, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    which, both_orders = rng.choice(["add", "mul"]), rng.random() < 0.5

    def hit(x, y):
        return {x, y} == {a0, b0} and (both_orders or (x, y) == (a0, b0))

    def add(x, y):
        return v if which == "add" and hit(x, y) else (x + y) % n

    def mul(x, y):
        return v if which == "mul" and hit(x, y) else x * y % n

    return add, mul


def test_ring_validation_matches_reference():
    """FiniteCommRing refuses a corrupted table with the first failing law
    the callables themselves show, exhaustively and by sampling (n = 70)."""
    rng = random.Random(5)
    seen = set()
    for _ in range(60):
        n = rng.choice([5, 6, 12, 30, 70])
        add, mul = _corrupted(n, rng)
        want = ring_law_failure(range(n), add, mul, 0, 1)
        try:
            FiniteCommRing(range(n), add, mul, 0, 1, "corrupted")
            got = None
        except InvalidRing as e:
            got = str(e)
        assert got == want, n
        seen.add(None if want is None else want.split(" at ")[0])
    assert {"addition not associative", "multiplication not associative",
            "distributivity fails"} <= seen


def test_product_ring_laws():
    ring = parse_ring_spec("prod:Zmod:4*Fp:3")
    assert ring.size == 12
    assert check_lattice_laws(ring, mode="exhaustive")["ok"]


def test_boundary_ideal(Z12):
    assert boundary_ideal(2, Z12).is_whole()
    assert boundary_ideal(0, Z12).is_whole()
    assert boundary_ideal(7, Z12).is_whole()  # unit
    assert check_boundary_condition(Z12)["ok"]


def test_boundary_condition_all_small_rings(F2x3):
    for ring in (FiniteCommRing.zmod(4), FiniteCommRing.zmod(6), F2x3):
        assert check_boundary_condition(ring)["ok"]


def test_kronecker_dim0(Z12):
    cert = kronecker_reduce_dim0(2, 3, Z12)
    x1 = cert.shifts[0]
    assert x1 == 3 and cert.constructive and not cert.fallback_used
    assert zariski_D((Z12.add(2, Z12.mul(x1, 3)),), Z12) == zariski_D((2, 3), Z12)
    # unit input short-circuits to the zero shift
    assert kronecker_reduce_dim0(7, 5, Z12).shifts == (0,)
    assert kronecker_reduce_dim0(0, 0, Z12).shifts == (0,)


def test_kronecker_dim0_all_pairs(F2x3):
    ring = F2x3
    for u1, u in itertools.product(ring.elements, repeat=2):
        cert = kronecker_reduce_dim0(u1, u, ring)
        x1 = cert.shifts[0]
        shifted = ring.add(u1, ring.mul(x1, u))
        assert zariski_D((shifted,), ring) == zariski_D((u1, u), ring)


def test_kronecker_fpt(B5):
    R = B5.ring
    t, one = R.generator, R.one
    t2, tp1 = R.mul(t, t), R.add(t, one)
    assert kronecker_reduce((t, tp1), one, B5, 3) == ((), ())
    xs = kronecker_reduce((t2, t2), tp1, B5, 3)
    assert xs == ((), (1,))
    shifted = (R.add(t2, R.mul(xs[0], tp1)), R.add(t2, R.mul(xs[1], tp1)))
    assert B5.radical_class(shifted) == B5.radical_class((t2, t2, tp1))


def test_kronecker_fpt_verified_by_divisibility_oracle(B5):
    R = B5.ring
    rng = random.Random(21)
    for _ in range(40):
        u1, u2, u = (R.random_element(rng, 3) for _ in range(3))
        try:
            x1, x2 = kronecker_reduce((u1, u2), u, B5, 4)
        except NotFoundWithinBound:
            continue
        g_shift = pgcd_many([list(R.add(u1, R.mul(x1, u))), list(R.add(u2, R.mul(x2, u)))], 5)
        g_all = pgcd_many([list(u1), list(u2), list(u)], 5)
        assert same_radical(g_shift, g_all, 5)


def test_kronecker_finite_always_succeeds(Z12):
    rng = random.Random(5)
    for _ in range(25):
        us = tuple(rng.choice(Z12.elements) for _ in range(2))
        u = rng.choice(Z12.elements)
        xs = kronecker_reduce(us, u, Z12)
        shifted = tuple(Z12.add(ui, Z12.mul(xi, u)) for ui, xi in zip(us, xs))
        assert zariski_D(shifted, Z12) == zariski_D(us + (u,), Z12)


def test_kronecker_fpt_needs_two_generators(B5):
    with pytest.raises(PreconditionFailed):
        kronecker_reduce((B5.ring.one,), B5.ring.one, B5, 2)
    with pytest.raises(PreconditionFailed):
        kronecker_reduce((B5.ring.one, B5.ring.one), B5.ring.one, B5, None)


def test_unimodular_shrink(B5, Z12):
    R = B5.ring
    t, one = R.generator, R.one
    t2, t3, tp1 = R.mul(t, t), R.mul(R.mul(t, t), t), R.add(t, one)
    assert unimodular_shrink((t, tp1, t2), B5, 3) == ((), ())
    assert unimodular_shrink((2, 4, 3), Z12) == (0, 1)
    xs = unimodular_shrink((t2, t3, tp1), B5, 3)
    assert xs == ((), (1,))
    shifted = (R.add(t2, R.mul(xs[0], tp1)), R.add(t3, R.mul(xs[1], tp1)))
    assert R.deg(B5.gcd_many(shifted)) == 0
    with pytest.raises(PreconditionFailed):
        unimodular_shrink((t, t, t), B5, 2)
    with pytest.raises(PreconditionFailed):
        unimodular_shrink((2, 4, 6), Z12)


def test_radical_membership(Z12, B5):
    assert radical_membership(6, (0,), Z12) == (True, 2)
    R = B5.ring
    t = R.generator
    t3 = R.mul(R.mul(t, t), t)
    assert radical_membership(t, (t3,), B5) == (True, 3)
    assert radical_membership(2, (9,), Z12) == (False, None)
    assert radical_membership(R.zero, (), B5) == (True, 1)
    assert radical_membership(t, (), B5) == (False, None)


def test_fpt_membership_agrees_with_radical_class(B5):
    R = B5.ring
    rng = random.Random(33)
    for _ in range(1000):
        a = R.random_element(rng, 3)
        gens = tuple(R.random_element(rng, 3) for _ in range(rng.randint(1, 3)))
        member, _ = radical_membership(a, gens, B5)
        cls = B5.radical_class(gens)
        if cls.is_unit_class():
            expected = True
        elif cls.is_zero_class():
            expected = a == ()
        else:
            expected = R.divmod(a, cls.poly)[1] == ()
        assert member == expected


@pytest.mark.parametrize("p, max_deg", [(2, 10), (3, 6), (5, 4)])
def test_squarefree_part_matches_trial_division_on_every_monic(p, max_deg):
    B = FptBackend(p)
    R = B.ring
    for d in range(max_deg + 1):
        for f in monic_moduli(p, d):
            expected = squarefree_by_trial_division(R, f)
            assert B.squarefree_part(f) == expected, f
            assert B.squarefree_part(R.scale(p - 1, f)) == expected  # non-monic input
    assert B.squarefree_part(()) == ()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_squarefree_part_matches_trial_division_on_powers(p):
    B = FptBackend(p)
    R = B.ring
    rng = random.Random(100 + p)
    for _ in range(60):
        f = R.one
        for _ in range(rng.randint(1, 3)):
            q = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3))) + (1,)
            f = R.mul(f, R.pow(q, rng.choice((1, p, p + 1, 2 * p))))
        assert B.squarefree_part(f) == squarefree_by_trial_division(R, f), f


def test_ring_spec_parsing():
    assert parse_ring_spec("Zmod:12").size == 12
    assert parse_ring_spec("Fp:7").size == 7
    assert parse_ring_spec("quot:F2:x^3").size == 8
    assert parse_ring_spec("quot:Fp:2:x^3").size == 8
    assert parse_backend_spec("fpt:5").p == 5
    with pytest.raises(ValueError):
        parse_ring_spec("what:3")
    with pytest.raises(ValueError, match="no variable"):
        parse_ring_spec("quot:F2:1")


def test_ring_size_limit():
    assert parse_ring_spec("Zmod:256").size == 256
    for spec in ("Zmod:257", "quot:F2:x^9", "prod:Zmod:16*Zmod:17"):
        with pytest.raises(RingTooLarge):
            parse_ring_spec(spec)


def test_quotient_compat_spot_check(Z12):
    I = ideal_generated([4], Z12)
    Q, rep = Z12.quotient_by(I)
    assert Q.size == 4
    J = ideal_generated([2], Z12)
    DJ = zariski_D(tuple(J.sorted_elements()), Z12)
    pushed = frozenset(rep[a] for a in DJ.elements)
    DbarJ = zariski_D(sorted({rep[a] for a in J.elements}, key=Q.index.__getitem__), Q)
    assert pushed == DbarJ.elements


def test_closure_operator_exhaustive(F2x3):
    from skewpbw.zariski import all_ideals

    for I in all_ideals(F2x3):
        D = zariski_D(tuple(I.sorted_elements()), F2x3)
        assert I.elements <= D.elements
        assert zariski_D(tuple(D.sorted_elements()), F2x3) == D


def test_subset_law_exhaustive_small():
    ring = FiniteCommRing.zmod(8)
    els = list(ring.elements)
    for mask in range(1 << len(els)):
        X = tuple(els[i] for i in range(len(els)) if mask >> i & 1)
        assert zariski_D(X, ring) == zariski_D(
            tuple(ideal_generated(X, ring).sorted_elements()), ring
        )


def _raw_ops(ring):
    """add, mul and zero of a test ring, straight from its source rings."""
    if ring.source is not None:
        return ring.source.add, ring.source.mul, ring.source.zero
    left, right = ResidueRing(4), PrimeField(3)
    return (
        lambda x, y: (left.add(x[0], y[0]), right.add(x[1], y[1])),
        lambda x, y: (left.mul(x[0], y[0]), right.mul(x[1], y[1])),
        (0, 0),
    )


ORACLE_RINGS = TEST_RINGS + (("prod:Zmod:4*Fp:3", lambda: parse_ring_spec("prod:Zmod:4*Fp:3")),)


@pytest.mark.parametrize("label,make", ORACLE_RINGS, ids=[label for label, _ in ORACLE_RINGS])
def test_zariski_D_matches_power_oracle(label, make):
    ring = make()
    add, mul, zero = _raw_ops(ring)
    els = ring.elements
    gen_sets = [()] + [(a,) for a in els] + list(itertools.combinations(els, 2))
    for gens in gen_sets:
        want = radical_by_powers(els, add, mul, zero, gens)
        assert zariski_D(gens, ring).elements == want, gens
    nilradical = radical_by_powers(els, add, mul, zero, ())
    assert frozenset.intersection(*(P.elements for P in enumerate_primes(ring))) == nilradical


def _f2_power(k):
    """F_2^k on flat k-tuples, with its raw add and mul."""
    def add(x, y):
        return tuple(a ^ b for a, b in zip(x, y))

    def mul(x, y):
        return tuple(a & b for a, b in zip(x, y))

    els = itertools.product((0, 1), repeat=k)
    return FiniteCommRing(els, add, mul, (0,) * k, (1,) * k, f"F_2^{k}"), add, mul


def _from_spec(spec):
    ring = parse_ring_spec(spec)
    return ring, ring.source.add, ring.source.mul


@pytest.mark.parametrize("label, samples", [
    ("Zmod:12", None), ("quot:F2:x^3", None), ("Zmod:30", 400), ("F_2^6", 400),
])
def test_ideal_and_D_match_closure_oracles(label, samples):
    """ideal_generated and zariski_D, through the join table and the cached
    primes, against closure and powers on the raw add and mul: on every subset
    (samples None) or on seeded subsets."""
    ring, add, mul = _f2_power(6) if label == "F_2^6" else _from_spec(label)
    els, zero = ring.elements, ring.zero
    if samples is None:
        subsets = [tuple(itertools.compress(els, bits))
                   for bits in itertools.product((0, 1), repeat=ring.size)]
    else:
        rng = random.Random(9)
        subsets = [tuple(rng.sample(els, rng.randint(0, 4))) for _ in range(samples)]
    for gens in subsets:
        assert ideal_generated(gens, ring).elements == ideal_by_closure(els, add, mul, zero, gens), gens
        assert zariski_D(gens, ring).elements == radical_by_powers(els, add, mul, zero, gens), gens


def _square_zero_plane():
    """F_2[x,y]/(x,y)^2 on tuples (a, b, c) = a + b x + c y.  Its ideals <x>,
    <y> and <x+y> lie between 0 and (x,y) and meet pairwise in 0, so its
    lattice of ideals is not distributive."""
    def add(u, v):
        return tuple((s + t) % 2 for s, t in zip(u, v))

    def mul(u, v):
        return (u[0] * v[0] % 2, (u[0] * v[1] + u[1] * v[0]) % 2, (u[0] * v[2] + u[2] * v[0]) % 2)

    return FiniteCommRing(itertools.product((0, 1), repeat=3), add, mul, (0, 0, 0), (1, 0, 0),
                          "F_2[x,y]/(x,y)^2")


def _first_failures_direct(ring, D, name):
    """The case count and first three failures of law (i) or (xii) under D,
    each case decided afresh as the laws read: the reference for the tables."""
    if name == "generating-set-vs-ideal":
        subsets = range(1 << ring.size)
        fails = [repr(tuple(ring.elements[i] for i in range(ring.size) if X >> i & 1))
                 for X in subsets if D(ring, X) != D(ring, zariski._ideal(ring, X))]
        return len(subsets), fails[:3]
    zar = zariski._zar_elements(ring)
    fails = []
    for Z1, Z2, Z3 in itertools.product(zar, repeat=3):
        if Z1 & D(ring, Z2 | Z3) != D(ring, (Z1 & Z2) | (Z1 & Z3)):
            fails.append("meet-over-join")
        elif D(ring, Z1 | (Z2 & Z3)) != D(ring, Z1 | Z2) & D(ring, Z1 | Z3):
            fails.append("join-over-meet")
    return len(zar) ** 3, fails[:3]


def test_laws_catch_a_wrong_D(monkeypatch):
    """With D replaced, the laws that read it from tables still decide every
    case and report the failures a case-by-case check finds: the identity
    breaks law (i) on Z/12, and ideal closure breaks distributivity where
    the ideals are not distributive."""
    right = {law["law"]: law for law in check_lattice_laws(_square_zero_plane())["laws"]}
    assert right["distributivity"]["ok"]
    cases = [
        (lambda: FiniteCommRing.zmod(12), lambda ring, mask: mask, "generating-set-vs-ideal"),
        (_square_zero_plane, zariski._ideal, "distributivity"),
    ]
    for make, wrong_D, name in cases:
        ring = make()  # fresh: no D-values cached from the right D
        with monkeypatch.context() as m:
            m.setattr(zariski, "_radical", wrong_D)
            law = next(law for law in check_lattice_laws(ring)["laws"] if law["law"] == name)
            want_cases, want_failures = _first_failures_direct(ring, wrong_D, name)
        assert not law["ok"] and law["failures"], name
        assert (law["cases"], law["failures"]) == (want_cases, want_failures), name
    assert want_cases == len(all_ideals(ring)) ** 3  # every ideal is a D-value under closure
