import random
from fractions import Fraction

import pytest
from oracles import (
    exhaustive_derivation_laws,
    exhaustive_endo_laws,
    injective_by_scan,
    irreducible_by_scan,
    monic_moduli,
    sampled_derivation_laws,
    sampled_endo_laws,
)

from skewpbw.errors import InfiniteRing, KindMismatch, NotAUnit
from skewpbw.rings import (
    DerivationSpec,
    EndoSpec,
    PolynomialRing,
    PrimeField,
    QuotientRing,
    Rationals,
    ResidueRing,
    check_derivation_laws,
    check_endo_laws,
)


def test_residue_arithmetic():
    Z12 = ResidueRing(12)
    assert Z12.add(5, 9) == 2
    assert Z12.inv(5) == 5
    with pytest.raises(NotAUnit):
        Z12.inv(4)
    assert Z12.neg(0) == 0


def test_prime_field_is_a_residue_ring():
    assert ResidueRing(7).is_field and ResidueRing(7).is_domain
    assert not ResidueRing(12).is_field and not ResidueRing(12).is_domain
    with pytest.raises(ValueError):
        PrimeField(4)
    F7, Z7 = PrimeField(7), ResidueRing(7)
    assert F7 != Z7
    assert F7.descriptor() == ("prime-field", 7) and F7.describe() == "F_7"
    assert Z7.descriptor() == ("residue", 7) and Z7.describe() == "Z/7"
    assert F7.kind == "prime-field" and Z7.kind == "residue"


def test_unit_witnesses():
    F11 = PrimeField(11)
    w = F11.unit_inverse(7)
    assert w == 8 and F11.mul(7, w) == 1
    F5t = PolynomialRing(PrimeField(5))
    assert not F5t.is_unit(F5t.generator)
    assert ResidueRing(12).unit_inverse(6) is None


def test_rationals_exact():
    Q = Rationals()
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert Q.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    with pytest.raises(NotAUnit):
        Q.inv(Fraction(0))


def test_poly_ring_basics():
    R = PolynomialRing(PrimeField(5), "t")
    t = R.generator
    assert R.mul(t, t) == (0, 0, 1)
    assert R.add(t, R.neg(t)) == ()
    q, rem = R.divmod((1, 0, 0, 1), (1, 1))  # (t^3+1) / (t+1)
    assert R.add(R.mul(q, (1, 1)), rem) == (1, 0, 0, 1)
    assert R.gcd((0, 0, 1), (0, 1)) == (0, 1)


def test_quotient_ring():
    F4 = QuotientRing(2, (1, 1, 1))  # F_2[x]/(x^2+x+1), a field
    assert F4.is_field
    x = F4.generator
    assert F4.mul(x, x) == F4.add(x, F4.one)  # x^2 = x + 1
    R8 = QuotientRing(2, (0, 0, 0, 1))  # F_2[x]/(x^3), nilpotents
    assert not R8.is_field
    assert R8.unit_inverse(R8.generator) is None
    assert R8.is_unit(R8.add(R8.one, R8.generator))


def test_apply_endo_examples():
    R = PolynomialRing(Rationals(), "t")
    t = R.generator
    shift = EndoSpec(R, R.add(t, R.one))  # t -> t + 1
    assert shift.apply(R.mul(t, t)) == R.add(R.mul(t, t), R.add(R.add(t, t), R.one))
    ident = EndoSpec(R)
    a = (Fraction(3), Fraction(0), Fraction(2))
    assert ident.apply(a) == a
    F5t = PolynomialRing(PrimeField(5), "t")
    doubling = EndoSpec(F5t, F5t.scale(2, F5t.generator))  # t -> 2t
    assert doubling.apply((0, 0, 0, 3)) == (0, 0, 0, 4)  # 3*(2t)^3 = 24 t^3 = 4 t^3


def test_apply_derivation_examples():
    R = PolynomialRing(Rationals(), "t")
    ddt = DerivationSpec(R, EndoSpec(R), R.one)
    t3 = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert ddt.apply(t3) == (Fraction(0), Fraction(0), Fraction(3))
    # twisted: sigma(t) = q t, delta(t) = 1 forces delta(t^2) = (q+1) t
    F5t = PolynomialRing(PrimeField(5), "t")
    q = 2
    tw = DerivationSpec(F5t, EndoSpec(F5t, F5t.scale(q, F5t.generator)), F5t.one)
    assert tw.apply((0, 0, 1)) == (0, (q + 1) % 5)
    assert tw.apply((4,)) == ()  # constants die


def test_enumeration():
    assert list(ResidueRing(4).elements()) == [0, 1, 2, 3]
    F2x = QuotientRing(2, (0, 0, 1))
    assert list(F2x.elements()) == [(), (1,), (0, 1), (1, 1)]  # 0, 1, x, x+1
    with pytest.raises(InfiniteRing):
        list(Rationals().elements())
    with pytest.raises(InfiniteRing):
        PolynomialRing(Rationals()).polys_up_to(1)


def test_enumeration_counts():
    for ring in (ResidueRing(12), PrimeField(7), QuotientRing(3, (0, 1, 1))):
        els = list(ring.elements())
        assert len(els) == ring.size == len(set(els))


@pytest.mark.parametrize(
    "ring",
    [
        PrimeField(7),
        Rationals(),
        ResidueRing(12),
        PolynomialRing(PrimeField(5)),
        PolynomialRing(Rationals()),
        QuotientRing(2, (1, 1, 1)),
    ],
    ids=lambda r: r.describe(),
)
def test_canonical_arithmetic_samples(ring):
    rng = random.Random(7)
    for _ in range(1000):
        a = ring.random_element(rng)
        assert ring.add(a, ring.neg(a)) == ring.zero
        w = ring.unit_inverse(a)
        if w is not None:
            assert ring.mul(a, w) == ring.one and ring.mul(w, a) == ring.one
        ring.check(a)


def test_endo_law_sampling():
    F5t = PolynomialRing(PrimeField(5), "t")
    good = EndoSpec(F5t, (1, 2))  # t -> 2t + 1 extends to a ring map
    assert check_endo_laws(good) == []
    # quotient map that is not well defined: x -> x + 1 in F_2[x]/(x^2)
    Q = QuotientRing(2, (0, 0, 1))
    broken = EndoSpec(Q, (1, 1))
    assert check_endo_laws(broken) != []


def test_derivation_law_sampling():
    F5t = PolynomialRing(PrimeField(5), "t")
    sig = EndoSpec(F5t, F5t.scale(3, F5t.generator))
    spec = DerivationSpec(F5t, sig, (2, 1))
    assert check_derivation_laws(spec) == []


# every quotient ring over F_2 up to degree 3 and over F_3 and F_5 up to degree 2
QUOTIENT_CORPUS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]


def _quotient_corpus():
    return [QuotientRing(p, f) for p, d in QUOTIENT_CORPUS for f in monic_moduli(p, d)]


def test_exact_endo_checks_match_exhaustive_oracle():
    count = 0
    for R in _quotient_corpus():
        for g in R.elements():
            spec = EndoSpec(R, g)
            assert (check_endo_laws(spec) == []) == (exhaustive_endo_laws(spec) == []), (R, g)
            assert spec.injectivity_known() == injective_by_scan(spec), (R, g)
            assert spec.bijectivity_known() == spec.injectivity_known()
            count += 1
    assert count == 824


def test_exact_derivation_checks_match_exhaustive_oracle():
    # every sigma over rings of at most 9 elements, the well-defined ones above
    count = valid = 0
    for R in _quotient_corpus():
        sigmas = [EndoSpec(R, g) for g in R.elements()]
        if R.size > 9:
            sigmas = [s for s in sigmas if not check_endo_laws(s)]
        for sigma in sigmas:
            for e in R.elements():
                spec = DerivationSpec(R, sigma, e)
                exact = check_derivation_laws(spec) == []
                assert exact == (exhaustive_derivation_laws(spec) == []), (R, sigma, e)
                count += 1
                valid += exact
    assert (count, valid) == (3590, 1300)


def test_degree_one_quotient_admits_only_trivial_actions():
    R = QuotientRing(5, (1, 1))  # F_5[x]/(x + 1): x is the constant 4
    assert R.generator == (4,)
    assert check_endo_laws(EndoSpec(R, (3,))) == ["sigma(x + 1) = 4, not 0"]
    assert check_derivation_laws(DerivationSpec(R, EndoSpec(R), (1,))) == ["delta(x + 1) = 1, not 0"]


def test_laws_hold_for_every_image_over_polynomial_rings():
    rng = random.Random(5)
    for R in (PolynomialRing(PrimeField(5), "t"), PolynomialRing(Rationals(), "t")):
        for _ in range(10):
            sigma = EndoSpec(R, R.random_element(rng, 2))
            delta = DerivationSpec(R, sigma, R.random_element(rng, 2))
            assert check_endo_laws(sigma) == [] == sampled_endo_laws(sigma, rng, 20)
            assert check_derivation_laws(delta) == [] == sampled_derivation_laws(delta, rng, 20)


def test_sampled_oracle_finds_what_the_exact_check_finds():
    rng = random.Random(3)
    Q = QuotientRing(2, (0, 0, 1))
    assert sampled_endo_laws(EndoSpec(Q, (1, 1)), rng, 200) != []  # x -> x + 1 mod x^2
    R = QuotientRing(3, (0, 0, 1))
    bad = DerivationSpec(R, EndoSpec(R), R.one)  # d/dx does not preserve (x^2) in char 3
    assert check_derivation_laws(bad) != [] and sampled_derivation_laws(bad, rng, 200) != []


def test_rabin_test_matches_trial_division():
    for p, top in ((2, 6), (3, 4), (5, 3), (7, 3)):
        for d in range(1, top + 1):
            for f in monic_moduli(p, d):
                R = QuotientRing(p, f)
                assert R.is_field == irreducible_by_scan(R), (p, f)


def test_large_quotient_rings_are_decided_without_enumeration():
    R = QuotientRing(101, (1, 0, 0, 0, 0, 0, 1))  # x^6 + 1 has 101^6 elements
    assert not R.is_field  # x^6 + 1 = (x^2 + 1)(x^4 - x^2 + 1)
    assert QuotientRing(101, (2, 0, 1)).is_field  # -2 is not a square mod 101
    assert EndoSpec(R, R.neg(R.generator)).bijectivity_known()  # x -> -x
    assert not EndoSpec(R, R.mul(R.generator, R.generator)).injectivity_known()  # x -> x^2


def test_injectivity_verdicts():
    F5t = PolynomialRing(PrimeField(5), "t")
    assert EndoSpec(F5t, (1, 2)).injectivity_known() is True
    assert EndoSpec(F5t, (3,)).injectivity_known() is False  # constant image
    assert EndoSpec(F5t, (0, 0, 1)).bijectivity_known() is False  # t -> t^2
    assert EndoSpec(F5t, (1, 2)).bijectivity_known() is True


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        PrimeField(5).check(7)
    with pytest.raises(KindMismatch):
        PolynomialRing(PrimeField(5)).check((1, 0))  # trailing zero
    with pytest.raises(KindMismatch):
        Rationals().check(1)  # must be a Fraction
