import pytest

from skewpbw.catalog import (
    build,
    catalog_names,
    d_hermite_bound,
    describe_entry,
    stable_rank_bound,
)
from skewpbw.errors import BadParams, MissingDimR, UnknownAlgebra
from skewpbw.pbw import validate_presentation


def test_weyl_relations():
    P = build("weyl", p=7, n=1)
    assert P.names == ("t", "x")
    assert P.c[(0, 1)] == 1
    d0, dks = P.lower[(0, 1)]
    assert d0 == 1 and all(d == 0 for d in dks)
    P2 = build("weyl", p=7, n=2)
    assert P2.names == ("t1", "t2", "x1", "x2")
    assert P2.lower[(0, 2)][0] == 1  # x1 t1 = t1 x1 + 1
    assert P2.lower[(1, 2)][0] == 0  # x1 t2 = t2 x1


def test_quantum_plane_constant():
    P = build("quantum-plane", p=7, q=3)
    assert P.c[(0, 1)] == 3


def test_every_entry_validates():
    for name in catalog_names():
        P = build(name, p=7)
        rep = validate_presentation(P)
        assert rep.ok, (name, [c.name for c in rep.failures()])
        assert P.bijective


def test_entries_over_q():
    for name in ("weyl", "quantum-plane", "usl2", "dispin"):
        rep = validate_presentation(build(name, rationals=True))
        assert rep.ok, name


def test_unknown_and_bad_params():
    with pytest.raises(UnknownAlgebra):
        build("nope")
    with pytest.raises(BadParams):
        build("quantum-plane", p=7, q=0)
    with pytest.raises(BadParams):
        build("weyl", p=7, n=0)
    with pytest.raises(UnknownAlgebra):
        stable_rank_bound("nope")


def test_bound_examples():
    assert stable_rank_bound("weyl", n=2).bound == 5
    assert stable_rank_bound("manin").bound == 5
    assert stable_rank_bound("q-heisenberg", n=3).bound == 10
    assert d_hermite_bound("polynomial-ring", n=3, dim_r=0) == 4
    assert d_hermite_bound("weyl", n=1) == 3
    assert d_hermite_bound("extended-weyl", n=2) == 3


def test_bound_report_fields():
    rep = stable_rank_bound("weyl", n=2)
    assert rep.d_hermite == rep.bound
    assert rep.formula == "2n+1"
    d = rep.as_dict()
    assert d["bound"] == 5 and d["d_hermite"] == 5


def test_dim_r_required_for_abstract_rows():
    with pytest.raises(MissingDimR):
        stable_rank_bound("ore-bijective", n=2)
    assert stable_rank_bound("ore-bijective", n=2, dim_r=1).bound == 4
    # the catalog polynomial ring is over a field, so its dimension defaults to 0
    assert stable_rank_bound("polynomial-ring", n=3).bound == 4
    assert stable_rank_bound("polynomial-ring", n=3, dim_r=2).bound == 6


def test_catalog_fixed_parameters():
    assert stable_rank_bound("usl2").bound == 4
    assert stable_rank_bound("quantum-plane").bound == 3
    assert stable_rank_bound("q-dilation").bound == 3
    assert stable_rank_bound("shift-operators").bound == 3


def test_describe_entry():
    entry = describe_entry("manin")
    assert "quantum" in entry.summary
    with pytest.raises(UnknownAlgebra):
        describe_entry("missing")


def test_multiplicative_analogue_matrix_params():
    lam = [[None] * 3 for _ in range(3)]
    lam[1][0], lam[2][0], lam[2][1] = 2, 3, 4
    P = build("multiplicative-analogue", p=7, n=3, lam=lam)
    assert P.c[(0, 1)] == 2 and P.c[(0, 2)] == 3 and P.c[(1, 2)] == 4
    assert validate_presentation(P).ok


def test_additive_analogue_per_variable_q():
    P = build("additive-analogue", p=7, n=2, qs=[2, 3])
    assert P.c[(0, 2)] == 2 and P.c[(1, 3)] == 3
    assert validate_presentation(P).ok
