"""Built-in algebra presentations and stable-rank upper bounds.

Builders produce validated presentations for the classical examples (Weyl,
quantum plane, enveloping algebras, ...).  The bound table records, for each
named family, the integer upper bound on the stable rank coming from the
stable range estimate sr(A) <= Kdim(R) + n + 1 applied to the family's
standard coefficient ring; the same integer d certifies that the algebra is
d-Hermite (stably free modules of rank >= d are free).

Relation sets for the named algebras follow the standard literature
presentations; every builder output must pass `validate_presentation`, which
decides exactly, by the finitely many diamond-lemma ambiguities, whether the
relation data give a PBW basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, MissingDimR, UnknownAlgebra
from .parsing import parse_presentation, serialize_presentation
from .pbw import Presentation
from .rings import DerivationSpec, EndoSpec, PolynomialRing, PrimeField, Rationals, Ring

__all__ = [
    "BoundReport",
    "build",
    "catalog_names",
    "bound_row_names",
    "describe_entry",
    "stable_rank_bound",
    "d_hermite_bound",
    "parse_presentation_file",
    "serialize",
]

parse_presentation_file = parse_presentation
serialize = serialize_presentation


def _coeff_field(p: int | None, rationals: bool) -> Ring:
    if rationals:
        return Rationals()
    return PrimeField(7 if p is None else p)


def _field_presentation(field: Ring, names, c=None, lower=None, bijective=True) -> Presentation:
    n = len(names)
    sigma = tuple(EndoSpec(field) for _ in range(n))
    delta = tuple(DerivationSpec(field, sigma[i]) for i in range(n))
    return Presentation(field, names, sigma, delta, c or {}, lower or {}, bijective)


def _unit(field: Ring, q) -> object:
    qv = field.from_int(q) if isinstance(q, int) else q
    if not field.is_unit(qv):
        raise BadParams(f"parameter {field.format(qv)} must be a unit")
    return qv


def _lower_const(field: Ring, n: int, value):
    return (value, (field.zero,) * n)


def _lower_var(field: Ring, n: int, k: int, value):
    dks = [field.zero] * n
    dks[k] = value
    return (field.zero, tuple(dks))


# -- builders ---------------------------------------------------------------------


def _build_weyl(field, n=1, **_):
    # variables t_1..t_n, x_1..x_n with x_i t_i = t_i x_i + 1, everything else commuting
    if n < 1:
        raise BadParams("n must be >= 1")
    if n == 1:
        names = ["t", "x"]
    else:
        names = [f"t{i+1}" for i in range(n)] + [f"x{i+1}" for i in range(n)]
    lower = {(i, n + i): _lower_const(field, 2 * n, field.one) for i in range(n)}
    return _field_presentation(field, names, lower=lower)


def _build_polynomial_ring(field, n=1, names=None, **_):
    if n < 1:
        raise BadParams("n must be >= 1")
    if names is None:
        names = ["x"] if n == 1 else [f"x{i+1}" for i in range(n)]
    elif len(names) != n:
        raise BadParams("names must match n")
    return _field_presentation(field, names)


def _build_multiplicative_analogue(field, n=2, q=3, lam=None, names=None, **_):
    # x_j x_i = lam[j][i] x_i x_j for i < j, no lower terms
    if n < 2:
        raise BadParams("n must be >= 2")
    if names is None:
        names = [f"x{i+1}" for i in range(n)]
    c = {}
    for i in range(n):
        for j in range(i + 1, n):
            lv = lam[j][i] if lam is not None else q
            c[(i, j)] = _unit(field, lv)
    return _field_presentation(field, names, c=c)


def _build_quantum_plane(field, q=3, **_):
    return _build_multiplicative_analogue(field, n=2, q=q, names=["x", "y"])


def _build_additive_analogue(field, n=1, q=3, qs=None, **_):
    # x_i, y_i with y_i x_i = q_i x_i y_i + 1, all other pairs commuting
    if n < 1:
        raise BadParams("n must be >= 1")
    if qs is None:
        qs = [q] * n
    if len(qs) != n:
        raise BadParams("need one q per variable pair")
    if n == 1:
        names = ["x", "y"]
    else:
        names = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    c = {}
    lower = {}
    for i in range(n):
        c[(i, n + i)] = _unit(field, qs[i])
        lower[(i, n + i)] = _lower_const(field, 2 * n, field.one)
    return _field_presentation(field, names, c=c, lower=lower)


def _build_usl2(field, **_):
    # e, f, h with fe = ef - h, he = eh + 2e, hf = fh - 2f
    names = ["e", "f", "h"]
    two = field.from_int(2)
    lower = {
        (0, 1): _lower_var(field, 3, 2, field.neg(field.one)),
        (0, 2): _lower_var(field, 3, 0, two),
        (1, 2): _lower_var(field, 3, 1, field.neg(two)),
    }
    return _field_presentation(field, names, lower=lower)


def _build_dispin(field, **_):
    # x, y, z with yx = -xy + z, zx = xz - x, zy = yz + y
    names = ["x", "y", "z"]
    c = {(0, 1): field.neg(field.one)}
    lower = {
        (0, 1): _lower_var(field, 3, 2, field.one),
        (0, 2): _lower_var(field, 3, 0, field.neg(field.one)),
        (1, 2): _lower_var(field, 3, 1, field.one),
    }
    return _field_presentation(field, names, c=c, lower=lower)


def _build_q_heisenberg(field, n=1, q=2, **_):
    # per block: y_i x_i = q x_i y_i, z_i x_i = q^{-1} x_i z_i + y_i, z_i y_i = q y_i z_i
    if n < 1:
        raise BadParams("n must be >= 1")
    qv = _unit(field, q)
    qinv = field.inv(qv)
    if n == 1:
        names = ["x", "y", "z"]
    else:
        names = (
            [f"x{i+1}" for i in range(n)]
            + [f"y{i+1}" for i in range(n)]
            + [f"z{i+1}" for i in range(n)]
        )
    c = {}
    lower = {}
    for i in range(n):
        xi, yi, zi = i, n + i, 2 * n + i
        c[(xi, yi)] = qv
        c[(xi, zi)] = qinv
        lower[(xi, zi)] = _lower_var(field, 3 * n, yi, field.one)
        c[(yi, zi)] = qv
    return _field_presentation(field, names, c=c, lower=lower)


def _build_manin(field, q=3, **_):
    # 2x2 quantum matrices as an extension of K[b]: generators a, c, d with
    # ab = q^{-1} ba, db = q bd, ca = q ac, dc = q cd, da = ad + (q - q^{-1}) bc
    qv = _unit(field, q)
    qinv = field.inv(qv)
    R = PolynomialRing(field, "b")
    b = R.generator
    names = ["a", "c", "d"]
    sigma = (
        EndoSpec(R, R.scale(qinv, b)),
        EndoSpec(R),
        EndoSpec(R, R.scale(qv, b)),
    )
    delta = tuple(DerivationSpec(R, s) for s in sigma)
    qq = R.scale(field.sub(qv, qinv), b)  # (q - q^{-1}) b
    c = {(0, 1): (qv,), (0, 2): R.one, (1, 2): (qv,)}
    lower = {(0, 2): (R.zero, (R.zero, qq, R.zero))}
    return Presentation(R, names, sigma, delta, c, lower, bijective=True)


def _build_shift_operators(field, h=1, **_):
    # K[t][x; t -> t - h]
    R = PolynomialRing(field, "t")
    hv = field.from_int(h) if isinstance(h, int) else h
    img = R.add(R.generator, ((field.neg(hv)),) if hv != field.zero else ())
    sigma = (EndoSpec(R, img),)
    delta = (DerivationSpec(R, sigma[0]),)
    return Presentation(R, ["x"], sigma, delta, {}, {}, bijective=True)


def _build_q_dilation(field, q=3, **_):
    # K[t][H; t -> q t]
    R = PolynomialRing(field, "t")
    qv = _unit(field, q)
    sigma = (EndoSpec(R, R.scale(qv, R.generator)),)
    delta = (DerivationSpec(R, sigma[0]),)
    return Presentation(R, ["H"], sigma, delta, {}, {}, bijective=True)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    builder: object
    row: str  # bound-table row this family instantiates
    fixed: dict  # parameters pinned by the construction


_CATALOG = {
    e.name: e
    for e in [
        CatalogEntry("weyl", "Weyl algebra A_n(K), 2n generators over K", _build_weyl, "weyl", {}),
        CatalogEntry(
            "polynomial-ring",
            "commutative polynomial ring K[x_1..x_n]",
            _build_polynomial_ring,
            "polynomial-ring",
            {"dimR": 0},
        ),
        CatalogEntry(
            "quantum-plane",
            "quantum plane yx = q xy",
            _build_quantum_plane,
            "multiplicative-analogue",
            {"n": 2},
        ),
        CatalogEntry(
            "multiplicative-analogue",
            "multiplicative Weyl analogue O_n(lambda_ji)",
            _build_multiplicative_analogue,
            "multiplicative-analogue",
            {},
        ),
        CatalogEntry(
            "additive-analogue",
            "additive Weyl analogue A_n(q_1..q_n)",
            _build_additive_analogue,
            "additive-analogue",
            {},
        ),
        CatalogEntry(
            "usl2",
            "enveloping algebra of sl(2, K)",
            _build_usl2,
            "enveloping-lie",
            {"n": 3, "dimR": 0},
        ),
        CatalogEntry("dispin", "enveloping algebra of osp(1, 2)", _build_dispin, "dispin", {}),
        CatalogEntry(
            "q-heisenberg", "q-Heisenberg algebra H_n(q)", _build_q_heisenberg, "q-heisenberg", {}
        ),
        CatalogEntry(
            "manin",
            "2x2 quantum matrix algebra over K[b]",
            _build_manin,
            "manin",
            {},
        ),
        CatalogEntry(
            "shift-operators",
            "shift operators S_h over K[t]",
            _build_shift_operators,
            "shift-operators",
            {},
        ),
        CatalogEntry(
            "q-dilation",
            "one q-dilation operator over K[t]",
            _build_q_dilation,
            "q-dilation-poly",
            {"n": 1, "m": 1},
        ),
    ]
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def describe_entry(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownAlgebra(f"no catalog entry named {name!r}") from None


def build(name: str, *, p: int | None = None, rationals: bool = False, **params) -> Presentation:
    entry = describe_entry(name)
    field = _coeff_field(p, rationals)
    return entry.builder(field, **params)


# -- stable-rank bound table --------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    name: str
    display: str
    formula: str  # human-readable, in n, m, dim(R)
    fn: object  # (n, m, dimR) -> int
    needs: frozenset


def _row(name, display, formula, fn, needs=()):
    return BoundRow(name, display, formula, fn, frozenset(needs))


_B = [
    _row("polynomial-ring", "habitual polynomial ring R[x_1..x_n]", "dim(R)+n+1", lambda n, m, d: d + n + 1, {"n", "dimR"}),
    _row("ore-bijective", "iterated Ore extension of bijective type over R", "dim(R)+n+1", lambda n, m, d: d + n + 1, {"n", "dimR"}),
    _row("weyl", "Weyl algebra A_n(K)", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("extended-weyl", "extended Weyl algebra B_n(K)", "n+1", lambda n, m, d: n + 1, {"n"}),
    _row("enveloping-lie", "enveloping algebra of an n-dimensional Lie algebra over K", "dim(K)+n+1", lambda n, m, d: d + n + 1, {"n", "dimR"}),
    _row("tensor-enveloping", "tensor product R (x) U(g)", "dim(R)+n+1", lambda n, m, d: d + n + 1, {"n", "dimR"}),
    _row("crossed-enveloping", "crossed product R * U(g)", "dim(R)+n+1", lambda n, m, d: d + n + 1, {"n", "dimR"}),
    _row("q-differential-ops", "q-differential operators D_{q,h}[x,y]", "3", lambda n, m, d: 3),
    _row("shift-operators", "shift operators S_h", "3", lambda n, m, d: 3),
    _row("mixed-differential", "mixed differential/shift algebra D_h", "4", lambda n, m, d: 4),
    _row("discrete-linear-systems", "discrete linear systems K[t_1..t_n][x_1..x_n; sigma]", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("shift-partial-poly", "partial shift operators over K[t_1..t_n]", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("shift-partial-rational", "partial shift operators over K(t_1..t_n)", "n+1", lambda n, m, d: n + 1, {"n"}),
    _row("differential-partial-poly", "partial differential operators over K[t_1..t_n]", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("differential-partial-rational", "partial differential operators over K(t_1..t_n)", "n+1", lambda n, m, d: n + 1, {"n"}),
    _row("difference-partial-poly", "partial difference operators over K[t_1..t_n]", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("difference-partial-rational", "partial difference operators over K(t_1..t_n)", "n+1", lambda n, m, d: n + 1, {"n"}),
    _row("q-dilation-poly", "q-dilation operators over K[t_1..t_n]", "n+m+1", lambda n, m, d: n + m + 1, {"n", "m"}),
    _row("q-dilation-rational", "q-dilation operators over K(t_1..t_n)", "m+1", lambda n, m, d: m + 1, {"m"}),
    _row("q-differential-partial-poly", "q-differential operators over K[t_1..t_n]", "n+m+1", lambda n, m, d: n + m + 1, {"n", "m"}),
    _row("q-differential-partial-rational", "q-differential operators over K(t_1..t_n)", "m+1", lambda n, m, d: m + 1, {"m"}),
    _row("diffusion", "diffusion algebras on n generators", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("additive-analogue", "additive Weyl analogue A_n(q_1..q_n)", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("multiplicative-analogue", "multiplicative Weyl analogue O_n(lambda_ji)", "n+1", lambda n, m, d: n + 1, {"n"}),
    _row("quantum-so3", "quantum algebra U'(so(3, K))", "4", lambda n, m, d: 4),
    _row("skew-3dim", "3-dimensional skew polynomial algebras", "4", lambda n, m, d: 4),
    _row("dispin", "dispin algebra U(osp(1, 2))", "4", lambda n, m, d: 4),
    _row("woronowicz", "Woronowicz deformation of U(sl(2, K))", "4", lambda n, m, d: 4),
    _row("complex-vq-sl3", "complex quantum algebra V_q(sl_3(C))", "11", lambda n, m, d: 11),
    _row("algebra-u", "triangular algebra U on 3n generators", "3n+1", lambda n, m, d: 3 * n + 1, {"n"}),
    _row("manin", "2x2 quantum matrix algebra O_q(M_2(K))", "5", lambda n, m, d: 5),
    _row("slq2", "coordinate algebra of the quantum group SL_q(2)", "5", lambda n, m, d: 5),
    _row("q-heisenberg", "q-Heisenberg algebra H_n(q)", "3n+1", lambda n, m, d: 3 * n + 1, {"n"}),
    _row("uqsl2", "quantum enveloping algebra U_q(sl(2, K))", "4", lambda n, m, d: 4),
    _row("hayashi", "Hayashi q-analogue W_q(J)", "3n+1", lambda n, m, d: 3 * n + 1, {"n"}),
    _row("quantum-space-diffops", "differential operators on a quantum space", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("witten", "Witten deformation of U(sl(2, K))", "4", lambda n, m, d: 4),
    _row("quantum-weyl-maltsiniotis", "quantum Weyl algebra of Maltsiniotis over K", "dim(K)+2n+1", lambda n, m, d: d + 2 * n + 1, {"n", "dimR"}),
    _row("quantum-weyl-qpij", "quantum Weyl algebra A_n(q, p_ij)", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("multiparameter-weyl", "multiparameter quantized Weyl algebra", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("quantum-symplectic", "quantum symplectic space O_q(sp(K^2n))", "2n+1", lambda n, m, d: 2 * n + 1, {"n"}),
    _row("quadratic-3var", "quadratic algebras in 3 variables", "4", lambda n, m, d: 4),
]

_BOUND_ROWS = {r.name: r for r in _B}


def bound_row_names() -> list[str]:
    return sorted(_BOUND_ROWS)


@dataclass(frozen=True)
class BoundReport:
    """Integer stable-rank upper bound; the same d witnesses d-Hermite."""

    name: str
    display: str
    formula: str
    n: int | None
    m: int | None
    dim_r: int | None
    bound: int

    @property
    def d_hermite(self) -> int:
        return self.bound

    def as_dict(self):
        return {
            "name": self.name,
            "display": self.display,
            "formula": self.formula,
            "n": self.n,
            "m": self.m,
            "dim_r": self.dim_r,
            "bound": self.bound,
            "d_hermite": self.d_hermite,
        }


def stable_rank_bound(
    name: str, *, n: int | None = None, m: int | None = None, dim_r: int | None = None
) -> BoundReport:
    row = _BOUND_ROWS.get(name)
    entry = _CATALOG.get(name)
    if entry is not None:
        # catalog constructions pin some formula inputs (field coefficients, sizes)
        if row is None:
            row = _BOUND_ROWS[entry.row]
        n = n if n is not None else entry.fixed.get("n")
        m = m if m is not None else entry.fixed.get("m")
        dim_r = dim_r if dim_r is not None else entry.fixed.get("dimR")
    if row is None:
        raise UnknownAlgebra(f"no bound row named {name!r}")
    if "n" in row.needs and n is None:
        raise BadParams(f"{name}: the bound formula {row.formula} needs n")
    if "m" in row.needs and m is None:
        raise BadParams(f"{name}: the bound formula {row.formula} needs m")
    if "dimR" in row.needs and dim_r is None:
        raise MissingDimR(
            f"{name}: the bound formula {row.formula} needs the coefficient-ring "
            "Krull dimension (field: 0, K[t]: 1)"
        )
    if n is not None and n < 1:
        raise BadParams("n must be >= 1")
    if m is not None and m < 1:
        raise BadParams("m must be >= 1")
    if dim_r is not None and dim_r < 0:
        raise BadParams("dim(R) must be >= 0")
    bound = row.fn(n, m, dim_r)
    return BoundReport(name, row.display, row.formula, n, m, dim_r, bound)


def d_hermite_bound(
    name: str, *, n: int | None = None, m: int | None = None, dim_r: int | None = None
) -> int:
    return stable_rank_bound(name, n=n, m=m, dim_r=dim_r).d_hermite
