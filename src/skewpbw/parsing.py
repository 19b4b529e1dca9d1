"""Expression grammar and the line-oriented presentation file format.

Expressions combine integer literals, variable names, and the coefficient-ring
generator with `+ - * / ^` and parentheses; juxtaposition multiplies, so
`1 * t x + 1` and `x*x*t - 3*t` are both valid.  Division is only defined
between scalars with an invertible divisor.

Presentation files are line oriented with `#` comments:

    ring Fp 7                # also: Q | Zmod n | poly Fp 7 t | poly Q t | quot Fp 2 x^3
    vars t x
    bijective true
    sigma x t -> t           # coefficient action, poly/quot rings only
    delta x t -> 1
    c x t = 1                # constant for the pair, no lower terms
    rel x t = 1 * t x + 1    # x*t rewrites to 1*t*x + 1

Pairs without a `c`/`rel` line default to plain commutation.  The relation
right-hand side must consist of the reordered quadratic term plus terms of
degree at most one; anything else is rejected before a presentation is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ParseError, SemanticError
from .pbw import Presentation, SkewPoly
from .rings import (
    DerivationSpec,
    EndoSpec,
    PolynomialRing,
    PrimeField,
    QuotientRing,
    Rationals,
    Ring,
    power,
)

_SYMBOLS = "+-*/^()"

# degree limit of a polynomial coefficient written in an expression
MAX_SCALAR_DEGREE = 100_000


@dataclass(frozen=True)
class Token:
    kind: str  # int | name | sym | end
    text: str
    col: int


def tokenize(text: str, line: int = 1) -> list[Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("name", text[i:j], i + 1))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(Token("sym", ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, i + 1)
    out.append(Token("end", "", len(text) + 1))
    return out


class _ExprParser:
    """Recursive-descent parser producing a small tree of tuples.

    Nodes: ("int", k) ("name", s) ("neg", a) ("pow", a, k)
           ("add", a, b) ("sub", a, b) ("mul", a, b) ("div", a, b)
    """

    def __init__(self, tokens: list[Token], line: int = 1):
        self.toks = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg):
        raise ParseError(msg, self.line, self.peek().col)

    def parse(self):
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(f"trailing input {self.peek().text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek().text in {"+", "-"}:
            op = self.take().text
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while True:
            t = self.peek()
            if t.text in {"*", "/"}:
                op = self.take().text
                node = ("mul" if op == "*" else "div", node, self.unary())
            elif t.kind in {"int", "name"} or t.text == "(":
                node = ("mul", node, self.unary())  # juxtaposition
            else:
                return node

    def unary(self):
        if self.peek().text == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().text == "^":
            self.take()
            t = self.take()
            if t.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.line, t.col)
            node = ("pow", node, int(t.text))
        return node

    def atom(self):
        t = self.take()
        if t.kind == "int":
            return ("int", int(t.text))
        if t.kind == "name":
            return ("name", t.text)
        if t.text == "(":
            node = self.expr()
            closing = self.take()
            if closing.text != ")":
                raise ParseError("expected ')'", self.line, closing.col)
            return node
        raise ParseError(f"unexpected token {t.text!r}", self.line, t.col)


def parse_expr_tree(text: str, line: int = 1):
    return _ExprParser(tokenize(text, line), line).parse()


def eval_expr(text: str, pres: Presentation, line: int = 1) -> SkewPoly:
    """Parse and normalize an expression over a presentation.

    An expression whose degree may exceed MAX_SCALAR_DEGREE is refused before
    it is evaluated.
    """
    node = parse_expr_tree(text, line)
    _check_degree(node, line)
    return _eval_node(node, pres)


def _eval_node(node, pres: Presentation) -> SkewPoly:
    R = pres.ring
    op = node[0]
    if op == "int":
        return pres.scalar(R.from_int(node[1]))
    if op == "name":
        nm = node[1]
        if nm in pres.names:
            return pres.var(nm)
        if nm == getattr(R, "gen_name", None):
            return pres.scalar(R.generator)
        raise SemanticError(f"unknown name {nm!r}")
    if op == "neg":
        return -_eval_node(node[1], pres)
    if op == "add":
        return _eval_node(node[1], pres) + _eval_node(node[2], pres)
    if op == "sub":
        return _eval_node(node[1], pres) - _eval_node(node[2], pres)
    if op == "mul":
        return _eval_node(node[1], pres) * _eval_node(node[2], pres)
    if op == "div":
        a, b = _eval_node(node[1], pres), _eval_node(node[2], pres)
        if not b.is_scalar():
            raise SemanticError("division by a non-scalar")
        w = R.unit_inverse(b.constant_coefficient())
        if w is None:
            raise SemanticError("division by a non-unit")
        return a * pres.scalar(w)
    if op == "pow":  # square-and-multiply: the algebra is associative
        return power(_eval_node(node[1], pres), node[2], operator.mul, pres.one())
    raise SemanticError(f"bad expression node {op!r}")


def parse_scalar(text: str, ring: Ring, line: int = 1):
    """Evaluate an expression that may mention only the coefficient generator.

    Over a polynomial ring an expression whose degree may exceed
    MAX_SCALAR_DEGREE is refused before it is evaluated.
    """
    node = parse_expr_tree(text, line)
    if isinstance(ring, PolynomialRing):
        _check_degree(node, line)
    return _eval_scalar(node, ring, line)


def _check_degree(node, line: int):
    degree = degree_bound(node)
    if degree > MAX_SCALAR_DEGREE:
        raise ParseError(
            f"a polynomial of degree up to {degree} exceeds the limit of {MAX_SCALAR_DEGREE}", line
        )


def degree_bound(node, names=None) -> int:
    """An upper bound on the degree of an expression tree in the given names
    (in every name when `names` is None).

    A divisor must be a unit scalar, so a quotient has at most the degree of
    its dividend.
    """
    op = node[0]
    if op == "int":
        return 0
    if op == "name":
        return 1 if names is None or node[1] in names else 0
    if op in {"neg", "div"}:
        return degree_bound(node[1], names)
    if op in {"add", "sub"}:
        return max(degree_bound(node[1], names), degree_bound(node[2], names))
    if op == "mul":
        return degree_bound(node[1], names) + degree_bound(node[2], names)
    if op == "pow":
        return degree_bound(node[1], names) * node[2]
    raise SemanticError(f"bad scalar node {op!r}")


def _eval_scalar(node, ring: Ring, line: int):
    op = node[0]
    if op == "int":
        return ring.from_int(node[1])
    if op == "name":
        if node[1] == getattr(ring, "gen_name", None):
            return ring.generator
        raise SemanticError(f"{node[1]!r} is not a coefficient of {ring.describe()}")
    if op == "neg":
        return ring.neg(_eval_scalar(node[1], ring, line))
    if op in {"add", "sub", "mul"}:
        a = _eval_scalar(node[1], ring, line)
        b = _eval_scalar(node[2], ring, line)
        return getattr(ring, op)(a, b)
    if op == "div":
        a = _eval_scalar(node[1], ring, line)
        b = _eval_scalar(node[2], ring, line)
        return ring.mul(a, ring.inv(b))
    if op == "pow":
        return ring.pow(_eval_scalar(node[1], ring, line), node[2])
    raise SemanticError(f"bad scalar node {op!r}")


def _formal_terms(node, ring: Ring, var_index, line: int):
    """Expand a relation right-hand side without applying any rewriting.

    Returns a list of (coefficient payload, variable index tuple); scalars
    multiply into the left coefficient, variable order within a term is kept.
    Products merge their terms by word, in order of first appearance, and keep
    the words whose coefficients sum to zero, so that every written word
    reaches `_parse_rel_rhs`.
    """
    op = node[0]
    if op == "int":
        return [(ring.from_int(node[1]), ())]
    if op == "name":
        nm = node[1]
        idx = var_index(nm)
        if idx is not None:
            return [(ring.one, (idx,))]
        if nm == getattr(ring, "gen_name", None):
            return [(ring.generator, ())]
        raise SemanticError(f"unknown name {nm!r} on line {line}")
    if op == "neg":
        return [(ring.neg(c), w) for c, w in _formal_terms(node[1], ring, var_index, line)]
    if op in {"add", "sub"}:
        left = _formal_terms(node[1], ring, var_index, line)
        right = _formal_terms(node[2], ring, var_index, line)
        if op == "sub":
            right = [(ring.neg(c), w) for c, w in right]
        return left + right
    if op == "mul":
        return _word_product(_formal_terms(node[1], ring, var_index, line),
                             _formal_terms(node[2], ring, var_index, line), ring)
    if op == "div":
        left = _formal_terms(node[1], ring, var_index, line)
        right = _formal_terms(node[2], ring, var_index, line)
        if len(right) != 1 or right[0][1]:
            raise SemanticError(f"relation divisor must be a scalar (line {line})")
        w = ring.inv(right[0][0])
        return [(ring.mul(c, w), word) for c, word in left]
    if op == "pow":
        return power(_formal_terms(node[1], ring, var_index, line), node[2],
                     lambda a, b: _word_product(a, b, ring), [(ring.one, ())])
    raise SemanticError(f"bad relation node {op!r} (line {line})")


def _word_product(left, right, ring: Ring):
    out = {}
    for c1, w1 in left:
        for c2, w2 in right:
            c, w = ring.mul(c1, c2), w1 + w2
            out[w] = ring.add(out[w], c) if w in out else c
    return [(c, w) for w, c in out.items()]


def parse_ring_line(parts: list[str], line: int) -> Ring:
    if not parts:
        raise ParseError("empty ring descriptor", line)
    kind = parts[0]
    try:
        if kind == "Q":
            return Rationals()
        if kind == "Fp":
            return PrimeField(int(parts[1]))
        if kind == "Zmod":
            raise SemanticError(
                f"line {line}: residue coefficient rings are not supported in "
                "presentations; use `ring Fp p` for prime moduli"
            )
        if kind == "poly":
            if parts[1] == "Q":
                return PolynomialRing(Rationals(), parts[2])
            if parts[1] == "Fp":
                return PolynomialRing(PrimeField(int(parts[2])), parts[3])
        if kind == "quot":
            if parts[1] != "Fp":
                raise ParseError("quotient rings are defined over Fp", line)
            p = int(parts[2])
            modulus_text = " ".join(parts[3:])
            gen = _poly_gen_name(modulus_text, line)
            modulus = parse_scalar(modulus_text, PolynomialRing(PrimeField(p), gen), line)
            return QuotientRing(p, modulus, gen)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad ring descriptor: {exc}", line) from exc
    raise ParseError(f"unknown ring kind {kind!r}", line)


def _poly_gen_name(text: str, line: int) -> str:
    for tok in tokenize(text, line):
        if tok.kind == "name":
            return tok.text
    raise ParseError("modulus polynomial names no variable", line)


def ring_line(ring: Ring) -> str:
    if isinstance(ring, Rationals):
        return "ring Q"
    if isinstance(ring, PrimeField):
        return f"ring Fp {ring.p}"
    if isinstance(ring, PolynomialRing):
        base = "Q" if isinstance(ring.base, Rationals) else f"Fp {ring.base.p}"
        return f"ring poly {base} {ring.gen_name}"
    if isinstance(ring, QuotientRing):
        return f"ring quot Fp {ring.p} {ring.poly.format(ring.modulus).replace(' ', '')}"
    raise SemanticError(f"{ring.describe()} has no file descriptor")


def parse_presentation(text: str) -> Presentation:
    ring: Ring | None = None
    names: list[str] = []
    bijective = False
    sigma_img: dict[int, tuple] = {}
    delta_img: dict[int, tuple] = {}
    c_data: dict[tuple, object] = {}
    lower_data: dict[tuple, tuple] = {}
    rel_seen: set = set()

    def need_header(lineno):
        if ring is None or not names:
            raise SemanticError(f"line {lineno}: `ring` and `vars` must come first")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split()
        head = parts[0]
        if head == "ring":
            ring = parse_ring_line(parts[1:], lineno)
        elif head == "vars":
            if len(parts) < 2:
                raise ParseError("vars line needs at least one name", lineno)
            names = parts[1:]
            if len(set(names)) != len(names):
                raise SemanticError(f"line {lineno}: duplicate variable name")
            gen = getattr(ring, "gen_name", None)
            if gen in names:
                raise SemanticError(
                    f"line {lineno}: {gen!r} is the coefficient generator, not a variable"
                )
        elif head == "bijective":
            if len(parts) != 2 or parts[1] not in {"true", "false"}:
                raise ParseError("bijective needs true or false", lineno)
            bijective = parts[1] == "true"
        elif head in {"sigma", "delta"}:
            need_header(lineno)
            body = stmt[len(head):].strip()
            if "->" not in body:
                raise ParseError(f"{head} line needs '->'", lineno)
            lhs, rhs = body.split("->", 1)
            lhs_parts = lhs.split()
            if len(lhs_parts) != 2:
                raise ParseError(f"{head} line needs a variable and the generator", lineno)
            var, gen = lhs_parts
            if var not in names:
                raise SemanticError(f"line {lineno}: unknown variable {var!r}")
            if gen != getattr(ring, "gen_name", None):
                raise SemanticError(f"line {lineno}: {gen!r} is not the coefficient generator")
            img = parse_scalar(rhs.strip(), ring, lineno)
            (sigma_img if head == "sigma" else delta_img)[names.index(var)] = img
        elif head in {"c", "rel"}:
            need_header(lineno)
            if len(parts) < 4 or "=" not in stmt:
                raise ParseError(f"malformed {head} line", lineno)
            hi_name, lo_name = parts[1], parts[2]
            for nm in (hi_name, lo_name):
                if nm not in names:
                    raise SemanticError(f"line {lineno}: unknown variable {nm!r}")
            hi, lo = names.index(hi_name), names.index(lo_name)
            if hi <= lo:
                raise SemanticError(
                    f"line {lineno}: relations rewrite out-of-order products; "
                    f"expected the later variable first ({hi_name!r} before {lo_name!r})"
                )
            rhs = stmt.split("=", 1)[1].strip()
            if head == "c":
                cval = parse_scalar(rhs, ring, lineno)
                if cval == ring.zero:
                    raise SemanticError(f"line {lineno}: the pair constant must be nonzero")
                prev = c_data.get((lo, hi))
                if prev is not None and prev != cval:
                    raise SemanticError(f"line {lineno}: conflicting constants for this pair")
                c_data[(lo, hi)] = cval
            else:
                if (lo, hi) in rel_seen:
                    raise SemanticError(f"line {lineno}: duplicate relation for this pair")
                rel_seen.add((lo, hi))
                cval, d0, dks = _parse_rel_rhs(rhs, ring, names, lo, hi, lineno)
                prev = c_data.get((lo, hi))
                if prev is not None and prev != cval:
                    raise SemanticError(f"line {lineno}: conflicting constants for this pair")
                c_data[(lo, hi)] = cval
                lower_data[(lo, hi)] = (d0, dks)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if ring is None or not names:
        raise SemanticError("presentation needs `ring` and `vars` lines")
    if bijective:
        for (lo, hi), cval in c_data.items():
            if not ring.is_unit(cval):
                raise SemanticError(
                    f"bijective presentations need unit constants, but "
                    f"c for {names[hi]}*{names[lo]} is {ring.format(cval)}"
                )
    n = len(names)
    sigma = tuple(EndoSpec(ring, sigma_img.get(i)) for i in range(n))
    delta = tuple(
        DerivationSpec(ring, sigma[i], delta_img.get(i)) for i in range(n)
    )
    return Presentation(ring, names, sigma, delta, c_data, lower_data, bijective)


def _parse_rel_rhs(rhs: str, ring: Ring, names: list[str], lo: int, hi: int, lineno: int):
    def var_index(nm):
        return names.index(nm) if nm in names else None

    node = parse_expr_tree(rhs, lineno)
    # every word is kept, so one longer than 2 would be rejected below; refusing
    # it here keeps the expansion, and a power such as (x + y)^40, small
    degree = degree_bound(node, names)
    if degree > 2:
        raise SemanticError(
            f"line {lineno}: lower terms of degree >= 2 are not allowed "
            f"(the right-hand side has degree {degree})"
        )
    if isinstance(ring, PolynomialRing):
        _check_degree(node, lineno)
    terms = _formal_terms(node, ring, var_index, lineno)
    cval = None
    d0 = ring.zero
    dks = [ring.zero] * len(names)
    for coeff, word in terms:
        if len(word) >= 2:
            if tuple(word) != (lo, hi):
                raise SemanticError(
                    f"line {lineno}: lower terms of degree >= 2 are not allowed "
                    f"(got {'*'.join(names[k] for k in word)})"
                )
            cval = coeff if cval is None else ring.add(cval, coeff)
        elif len(word) == 1:
            dks[word[0]] = ring.add(dks[word[0]], coeff)
        else:
            d0 = ring.add(d0, coeff)
    if cval is None or cval == ring.zero:
        raise SemanticError(
            f"line {lineno}: relation must contain a nonzero multiple of "
            f"{names[lo]}*{names[hi]}"
        )
    return cval, d0, tuple(dks)


def serialize_presentation(P: Presentation) -> str:
    """Text form that reparses to a structurally equal presentation."""
    R = P.ring
    lines = [ring_line(R), "vars " + " ".join(P.names), f"bijective {'true' if P.bijective else 'false'}"]
    gen = getattr(R, "gen_name", None)
    for i, spec in enumerate(P.sigma):
        if not spec.is_identity:
            lines.append(f"sigma {P.names[i]} {gen} -> {R.format(spec.gen_image)}")
    for i, spec in enumerate(P.delta):
        if not spec.is_zero:
            lines.append(f"delta {P.names[i]} {gen} -> {R.format(spec.gen_image)}")
    for (i, j) in sorted(P.c):
        cv = P.c[(i, j)]
        d0, dks = P.lower[(i, j)]
        trivial = cv == R.one and d0 == R.zero and all(d == R.zero for d in dks)
        if trivial:
            continue
        rhs = [f"{_scalar_text(R, cv)} * {P.names[i]} {P.names[j]}"]
        for k, dk in enumerate(dks):
            if dk != R.zero:
                rhs.append(f"{_scalar_text(R, dk)} * {P.names[k]}")
        if d0 != R.zero:
            rhs.append(_scalar_text(R, d0))
        lines.append(f"rel {P.names[j]} {P.names[i]} = " + " + ".join(rhs))
    return "\n".join(lines) + "\n"


def _scalar_text(R: Ring, v) -> str:
    s = R.format(v)
    return f"({s})" if (" + " in s or " - " in s) else s
