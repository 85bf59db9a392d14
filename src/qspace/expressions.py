"""Expression parser and canonical printer for the CLI.

Grammar:
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (['*'|'/'] factor)*      juxtaposition multiplies
    factor := '-' factor | atom ['^' exponent]
    atom   := integer | name | '(' expr ')'
    exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'

A unary minus binds looser than '^' everywhere: -x3^2 is -(x3^2), also
after '+' or '*'.  '/' divides scalars only.  Negative powers apply to
scalars and L, half-integer powers (k/2) to q and L.

Capitalized coordinate names and derivative names build noncommutative
elements (factor order is preserved), lowercase coordinates build
commutative polynomials, theta names build Grassmann elements; mixing the
kinds in one expression is rejected.  A term is one monomial: its scalar
factors multiply one coefficient, its coordinate powers add into one
exponent vector, and its generators form one word that is normal-ordered
once.  Parenthesised values and Grassmann generators multiply as elements,
in order.
"""

from __future__ import annotations

import re

from .cfunc import CFunction, space_vars
from .grassmann import GElement
from .ncalgebra import NCElement
from .scalars import I, LAM, LAMP, ONE, Q, QScalar, _add_term, scalar
from .spaces import HAT_D_TOKENS, HAT_POWER, PRINT_NAMES


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*/^])|(\S)")


def _tokenize(text):
    out = []
    for m in _TOKEN_RE.finditer(text):
        num, name, op, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start())
        if num is not None:
            out.append(("int", int(num), m.start()))
        elif name is not None:
            out.append(("name", name, m.start()))
        else:
            out.append(("op", op, m.start()))
    out.append(("end", None, len(text)))
    return out


class Value:
    """Tagged parse value: a scalar, a commutative polynomial, a
    noncommutative element, or a Grassmann element."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    @staticmethod
    def of_scalar(c):
        return Value("scalar", c)


# A factor is a piece of a monomial: ("scalar", c); ("x", (i, n)) for the
# i-th commutative coordinate to the n; ("w", (tokens, c)) for a word of
# noncommutative generators times c; or (kind, element) for anything else.
_PIECE_KIND = {"x": "c", "w": "nc"}
_NAME_TABLES = {}  # space -> {name: factor}, built on first use


def _name_table(space):
    table = _NAME_TABLES.get(space)
    if table is not None:
        return table
    xs = space_vars(space)
    names = PRINT_NAMES[space]
    table = {"q": ("scalar", Q), "i": ("scalar", I), "lambda": ("scalar", LAM),
             "lambda_plus": ("scalar", LAMP)}
    for i, v in enumerate(xs):
        table[v] = ("x", (i, 1))
        table[names[v]] = ("w", ((v,), ONE))
    for th in ("th0", "th1", "dth0", "dth1"):
        table[th] = ("g", th)
    hat = QScalar.q_power(2 * HAT_POWER[space])
    for d in HAT_D_TOKENS[space]:
        table[names[d]] = ("w", ((d,), ONE))
        table["dh" + d[1:]] = ("w", ((d,), ONE if d == "d0" else hat))
    table["L"] = ("w", ((("L", 2),), ONE))
    return _NAME_TABLES.setdefault(space, table)


class _Parser:
    def __init__(self, text, space):
        self.toks = _tokenize(text)
        self.i = 0
        self.space = space
        self.names = _name_table(space)

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def _promote(self, c, kind):
        """The scalar c as an element of the given kind."""
        if kind == "c":
            return CFunction.constant(space_vars(self.space), c)
        if kind == "nc":
            return NCElement.scalar_term(self.space, c)
        if kind == "g":
            return GElement.one().scale(c)
        raise AssertionError(kind)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Value:
        v = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return v

    def expr(self) -> Value:
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.take()
        v = self.term(negate=kind == "op" and val == "-")
        terms = None  # the sum's own dict, made when a second term arrives
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "+-":
                return v if terms is None else Value(v.kind, v.data._like(terms))
            self.take()
            rhs = self.term(negate=val == "-")
            if v.kind == "scalar" and rhs.kind == "scalar":
                v = Value.of_scalar(v.data + rhs.data)
                continue
            if v.kind == "scalar":
                v = Value(rhs.kind, self._promote(v.data, rhs.kind))
            elif rhs.kind == "scalar":
                rhs = Value(v.kind, self._promote(rhs.data, v.kind))
            if v.kind != rhs.kind:
                raise ParseError("cannot add values of different kinds", pos)
            if terms is None:
                terms = dict(v.data.terms)
            for k, c in rhs.data.terms.items():
                _add_term(terms, k, c)

    def term(self, negate=False) -> Value:
        """One monomial: a coefficient, an exponent vector or a generator
        word, times the element-valued factors; a pending word is turned
        into an element before each such factor, so factor order is kept."""
        coeff = -ONE if negate else ONE
        vkind, exps, word, elem = "scalar", None, [], None
        op, pos = None, None
        while True:
            while self.peek()[:2] == ("op", "-"):  # looser than '^'
                self.take()
                coeff = -coeff
            fkind, data = self.factor()
            if op == "/":
                if vkind != "scalar" or fkind != "scalar":
                    raise ParseError("division is defined for scalars only", pos)
                coeff = coeff / data
            elif fkind == "scalar":
                coeff = data if coeff is ONE else coeff * data
            else:
                fk = _PIECE_KIND.get(fkind, fkind)
                if vkind not in ("scalar", fk):
                    raise ParseError(
                        "cannot mix commutative and noncommutative variables", pos
                    )
                vkind = fk
                if fkind == "x":
                    if exps is None:
                        exps = [0] * len(space_vars(self.space))
                    exps[data[0]] += data[1]
                elif fkind == "w":
                    word += data[0]
                    if data[1] is not ONE:
                        coeff = coeff * data[1]
                else:
                    if word:
                        elem = _times(elem, NCElement.from_word(self.space, word))
                        word = []
                    elem = _times(elem, data)
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                op = val
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                op = None
            else:
                break
        if vkind == "scalar":
            return Value.of_scalar(coeff)
        if vkind == "c" and exps is not None:
            mono = CFunction(space_vars(self.space), {tuple(exps): coeff})
        elif vkind == "nc" and (word or elem is None):
            mono = NCElement.from_word(self.space, word, coeff)
        else:
            return Value(vkind, elem.scale(coeff))
        return Value(vkind, _times(elem, mono))

    def _exponent(self):
        kind, val, pos = self.take()
        if kind == "op" and val == "-":
            kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            return -val, None
        if kind == "int":
            return val, None
        if kind == "op" and val == "(":
            sign = 1
            kind, val, pos = self.take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, pos = self.take()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            num = sign * val
            kind2, val2, pos2 = self.take()
            den = 1
            if kind2 == "op" and val2 == "/":
                kind3, val3, pos3 = self.take()
                if kind3 != "int":
                    raise ParseError("expected exponent denominator", pos3)
                den = val3
                self.expect_op(")")
            elif not (kind2 == "op" and val2 == ")"):
                raise ParseError("expected ')'", pos2)
            return num, den
        raise ParseError("expected integer exponent", pos)

    def factor(self):
        fkind, data = self.atom()
        kind, val, pos = self.peek()
        if kind != "op" or val != "^":
            return fkind, data
        self.take()
        num, den = self._exponent()
        if den not in (None, 1, 2):
            raise ParseError("only half-integer exponents are supported", pos)
        half = den == 2
        if fkind == "scalar":
            if half:
                if data != Q:
                    raise ParseError("half-integer powers apply to q and L only", pos)
                return fkind, QScalar.q_power(num)
            return fkind, QScalar.q_power(2 * num) if data is Q else data ** num
        lam = _lambda_steps(fkind, data)
        if lam is not None:  # L to a power, in half-steps
            steps = lam * num
            if half:
                if steps % 2:
                    raise ParseError("only half-integer exponents are supported", pos)
                steps //= 2
            return "w", (((("L", steps),) if steps else ()), ONE)
        if half:
            raise ParseError("half-integer powers apply to q and L only", pos)
        if num < 0:
            raise ParseError("negative powers apply to scalars and L only", pos)
        if fkind == "x":
            return fkind, (data[0], num)
        if fkind == "w":
            return fkind, (data[0] * num, data[1] ** num)
        if not num:
            return fkind, self._promote(ONE, fkind)
        out = data
        for _ in range(num - 1):
            out = out * data
        return fkind, out

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return "scalar", scalar(val)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v.kind, v.data
        if kind != "name":
            raise ParseError("expected a value", pos)
        got = self.names.get(val)
        if got is None:
            raise ParseError(f"unknown name {val!r} for space {self.space}", pos)
        if got[0] == "g":
            return "g", GElement.gen(got[1])
        return got


def _times(elem, other):
    return other if elem is None else elem * other


def _lambda_steps(fkind, data):
    """The half-step exponent of L or of a power of it in parentheses,
    else None."""
    if fkind == "w":  # a generator name: one token
        tok = data[0][0]
        return tok[1] if isinstance(tok, tuple) else None
    if fkind == "nc" and len(data.terms) == 1:
        ((k, c),) = data.terms.items()
        if c == ONE and not any(k[:-1]) and k[-1]:
            return k[-1]
    return None


def parse(text: str, space: str = "euclid3") -> Value:
    """Parse an expression; returns a tagged Value."""
    return _Parser(text, space).parse()


def render(value: Value, q_value=None) -> str:
    """Canonical text for a parse value; with q_value set, every coefficient
    is evaluated numerically and the monomials print as in the exact form."""
    data = value.data
    if q_value is None:
        return str(data)
    if value.kind == "scalar":
        return f"({data.eval_float(q_value):.12g})"
    return data.numeric_str(q_value)
