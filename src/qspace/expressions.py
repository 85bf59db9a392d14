"""Expression parser and canonical printer for the CLI.

Grammar: expr := term (('+'|'-') term)*; term := factor factor* with
juxtaposition as multiplication ('*' and scalar '/' also accepted);
factor := atom ['^' int]; atom := integer | name | '(' expr ')'.

Capitalized coordinate names and derivative names build noncommutative
elements (factor order is preserved), lowercase coordinates build
commutative polynomials, theta names build Grassmann elements; mixing the
kinds in one expression is rejected.
"""

from __future__ import annotations

import re

from .cfunc import CFunction, space_vars
from .grassmann import GElement
from .ncalgebra import HAT_POWER, NCElement
from .scalars import I, LAM, LAMP, ONE, Q, QScalar, scalar


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*/^]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
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


def _nc_name_table(space):
    names = {}
    xs = space_vars(space)
    caps = {"x0": "X0", "x1": "X1", "xp": "Xp", "x3": "X3", "xm": "Xm"}
    tags = {"X0": "x0", "X1": "x1", "Xp": "xp", "X3": "x3", "Xm": "xm"}
    for v in xs:
        names[caps[v]] = ("x", tags[caps[v]])
    ds = {"line": ("d0", "d1"), "euclid3": ("d0", "dp", "d3", "dm")}[space]
    for d in ds:
        names[d] = ("d", d)
        names["dh" + d[1:]] = ("dh", d)
    names["L"] = ("L", None)
    return names


class _Parser:
    def __init__(self, text, space):
        self.toks = _tokenize(text)
        self.i = 0
        self.space = space
        self.nc_names = _nc_name_table(space)

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

    # -- value algebra -------------------------------------------------------

    def _mul(self, a: Value, b: Value, pos) -> Value:
        if a.kind == "scalar" and b.kind == "scalar":
            return Value("scalar", a.data * b.data)
        if a.kind == "scalar":
            return Value(b.kind, b.data.scale(a.data))
        if b.kind == "scalar":
            return Value(a.kind, a.data.scale(b.data))
        if a.kind != b.kind:
            raise ParseError(
                "cannot mix commutative and noncommutative variables", pos
            )
        return Value(a.kind, a.data * b.data)

    def _add(self, a: Value, b: Value, sign, pos) -> Value:
        if a.kind == "scalar" and b.kind != "scalar":
            a = self._promote(a, b.kind)
        if b.kind == "scalar" and a.kind != "scalar":
            b = self._promote(b, a.kind)
        if a.kind != b.kind:
            raise ParseError("cannot add values of different kinds", pos)
        if a.kind == "scalar":
            return Value("scalar", a.data + b.data if sign > 0 else a.data - b.data)
        return Value(a.kind, a.data + b.data if sign > 0 else a.data - b.data)

    def _promote(self, v: Value, kind) -> Value:
        c = v.data
        if kind == "c":
            return Value("c", CFunction.constant(space_vars(self.space), c))
        if kind == "nc":
            return Value("nc", NCElement.scalar_term(self.space, c))
        if kind == "g":
            return Value("g", GElement.one().scale(c))
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
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        v = self.term()
        if sign < 0:
            v = self._mul(Value.of_scalar(scalar(-1)), v, pos)
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                v = self._add(v, rhs, 1 if val == "+" else -1, pos)
            else:
                return v

    def term(self) -> Value:
        v = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                v = self._mul(v, self.factor(), pos)
            elif kind == "op" and val == "/":
                self.take()
                rhs = self.factor()
                if v.kind != "scalar" or rhs.kind != "scalar":
                    raise ParseError("division is defined for scalars only", pos)
                v = Value("scalar", v.data / rhs.data)
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                v = self._mul(v, self.factor(), pos)
            else:
                return v

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

    def factor(self) -> Value:
        v = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            num, den = self._exponent()
            return self._power(v, num, den, pos)
        return v

    def _power(self, v: Value, num, den, pos) -> Value:
        if den not in (None, 1, 2):
            raise ParseError("only half-integer exponents are supported", pos)
        if den == 2:
            if v.kind == "scalar" and v.data == Q:
                return Value("scalar", QScalar.q_power(num))
            if v.kind == "nc" and _is_lambda_gen(v.data):
                return Value("nc", NCElement.generator(self.space, "L", num))
            raise ParseError("half-integer powers apply to q and L only", pos)
        if num < 0:
            if v.kind == "scalar":
                out = ONE
                for _ in range(-num):
                    out = out / v.data
                return Value("scalar", out)
            if v.kind == "nc" and _is_lambda_gen(v.data):
                return Value("nc", NCElement.generator(self.space, "L", 2 * num))
            raise ParseError("negative powers apply to scalars and L only", pos)
        if v.kind == "scalar":
            out = ONE
            for _ in range(num):
                out = out * v.data
            return Value("scalar", out)
        out = None
        base = v.data
        for _ in range(num):
            out = base if out is None else out * base
        if out is None:  # x^0
            return self._promote(Value.of_scalar(ONE), v.kind)
        return Value(v.kind, out)

    def atom(self) -> Value:
        kind, val, pos = self.take()
        if kind == "int":
            return Value.of_scalar(scalar(val))
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind == "op" and val == "-":
            return self._mul(Value.of_scalar(scalar(-1)), self.atom(), pos)
        if kind != "name":
            raise ParseError("expected a value", pos)
        name = val
        if name == "q":
            return Value.of_scalar(Q)
        if name == "i":
            return Value.of_scalar(I)
        if name == "lambda":
            return Value.of_scalar(LAM)
        if name == "lambda_plus":
            return Value.of_scalar(LAMP)
        if name in space_vars(self.space):
            return Value("c", CFunction.var(space_vars(self.space), name))
        if name in ("th0", "th1", "dth0", "dth1"):
            return Value("g", GElement.gen(name))
        if name in self.nc_names:
            what, tag = self.nc_names[name]
            if what == "L":
                return Value("nc", NCElement.generator(self.space, "L", 2))
            el = NCElement.generator(self.space, tag)
            if what == "dh" and tag != "d0":
                el = el.scale(QScalar.q_power(2 * HAT_POWER[self.space]))
            return Value("nc", el)
        raise ParseError(f"unknown name {name!r} for space {self.space}", pos)


def _is_lambda_gen(el: NCElement) -> bool:
    if len(el.terms) != 1:
        return False
    ((k, c),) = el.terms.items()
    return c == ONE and all(n == 0 for n in k[:-1]) and k[-1] != 0


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
