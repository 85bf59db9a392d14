"""Differential test of the expression parser against the factor-by-factor
parser it replaced.

The old parser is restated below unchanged: it built an element for every
factor and multiplied them one product at a time.  The current parser
builds each term as one monomial and normal-orders its word once; normal
forms are unique, so both must give the same kind, the same value and the
same printed form on every input, and the same ParseError (message and
position) on malformed ones.  Inputs with a unary minus right after a
binary operator or '*' are left out: there the two parsers differ on
purpose (tests/test_cli.py pins the new reading).  The two other
deliberate differences are pinned by test_deliberate_differences.

Token positions are now found only when an error is raised.  So the noisy
corpus (other blanks, digits of other scripts, stray characters, cut tails)
is also run through the replaced parser over the tokenizer that came next,
restated below, which found every position with one finditer pass: both
must raise the same errors at the same positions.

The last tests read the parse table, ``expressions.parsed``, through
``qspace.tables()``: a warm parse must be the stored Value itself, and no
caller can change that Value or its element.
"""

from __future__ import annotations

import random
import re

import pytest

import qspace
from qspace import expressions
from qspace.cfunc import CFunction, space_vars
from qspace.grassmann import GElement
from qspace.ncalgebra import HAT_POWER, NCElement
from qspace.scalars import I, LAM, LAMP, ONE, Q, QScalar, scalar
from test_lincomb import assert_read_only

# -- the replaced parser, unchanged ---------------------------------------------


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



def oracle_parse(text, space):
    return _Parser(text, space).parse()


# -- the tokenizer that followed, unchanged --------------------------------------
#
# One finditer pass made (kind, value, position) tuples and pointed at a bad
# character itself, not at the blank before it.  Over it the replaced parser
# gives every position the current parser must give, also on noisy text.

_FINDITER_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*/^])|(\S)")


def _finditer_tokenize(text):
    out = []
    for m in _FINDITER_RE.finditer(text):
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


class _FinditerParser(_Parser):
    def __init__(self, text, space):
        self.toks = _finditer_tokenize(text)
        self.i = 0
        self.space = space
        self.nc_names = _nc_name_table(space)


def finditer_oracle_parse(text, space):
    return _FinditerParser(text, space).parse()


# -- random expressions ----------------------------------------------------------

_SCALAR_FACTORS = [
    "2", "3", "q", "i", "lambda", "lambda_plus", "q^2", "q^-1", "q^0",
    "q^(3/2)", "q^(-1/2)", "q^(4/2)", "2^-2", "3^0", "(1 + q)", "(q - 1)^2",
    "(2 - i)^-1", "(q)^(1/2)", "(3/4)",
]
# a leading coefficient may divide: the term is still a scalar there
_LEADING = ["", "", "2 ", "3 * ", "3/4 ", "q/(1 + q) ", "1/q^2 ", "i * "]
_C_FACTORS = {
    "line": ["x0", "x1", "x1^2", "x0^3", "x1^0", "(x0 + x1)", "(x1 - 2)^2", "(x0 - x0)"],
    "euclid3": ["x0", "xp", "x3", "xm", "xp^2", "x3^3", "xm^0", "(xp + x3)",
                "(xm - q x3)^2", "(-xp)^2"],
}
_NC_FACTORS = {
    "line": ["X0", "X1", "d0", "d1", "dh0", "dh1", "X1^2", "d1^2", "dh1^2", "X0^0",
             "L", "L^2", "L^-1", "L^(1/2)", "L^(-3/2)", "L^0", "(L)^-1", "(L)^(1/2)",
             "(X1 + q d1)", "(dh1 X1 - 1)", "(X1 L - L X1)", "(2)"],
    "euclid3": ["X0", "Xp", "X3", "Xm", "d0", "dp", "d3", "dm", "dhp", "dh3",
                "dhm", "Xp^2", "dm^2", "dh3^2", "Xm^0", "L", "L^2", "L^-1",
                "L^(1/2)", "L^(-3/2)", "L^0", "(L)^-1", "(Xp + q dm)",
                "(Xm dp - 1)", "(X3 - X3)", "(L^(1/2) Xp)^2"],
}
_G_FACTORS = ["th0", "th1", "dth0", "dth1", "th0^0", "th1^1", "(th0 + dth1)",
              "(1 - th1)", "(th0 th1)", "dth0^2"]


def _factors(space, kind):
    if kind == "c":
        return _C_FACTORS[space]
    if kind == "nc":
        return _NC_FACTORS[space]
    return _G_FACTORS


def _term(rng, space, kind):
    parts = []
    for _ in range(rng.randint(1, 4)):
        if kind == "scalar" or rng.random() < 0.25:
            parts.append(rng.choice(_SCALAR_FACTORS))
        else:
            parts.append(rng.choice(_factors(space, kind)))
    text = parts[0]
    for p in parts[1:]:
        text += rng.choice((" ", " ", " * "))
        text += p
    return rng.choice(_LEADING) + text


def _expression(rng, space, kind):
    terms = [_term(rng, space, kind) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        terms.append(rng.choice(_SCALAR_FACTORS))  # promoted to the sum's kind
    if rng.random() < 0.25:
        terms.append(None)  # repeats an earlier term with the opposite sign
    text = ("-" if rng.random() < 0.2 else "") + terms[0]
    for t in terms[1:]:
        if t is None:
            text += " - " + rng.choice(terms[:-1])
        else:
            text += rng.choice((" + ", " - ")) + t
    return text


def _corpus(seed, count):
    rng = random.Random(seed)
    out = []
    for j in range(count):
        space = ("line", "euclid3")[j % 2]
        kind = ("scalar", "c", "nc", "g")[(j // 2) % 4]
        out.append((space, _expression(rng, space, kind)))
    return out


def _outcome(parse, text, space):
    try:
        v = parse(text, space)
    except (ValueError, ArithmeticError) as exc:  # ParseError, DivisionByZero
        return ("error", type(exc).__name__, str(exc))
    return (v.kind, v.data, str(v.data))


@pytest.mark.parametrize("seed", [11, 12])
def test_random_expressions_match_the_replaced_parser(seed):
    kinds = set()
    for space, text in _corpus(seed, 320):
        new = _outcome(expressions.parse, text, space)
        old = _outcome(oracle_parse, text, space)
        assert new[0] == old[0], (space, text, new, old)
        assert new[1] == old[1], (space, text)
        assert new[2] == old[2], (space, text)
        kinds.add(new[0])
    assert kinds == {"scalar", "c", "nc", "g"}


def test_corpus_covers_the_grammar():
    texts = [t for _, t in _corpus(11, 320) + _corpus(12, 320)]
    for needle in ("*", "/", "(", "^0", "^-", "^(", "dh", "L", " - "):
        assert any(needle in t for t in texts), needle
    # no unary minus right after a binary operator or '*'
    assert not any(re.search(r"[-+*] -", t) for t in texts)


# blanks, Unicode decimal digits of the same value, and characters no token
# covers (a '_' or a letter outside ASCII may also join or end a name)
_BLANKS = (" ", "  ", "   ", "\t", "\n", " \t ", "\r\n", "\u00a0", "\u2003")
_DIGITS = {d: (chr(0x0660 + int(d)), chr(0xFF10 + int(d)), chr(0x0966 + int(d))) for d in "0123456789"}
_STRAY = "#$%&!?@~;,.=[]{}'\"_é\u03bb\u00b2"


def _noisy(rng, text):
    """text with its blanks changed, blanks put before operators, digits of
    numbers written in other scripts, a stray character or a cut tail."""
    parts = []
    for m in re.finditer(r"\d+|[A-Za-z][A-Za-z0-9_]*|\s+|.", text):
        piece = m.group()
        if piece.isspace():
            piece = rng.choice(_BLANKS)
        elif piece.isdigit():
            piece = "".join(rng.choice(_DIGITS[d]) if rng.random() < 0.3 else d for d in piece)
        elif not piece[0].isalpha() and rng.random() < 0.15:
            piece = rng.choice(_BLANKS) + piece
        parts.append(piece)
    out = rng.choice(("", "", "\t", " ")) + "".join(parts) + rng.choice(("", "", " ", "\n"))
    if rng.random() < 0.3:
        at = rng.randint(0, len(out))
        out = out[:at] + rng.choice(_STRAY) + out[at:]
    if rng.random() < 0.3:
        out = out[:rng.randint(0, len(out))]
    return out


@pytest.mark.parametrize("seed", [21, 22])
def test_noisy_text_matches_the_finditer_tokenizer(seed):
    rng = random.Random(seed)
    errors, values = set(), 0
    for space, text in _corpus(seed, 320):
        noisy = _noisy(rng, text)
        new = _outcome(expressions.parse, noisy, space)
        old = _outcome(finditer_oracle_parse, noisy, space)
        assert new[0] == old[0], (space, noisy, new, old)
        assert new[1:] == old[1:], (space, noisy)
        if new[0] == "error":
            errors.add(re.match(r"[a-z ]*[a-z]", new[2]).group())
        else:
            values += 1
    assert values > 120
    assert {"unexpected character", "expected a value", "unknown name", "expected"} <= errors


@pytest.mark.parametrize("space,text", [
    ("line", "x1 X1"),
    ("euclid3", "Xp th0"),
    ("euclid3", "x0 * th1"),
    ("line", "x1 + X1"),
    ("euclid3", "th0 - Xp"),
    ("euclid3", "x0/2"),
    ("euclid3", "2/x0"),
    ("euclid3", "Xp^2/q"),
    ("line", "q^(1/3)"),
    ("line", "x0^(1/2)"),
    ("euclid3", "(x0 + 1)^(1/2)"),
    ("euclid3", "Xp^(1/2)"),
    ("euclid3", "x0^-1"),
    ("euclid3", "dhp^-2"),
    ("line", "th0^-1"),
    ("line", "2^(1/2)"),
    ("line", "y0 + x0"),
    ("euclid3", "x1"),
    ("line", "Xp"),
    ("euclid3", "Xp )"),
    ("euclid3", "Xp Xm 2)"),
    ("euclid3", "Xp#"),
    ("line", "x1+$"),
    ("line", "x1 +* 2"),
    ("line", "(x1"),
    ("line", "x1^"),
    ("line", "q^(1/"),
    ("line", "q^(1 2)"),
    ("line", "q^(a)"),
    ("line", "1/0"),
    ("line", "q^2 / (q - q)"),
    ("euclid3", "0^-1"),
    ("line", ""),
])
def test_malformed_inputs_match_the_replaced_parser(space, text):
    new = _outcome(expressions.parse, text, space)
    assert new[0] == "error", text
    old = _outcome(oracle_parse, text, space)
    if text in _ZERO_DIVISORS:
        # deliberate: the replaced parser let DivisionByZero through, and the
        # CLI exited 1; a zero divisor is now a parse error at its '/' or '^'
        assert old[1] == "DivisionByZero"
        old = ("error", "ParseError", f"division by zero scalar (at position {_ZERO_DIVISORS[text]})")
    assert new == old


# the offset of the '/' or '^' of each zero divisor above
_ZERO_DIVISORS = {"1/0": 1, "q^2 / (q - q)": 4, "0^-1": 1}


def test_deliberate_differences():
    # the old tokenizer pointed at the blank before a bad character
    with pytest.raises(ParseError, match=r"' ' \(at position 2\)"):
        oracle_parse("Xp #", "euclid3")
    with pytest.raises(expressions.ParseError, match=r"'#' \(at position 3\)"):
        expressions.parse("Xp #", "euclid3")
    # the old power of a parenthesised scaling operator ignored its exponent
    assert str(oracle_parse("(L^2)^-1", "euclid3").data) == "L^-1"
    assert str(expressions.parse("(L^2)^-1", "euclid3").data) == "L^-2"
    assert str(expressions.parse("(L^(1/2))^3", "euclid3").data) == "L^(3/2)"


# -- the parse table ---------------------------------------------------------


def _parsed_table():
    return qspace.tables()["expressions.parsed"]


def _corpus_outcomes():
    """(outcome, Value) of every corpus text; the Value is None after an
    error."""
    out = []
    for space, text in _corpus(11, 320) + _corpus(12, 320):
        try:
            v = expressions.parse(text, space)
        except (ValueError, ArithmeticError) as exc:
            out.append((("error", type(exc).__name__, str(exc)), None))
        else:
            out.append(((v.kind, str(v.data)), v))
    return out


def test_warm_parses_are_the_stored_values():
    qspace.clear_tables()
    cold = _corpus_outcomes()
    stored = len(_parsed_table())
    assert stored > 100
    warm = _corpus_outcomes()
    assert len(_parsed_table()) == stored
    kinds = set()
    for (c, cvalue), (w, wvalue) in zip(cold, warm):
        assert w == c
        assert wvalue is cvalue
        kinds.add(c[0])
    assert kinds == {"scalar", "c", "nc", "g"}


def test_a_parse_is_stored_once_however_the_space_is_given():
    qspace.clear_tables()
    got = [expressions.parse("Xp"), expressions.parse("Xp", "euclid3"),
           expressions.parse("Xp", space="euclid3")]
    assert got[0] is got[1] is got[2]
    assert list(_parsed_table()) == [("Xp", "euclid3")]


@pytest.mark.parametrize("space,text", [
    ("euclid3", "(1 + q) Xp Xm^2 dh3 - lambda L^-1 X3"),
    ("line", "q^-1 x0 x1^2 + 2 x1^3"),
    ("line", "th0 th1 + dth0"),
    ("euclid3", "Xm Xp - Xm Xp + 3"),
])
def test_changing_a_parsed_element_leaves_the_next_parse_unchanged(space, text):
    got = expressions.parse(text, space)
    shown = str(got.data)
    assert_read_only(got.data)
    for name in ("kind", "data"):
        with pytest.raises(AttributeError):
            setattr(got, name, None)
    with pytest.raises(TypeError):
        got[1] = None
    assert expressions.parse(text, space) is got
    assert str(expressions.parse(text, space).data) == shown
    # parsed again from an empty table, the value is the same
    qspace.clear_tables()
    assert expressions.parse(text, space) == got


@pytest.mark.parametrize("space,text", [
    ("euclid3", "Xp Xm +"),
    ("line", "x0 (1 + q"),
    ("euclid3", "q^(1/3)"),
    ("line", "1/(q - q)"),
])
def test_a_malformed_text_raises_the_same_error_and_stores_nothing(space, text):
    expressions.parse("Xp", "euclid3")  # the table is not empty
    size = len(_parsed_table())
    errors = []
    for _ in range(3):
        with pytest.raises(expressions.ParseError) as info:
            expressions.parse(text, space)
        errors.append((str(info.value), info.value.pos))
    assert errors[0] == errors[1] == errors[2]
    assert len(_parsed_table()) == size


def test_table_entries_are_read_only_values():
    for space, text in (("line", "x0 x1 + q"), ("euclid3", "Xp dhm"), ("line", "th0"),
                        ("euclid3", "lambda")):
        expressions.parse(text, space)
    table = _parsed_table()
    assert table
    for entry in table.values():
        assert type(entry) is expressions.Value
        with pytest.raises(TypeError):
            entry[0] = None
        with pytest.raises(AttributeError):
            entry.data = None
        if entry.kind == "scalar":
            assert type(entry.data) is QScalar
        else:
            assert_read_only(entry.data)


def test_a_name_reads_against_the_space_it_is_parsed_on():
    for _ in range(2):
        line = expressions.parse("x0", "line").data
        e3 = expressions.parse("x0", "euclid3").data
        assert line.vars == tuple(space_vars("line"))
        assert e3.vars == tuple(space_vars("euclid3"))
        assert line.vars != e3.vars
