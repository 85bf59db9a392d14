"""Expression parser and canonical printer for the CLI.

Grammar:
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (['*'|'/'] factor)*      juxtaposition multiplies
    factor := '-' factor | atom ['^' exponent]
    atom   := integer | name | '(' expr ')'
    exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'

A unary minus binds looser than '^' everywhere: -x3^2 is -(x3^2), also
after '+' or '*'.  '/' divides scalars only.  Negative powers apply to
scalars and L, half-integer powers (k/2) to q and L.  An exponent literal
(k in k/2 too) is at most MAX_EXPONENT = 10000 in absolute value; a larger
one is a ParseError at its '^', and so is a zero scalar to a negative power;
a division by a zero scalar is one at its '/'.  Every ParseError carries the
exact offset of the offending character or token, or the length of the text
at its end.

Capitalized coordinate names and derivative names build noncommutative
elements (factor order is preserved), lowercase coordinates build
commutative polynomials, theta names build Grassmann elements; mixing the
kinds in one expression is rejected.  A term is one monomial: its scalar
factors multiply one coefficient, its coordinate powers add into one
exponent vector, and its generators form one word that is normal-ordered
once.  Parenthesised values and Grassmann generators multiply as elements,
in order.

``parse`` keeps the Value of each (text, space) it parsed in the
registered table ``expressions.parsed`` and hands out that stored Value on
every later call: a Value and its element are read-only, so no caller can
change what the next one reads.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from .cfunc import CFunction, space_vars
from .grassmann import GElement
from .ncalgebra import NCElement, _normalize_word, hat_factor
from .scalars import I, LAM, LAMP, ONE, Q, QScalar, _add_term, _memo, _memoized, scalar
from .spaces import HAT_D_TOKENS, KEY_LAYOUT, PRINT_NAMES


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# A token is a run of digits, a name or an operator; blanks separate them.
# The first character tells the alternatives apart and each takes its
# longest run, so one match walks the text once, without backtracking, and
# stops at the first character that no token or blank covers.
_LEXICON_RE = re.compile(r"(?:\d+|[A-Za-z][A-Za-z0-9_]*|[()+\-*/^]|\s)*")
_TOKEN_RE = re.compile(r"\d+|[A-Za-z][A-Za-z0-9_]*|[()+\-*/^]")
_END = ""  # the token after the last one
# the tokens after which a term has no further factor
_TERM_ENDS = frozenset((_END, ")", "+", "-", "^"))
# an exponent literal beyond this, in absolute value, is a ParseError
MAX_EXPONENT = 10_000


def _position(text, index):
    """The offset in text of its token number index, or the length of the
    text for the token after the last; found only for an error message."""
    for m in itertools.islice(_TOKEN_RE.finditer(text), index, None):
        return m.start()
    return len(text)


def _exponent_literal(tok):
    """The value of a digit token in an exponent; a token longer than int()
    converts is beyond any bound."""
    try:
        return int(tok)
    except ValueError:
        return math.inf


class Value(NamedTuple):
    """Tagged parse value: a scalar, a commutative polynomial, a
    noncommutative element, or a Grassmann element."""

    kind: str
    data: object


# A factor is a piece of a monomial: ("scalar", c); ("x", (i, n)) for the
# i-th commutative coordinate to the n; ("w", (tokens, c)) for a word of
# noncommutative generators times c; or (kind, element) for anything else.
_PIECE_KIND = {"x": "c", "w": "nc"}
_MINUS_ONE = -ONE
# integer literal -> factor, shared canonical scalars for the small ones
_INT_FACTORS = {str(n): ("scalar", scalar(n)) for n in range(16)}
@_memoized(_memo("expressions.name_table"))
def _name_table(space):
    """{name or small integer literal: factor} of a space."""
    xs = space_vars(space)
    names = PRINT_NAMES[space]
    table = {"q": ("scalar", Q), "i": ("scalar", I), "lambda": ("scalar", LAM),
             "lambda_plus": ("scalar", LAMP), **_INT_FACTORS}
    for i, v in enumerate(xs):
        table[v] = ("x", (i, 1))
        table[names[v]] = ("w", ((v,), ONE))
    for th in ("th0", "th1", "dth0", "dth1"):
        table[th] = ("g", th)
    hat = hat_factor(space, 1)
    for d in HAT_D_TOKENS[space]:
        table[names[d]] = ("w", ((d,), ONE))
        table["dh" + d[1:]] = ("w", ((d,), ONE if d == "d0" else hat))
    table["L"] = ("w", ((("L", 2),), ONE))
    return table


class _Parser:
    """Recursive descent over the tokens of one text, as plain strings;
    ``i`` indexes the next token.  A bad character is reported before any
    grammar error."""

    def __init__(self, text, space):
        end = _LEXICON_RE.match(text).end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}", end)
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append(_END)
        self.i = 0
        self.space = space
        self.names = _name_table(space)

    def _error(self, message, index):
        return ParseError(message, _position(self.text, index))

    def _unit_key(self, kind):
        if kind == "c":
            return (0,) * len(space_vars(self.space))
        if kind == "nc":
            return (0,) * (len(KEY_LAYOUT[self.space]) + 1)
        return ()

    def _element(self, kind, terms):
        """The element of the given kind made from the dict terms."""
        if kind == "c":
            return CFunction(space_vars(self.space), terms)
        if kind == "nc":
            return NCElement(self.space, terms)
        return GElement(terms)

    def _promote(self, c, kind):
        """The scalar c as an element of the given kind."""
        return self._element(kind, {self._unit_key(kind): c} if c else {})

    def _accumulate(self, terms, kind, coeff, key, elem):
        """Add one term, as returned by ``term``, into the dict terms."""
        if elem is not None:
            for k, c in elem.terms.items():
                _add_term(terms, k, c)
        elif kind == "c":
            _add_term(terms, key, coeff)
        else:
            for k, c in _normalize_word(self.space, "u", tuple(key)).items():
                _add_term(terms, k, coeff * c)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Value:
        kind, data = self.expr()
        if self.toks[self.i] != _END:
            raise self._error("trailing input", self.i)
        return Value(kind, data)

    def expr(self):
        """A sum, as (kind, data).  Scalar terms add as scalars until the
        first other term; from then on every term adds its monomials into
        one dict, made into one element at the end."""
        toks = self.toks
        sign = toks[self.i]
        if sign == "+" or sign == "-":
            self.i += 1
        kind, coeff, key, elem = self.term(sign == "-")
        sign = toks[self.i]
        if sign != "+" and sign != "-" and elem is not None:
            return kind, elem
        total = terms = None
        if kind == "scalar":
            total = coeff
        else:
            terms = {}
            self._accumulate(terms, kind, coeff, key, elem)
        while sign == "+" or sign == "-":
            at = self.i
            self.i = at + 1
            rkind, coeff, key, elem = self.term(sign == "-")
            sign = toks[self.i]
            if rkind == "scalar":
                if terms is None:
                    total = total + coeff
                else:
                    _add_term(terms, self._unit_key(kind), coeff)
                continue
            if terms is None:
                kind = rkind
                terms = {self._unit_key(kind): total} if total else {}
            elif rkind != kind:
                raise self._error("cannot add values of different kinds", at)
            self._accumulate(terms, rkind, coeff, key, elem)
        if terms is None:
            return "scalar", total
        return kind, self._element(kind, terms)

    def term(self, negate):
        """One monomial, as (kind, coeff, key, elem): a scalar coeff; coeff
        times an exponent tuple or a generator word (key); or the element
        elem (coeff and key None) once an element-valued factor came, with
        the coefficient and the monomial multiplied in.  A pending word is
        turned into an element before each such factor, so factor order is
        kept."""
        toks = self.toks
        coeff = _MINUS_ONE if negate else ONE
        vkind, exps, word, elem = "scalar", None, [], None
        div, at = False, None  # after '/'; the token just before the factor
        while True:
            while toks[self.i] == "-":  # looser than '^'
                self.i += 1
                coeff = -coeff
            fkind, data = self.factor()
            if div:
                if vkind != "scalar" or fkind != "scalar":
                    raise self._error("division is defined for scalars only", at)
                if not data:
                    raise self._error("division by zero scalar", at)
                coeff = coeff / data
            elif fkind == "scalar":
                coeff = data if coeff is ONE else coeff * data
            else:
                fk = _PIECE_KIND.get(fkind, fkind)
                if vkind != "scalar" and vkind != fk:
                    raise self._error(
                        "cannot mix commutative and noncommutative variables", at
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
            at = self.i
            tok = toks[at]
            if tok == "*" or tok == "/":
                self.i = at + 1
                div = tok == "/"
            elif tok in _TERM_ENDS:
                break
            else:  # juxtaposition
                div = False
        if vkind == "scalar":
            return vkind, coeff, None, None
        if elem is None:
            return vkind, coeff, tuple(exps) if vkind == "c" else word, None
        if vkind == "c" and exps is not None:
            elem = elem * CFunction(space_vars(self.space), {tuple(exps): coeff})
        elif vkind == "nc" and word:
            elem = elem * NCElement.from_word(self.space, word, coeff)
        else:
            elem = elem.scale(coeff)
        return vkind, None, None, elem

    def _skip(self, tok):
        """Step past the next token if it is tok; whether it was."""
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def _literal(self, message):
        """The value of the digit token next, stepped past; a ParseError
        with message at that token when it is not one."""
        tok = self.toks[self.i]
        if not tok.isdecimal():
            raise self._error(message, self.i)
        self.i += 1
        return _exponent_literal(tok)

    def _exponent(self):
        """(numerator, denominator) after '^': an integer, or (n) or (n/d),
        n with an optional minus; the denominator is None for the first."""
        paren = self._skip("(")
        sign = -1 if self._skip("-") else 1
        num = sign * self._literal("expected integer exponent")
        if not paren:
            return num, None
        den = self._literal("expected exponent denominator") if self._skip("/") else 1
        if not self._skip(")"):
            raise self._error("expected ')'", self.i)
        return num, den

    def factor(self):
        """An atom, raised to its power when '^' follows."""
        toks = self.toks
        i = self.i
        tok = toks[i]
        self.i = i + 1
        got = self.names.get(tok)
        if got is None:
            got = self._atom(tok, i)
        elif got[0] == "g":
            got = "g", GElement.gen(got[1])
        at = self.i
        if toks[at] != "^":
            return got
        fkind, data = got
        self.i = at + 1
        num, den = self._exponent()
        if den not in (None, 1, 2):
            raise self._error("only half-integer exponents are supported", at)
        if abs(num) > MAX_EXPONENT:
            raise self._error(f"exponents are bounded by {MAX_EXPONENT} in absolute value", at)
        half = den == 2
        if fkind == "scalar":
            if half:
                if data != Q:
                    raise self._error("half-integer powers apply to q and L only", at)
                return fkind, QScalar.q_power(num)
            if num < 0 and not data:
                raise self._error("division by zero scalar", at)
            return fkind, QScalar.q_power(2 * num) if data is Q else data ** num
        lam = _lambda_steps(fkind, data)
        if lam is not None:  # L to a power, in half-steps
            steps = lam * num
            if half:
                if steps % 2:
                    raise self._error("only half-integer exponents are supported", at)
                steps //= 2
            return "w", (((("L", steps),) if steps else ()), ONE)
        if half:
            raise self._error("half-integer powers apply to q and L only", at)
        if num < 0:
            raise self._error("negative powers apply to scalars and L only", at)
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

    def _atom(self, tok, i):
        """The atom at token i that the name table does not hold: an
        expression in parentheses or an integer literal."""
        if tok == "(":
            got = self.expr()
            if not self._skip(")"):
                raise self._error("expected ')'", self.i)
            return got
        if tok.isdecimal():
            try:
                return "scalar", scalar(int(tok))
            except ValueError:
                raise self._error("integer literal too long", i) from None
        if tok[:1].isalpha():
            raise self._error(f"unknown name {tok!r} for space {self.space}", i)
        raise self._error("expected a value", i)


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


@_memoized(_memo("expressions.parsed"))
def _parsed(text, space):
    """The Value of text on space.  A ParseError stores nothing."""
    return _Parser(text, space).parse()


def parse(text: str, space: str = "euclid3") -> Value:
    """Parse an expression; returns a tagged, read-only Value, the stored
    one itself when the same text was parsed on the same space before."""
    return _parsed(text, space)


def render(value: Value, q_value=None) -> str:
    """Canonical text for a parse value; with q_value set, every coefficient
    is evaluated numerically and the monomials print as in the exact form."""
    data = value.data
    if q_value is None:
        return str(data)
    if value.kind == "scalar":
        return f"({data.eval_float(q_value):.12g})"
    return data.numeric_str(q_value)
