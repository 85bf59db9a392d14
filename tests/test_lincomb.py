"""The shared sparse linear-combination core behind CFunction, NCElement,
GElement and QMatrix: zero terms never survive, frames are checked, every
element hashes as == compares, a number scales from either side, the products
accumulate through the one row kernel, scalars._apply_rows, and an element
cannot be changed once made, so the values that tables store and hand out
(a power of H, a q-exponential's word, a parse) stay as they were made."""

import operator
from fractions import Fraction

import pytest

import qspace
from qspace import expressions
from qspace.cfunc import E3_VARS, CFunction
from qspace.evolution import free_hamiltonian
from qspace.grassmann import GElement
from qspace.ncalgebra import NCElement, SpaceMismatch, act
from qspace.rmatrix import QMatrix
from qspace.pairexp import qexp
from qspace.scalars import ONE, ZERO, QScalar, _apply_rows, _term_pairs, qpow, scalar
from qspace.starcalc import StarContext, star
from test_scalar_oracle import field_property, gen_scalar


def test_embed_drops_renamed_variables_that_cancel():
    f = CFunction(("a", "b"), {(1, 0): ONE, (0, 1): -ONE})
    g = f.embed(("z",), {"a": "z", "b": "z"})
    assert g.is_zero() and str(g) == "0"


def test_restrict_drops_renamed_variables_that_cancel():
    f = CFunction(("a", "b", "c"), {(1, 0, 0): ONE, (0, 1, 0): -ONE, (0, 0, 0): scalar(2)})
    assert f.restrict(("z",), {"a": "z", "b": "z"}) == CFunction.constant(("z",), 2)
    # nothing to drop or rename: the polynomial itself
    assert f.restrict(["a", "b", "c"]) is f
    assert f.restrict(f.vars, {"a": "c", "c": "a"}) == CFunction(
        f.vars, {(0, 0, 1): ONE, (0, 1, 0): -ONE, (0, 0, 0): scalar(2)})


@pytest.mark.parametrize("made, use, want", [
    (lambda: CFunction.constant(E3_VARS, Fraction(1, 2)),
     lambda f: f.eval_coeffs_exact(1), {(0, 0, 0, 0): Fraction(1, 2)}),
    (lambda: CFunction.monomial(E3_VARS, (0, 1, 0, 0), 2),
     lambda f: f.eval_float(1.1, {"xp": 1}), 2),
    (lambda: CFunction.var(E3_VARS, "xp", 1, 2), str, "2 xp"),
    (lambda: NCElement.scalar_term("line", 2), lambda a: a.conjugate(),
     NCElement.scalar_term("line", scalar(2))),
], ids=["constant", "monomial", "var", "scalar_term"])
def test_constructors_store_a_plain_number_as_a_scalar(made, use, want):
    # an int or Fraction coefficient is stored as the equal QScalar, as
    # scale stores it, so every coefficient method applies to it
    element = made()
    assert all(isinstance(c, QScalar) for c in element.terms.values())
    assert use(element) == want


def test_frames_and_hashability():
    f = CFunction.var(("x0", "x1"), "x1")
    assert hash(f) == hash(CFunction.var(("x0", "x1"), "x1"))
    assert f != CFunction.var(("y0", "x1"), "x1")
    with pytest.raises(ValueError, match="variable sets differ"):
        f + CFunction.var(("y",), "y")
    with pytest.raises(ValueError, match="variable sets differ"):
        f * CFunction.var(("y",), "y")
    a = NCElement.generator("line", "x1")
    assert a != f
    with pytest.raises(SpaceMismatch):
        a + NCElement.generator("euclid3", "x3")
    with pytest.raises(SpaceMismatch):
        a * NCElement.generator("euclid3", "x3")
    th, m = GElement.gen("th1"), QMatrix.identity(2)
    # every element class is hashable, and equal elements hash alike
    for x, same in ((a, NCElement.generator("line", "x1")), (th, th.scale(1)), (m, m + m - m)):
        assert x == same and x is not same and hash(x) == hash(same)
    # a number in a sum, or an operand of another type, raises TypeError in
    # both orders
    sums, every = (operator.add, operator.sub), (operator.add, operator.sub, operator.mul)
    cases = [(x, n, sums) for x in (f, a, th, m) for n in (1, Fraction(1, 2), ONE)]
    cases += [(m, 1.5, every), (f, "x", every), (f, a, every), (a, f, every), (th, a, every),
              (f, th, every), (m, f, every)]
    for x, y, ops in cases:
        for op in ops:
            for left, right in ((x, y), (y, x)):
                with pytest.raises(TypeError):
                    op(left, right)


# -- the hash agrees with == --------------------------------------------------------

# a constructor of each hashed class on a fixed frame, and the keys its terms
# draw from
_FRAMED = {
    "CFunction": (lambda t: CFunction(("x0", "x1"), t), [(i, j) for i in range(3) for j in range(3)]),
    "NCElement": (lambda t: NCElement("line", t),
                  [(i, 0, j, 0, h) for i in range(2) for j in range(2) for h in (-1, 0, 2)]),
    "QMatrix": (lambda t: QMatrix(3, t), [(i, j) for i in range(3) for j in range(3)]),
}


def _hash_cases():
    from hypothesis import strategies as st

    def build(draw):
        draw_int = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
        make, keys = _FRAMED[sorted(_FRAMED)[draw_int(0, 2)]]

        def element():
            return make({keys[draw_int(0, len(keys) - 1)]: gen_scalar(draw_int)
                         for _ in range(draw_int(0, 4))})

        k = Fraction(draw_int(1, 7) * (-1) ** draw_int(0, 1), draw_int(1, 5))
        g = scalar(Fraction(draw_int(-3, 3), draw_int(1, 3)), Fraction(draw_int(1, 3), draw_int(1, 2)))
        return make, element(), element(), k, g

    return st.composite(build)()


@field_property(_hash_cases, examples=80)
def test_equal_elements_built_different_ways_hash_alike(case):
    make, a, b, k, g = case
    pairs = [
        (a + b, b + a),
        (a + b - b, a),
        (make(dict(reversed(list(a.terms.items())))), a),
        (a.scale(k).scale(1 / k), a),
        (a.scale(k), make({key: scalar(k) * c for key, c in a.terms.items()})),
        (a.scale(g), make({key: g * c for key, c in a.terms.items()})),
        ((a + b).scale(g), b.scale(g) + a.scale(g)),
        (a.scale(g).scale(ONE / g), a),
        # the raw constructor keeps a plain number as it is given
        (make(dict.fromkeys(a.terms, k)), make(dict.fromkeys(a.terms, scalar(k)))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (str(x), str(y))


def test_the_hash_tells_frames_and_multiples_apart():
    # the same terms on another frame, and the multiples of one monomial
    # by integers, fractions, q-powers and Gaussian numbers, all hash apart
    # (but -1 and -2, since CPython's hash(-1) is -2), and so do its
    # multiples by rational functions of one numerator or one denominator
    t = {(0, 1): qpow(1), (1, 1): ONE}
    framed = [CFunction(("x0", "x1"), t), CFunction(("y0", "y1"), t), QMatrix(2, t), QMatrix(3, t)]
    assert len({hash(x) for x in framed}) == len(framed)
    mono = CFunction.var(E3_VARS, "xp")
    numbers = [scalar(n) for n in range(-50, 51) if n not in (0, -1)]
    numbers += [scalar(Fraction(1, n)) for n in range(2, 51)] + [scalar(Fraction(3, n)) for n in (2, 4, 5)]
    numbers += [qpow(n) for n in range(-20, 21) if n] + [scalar(1, n) for n in range(1, 21)]
    numbers += [qpow(2) / (ONE + qpow(m)) for m in range(1, 21)]
    numbers += [qpow(2) / (qpow(m) + qpow(m + 2)) for m in range(1, 21)]
    assert len({hash(mono.scale(c)) for c in numbers}) == len(numbers)


def test_zero_results_are_empty():
    a = NCElement.generator("euclid3", "xp")
    th = GElement.gen("th1")
    f = CFunction.var(("x0", "x1"), "x1")
    for zero in (a - a, a.scale(0), th - th, th.scale(0), th * th, f - f, f.scale(0)):
        assert zero.is_zero() and not zero and zero.terms == {}


def _x(space, tag):
    return NCElement.generator(space, tag)


# one element of each class, each with more than one term
_ELEMENTS = {
    "CFunction": lambda: CFunction(("x0", "x1"), {(0, 1): ONE, (2, 0): qpow(1)}),
    "NCElement": lambda: _x("euclid3", "xp") + _x("euclid3", "dm"),
    "GElement": lambda: GElement.gen("th1") + GElement.gen("dth0").scale(qpow(-1)),
    "QMatrix": lambda: QMatrix(2, {(0, 1): ONE, (1, 1): qpow(1)}),
}


def assert_read_only(element):
    """Each way of changing element raises: its terms take no item, lose
    none and have no mutating method, and no attribute (terms, the frame or
    a new one) can be rebound or deleted.  The element reads the same
    afterwards."""
    shown, items = str(element), list(element.terms.items())
    terms = element.terms
    key = items[0][0] if items else ("planted",)
    with pytest.raises(TypeError):
        terms[key] = ONE
    with pytest.raises(TypeError):
        del terms[key]
    for method in ("clear", "pop", "popitem", "setdefault", "update"):
        with pytest.raises(AttributeError):
            getattr(terms, method)
    for name in ("terms", *type(element).__slots__, "planted"):
        with pytest.raises(AttributeError):
            setattr(element, name, {})
        with pytest.raises(AttributeError):
            delattr(element, name)
    assert list(element.terms.items()) == items and str(element) == shown


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
def test_an_element_cannot_be_changed(kind):
    assert_read_only(_ELEMENTS[kind]())
    assert_read_only(_ELEMENTS[kind]().scale(0))


# a constructor of each class, with a key it keeps, a key given a zero
# coefficient and a key added to the caller's dict later
@pytest.mark.parametrize("make,kept,dropped,later", [
    (lambda t: CFunction(("x0", "x1"), t), (1, 0), (0, 1), (2, 2)),
    (lambda t: NCElement("line", t), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0)),
    (GElement, ("th0",), ("th1",), ("dth0",)),
    (lambda t: QMatrix(2, t), (0, 1), (1, 0), (1, 1)),
], ids=["CFunction", "NCElement", "GElement", "QMatrix"])
def test_an_element_keeps_nothing_of_the_dict_it_was_made_from(make, kept, dropped, later):
    terms = {kept: qpow(1), dropped: ZERO}
    a = make(terms)
    shown = str(a)
    assert a.terms == {kept: qpow(1)} and dropped not in a.terms
    terms[kept] = ONE
    terms[dropped] = ONE
    terms[later] = ONE
    assert a.terms == {kept: qpow(1)} and str(a) == shown
    terms.clear()
    assert a.terms == {kept: qpow(1)} and str(a) == shown


def _power():
    H = free_hamiltonian("euclid3")
    return lambda: H.power(2)


# a reader of each kind of stored value: H^2 from one Hamiltonian's power
# table, a q-exponential's derivative word, the element of a parse
_STORED = {
    "power": _power,
    "qexp word": lambda: lambda: qexp("euclid3", "dhat_x", 3).terms[8][1],
    "parse": lambda: lambda: expressions.parse("(1 + q) Xp Xm^2 dh3 - lambda L^-1 X3").data,
}


@pytest.mark.parametrize("name", sorted(_STORED))
def test_a_stored_value_cannot_be_changed(name):
    read = _STORED[name]()
    value = read()
    shown = str(value)
    assert len(value.terms) > 1 and read() is value
    assert_read_only(value)
    assert read() is value and str(read()) == shown
    # built again from empty tables, the value is the same
    qspace.clear_tables()
    assert _STORED[name]()() == value


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
@pytest.mark.parametrize(
    "number", [3, Fraction(1, 2), qpow(1) + ONE], ids=["int", "Fraction", "QScalar"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_number_scales_an_element_from_either_side(kind, number, side):
    a = _ELEMENTS[kind]()
    got = number * a if side == "left" else a * number
    assert type(got) is type(a)
    assert got.terms == {k: c * number for k, c in a.terms.items()}
    zero = 0 * a if side == "left" else a * 0
    assert type(zero) is type(a) and zero.terms == {}


def test_apply_rows_reads_its_pairs_once():
    pairs = iter([((1,), scalar(2)), ((2,), ONE), ((1,), scalar(3))])
    out = _apply_rows(pairs, lambda e: (((e[0] + 1,), ONE), ((0,), -ONE)))
    assert out == {(2,): scalar(5), (3,): ONE, (0,): scalar(-6)}
    assert next(pairs, None) is None
    assert list(_term_pairs({"a": scalar(2), "b": ONE}, {"c": scalar(3)})) == [
        (("a", "c"), scalar(6)), (("b", "c"), scalar(3))
    ]


def test_products_that_cancel_leave_no_zero_key():
    x0, x1 = (CFunction.var(("x0", "x1"), v) for v in ("x0", "x1"))
    assert ((x1 + x0) * (x1 - x0)).terms == {(0, 2): ONE, (2, 0): -ONE}
    # x0 is central: the two mixed words are one key and cancel
    p, t = _x("euclid3", "xp"), _x("euclid3", "x0")
    assert (p + t) * (p - t) == p * p - t * t
    assert len(((p + t) * (p - t)).terms) == 2
    m, t = (CFunction.var(E3_VARS, v) for v in ("xm", "x0"))
    want = {(0, 0, 0, 2): ONE, (2, 0, 0, 0): -ONE}
    assert star(StarContext("euclid3"), m + t, m - t).terms == want
    th = GElement.gen("th1")
    assert (th * th).terms == {}


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
def test_a_zero_factor_gives_zero(kind):
    a = _ELEMENTS[kind]()
    zero = a.scale(0)
    assert (a * zero).terms == {} and (zero * a).terms == {}


def test_counit_memo_entries_are_tuples_under_token_run_word_keys():
    from qspace import ncalgebra

    space = "euclid3"
    op = _x(space, "dp") * _x(space, "dm") + _x(space, "d3")
    f = _x(space, "xp") * _x(space, "xm") * _x(space, "x3")
    assert not act(op, f, "left").is_zero()
    rulesets = [ncalgebra._ruleset(space, c, True) for c in ("u", "h")]
    entries = [(k, v) for rs in rulesets for k, v in rs.counit_memo.items()]
    assert entries
    for (t, n, xw), rows in entries:
        assert isinstance(t, int) and isinstance(n, int) and isinstance(xw, tuple)
        assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
