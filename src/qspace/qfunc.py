"""Closed-form q-calculus on commutative functions: the actions of the
partial derivatives and of their inverses, and argument scalings.

The left actions of the plain derivatives and of their inverses are written
down once, as functions of (e, x, s) that give the image of one monomial
with exponent tuple e: x holds the slots of the variables standing in for
xp and xm, and s is the sign of every q-exponent.  The substitution rules
(+/-, q) -> (-/+, 1/q) of spaces.SUBSTITUTION give the other three one-sided
calculi from them: a hatted action takes s = -1, a mirrored one the
conjugate index label with xp and xm exchanged, and a right action the
opposite sign.  The printed line formulas are diff-tested against these in
the test suite, and all variants are cross-checked against the
normal-ordering engine, which serves as the independent oracle.
"""

from __future__ import annotations

import functools

from .cfunc import E3_VARS, CFunction, space_vars
from .ncalgebra import _transport_image
from .scalars import LAM, ONE, QScalar, _apply_rows, _memo, _memoized, qnum, qpow, scalar
from .spaces import CALCULI, E3, LINE, PM_LABEL_SWAP, SUBSTITUTION, SpaceTable, check_option

VARIANTS = tuple(CALCULI)

# the values of x: the slots of xp and xm in a euclid3 exponent tuple, and
# their +/- mirror
_X = (E3_VARS.index("xp"), E3_VARS.index("xm"))
_X_MIRRORED = _X[::-1]
_I3 = E3_VARS.index("x3")


def _moved(e, *steps):
    """e with each (slot, change) of steps applied."""
    out = list(e)
    for i, d in steps:
        out[i] += d
    return tuple(out)


def _jackson(e, i, a, c=ONE):
    """c times the Jackson derivative D_{q^a} in slot i; a = 0 is the
    classical derivative."""
    n = e[i]
    return [(_moved(e, (i, -1)), c * (qnum(n, a) if a else scalar(n)))] if n else []


def _jackson_inverse(e, i, a, c=ONE):
    """c times the Jackson antiderivative, x^n -> x^(n+1) / [[n+1]]_{q^a},
    in slot i; a = 0 is the classical antiderivative."""
    n = e[i] + 1
    return [(_moved(e, (i, 1)), c / (qnum(n, a) if a else scalar(n)))]


def _d_minus(e, x, s):
    # scale x3 by q^(2s), lower x[1]; plus D_3^2 times lambda x[0]
    n3 = e[_I3]
    out = _jackson(e, x[1], 4 * s, QScalar.q_power(4 * s * n3))
    if n3 > 1:
        out.append((_moved(e, (_I3, -2), (x[0], 1)),
                    qnum(n3, 2 * s) * qnum(n3 - 1, 2 * s) * (s * LAM)))
    return out


def _d_minus_inverse(e, x, s):
    """The correction series is finite on polynomials: term k eats 2k powers
    of the 3-coordinate, raises x[1] k + 1 times and x[0] k times."""
    n3, n1 = e[_I3], e[x[1]]
    out = []
    rise = fall = ONE
    for k in range(n3 // 2 + 1):
        # 1 / [[n1+1]]...[[n1+k+1]] in base q^(4s), [[n3]]...[[n3-2k+1]] in q^(2s)
        rise = rise / qnum(n1 + k + 1, 4 * s)
        if k:
            fall = fall * qnum(n3 - 2 * k + 2, 2 * s) * qnum(n3 - 2 * k + 1, 2 * s)
        coeff = (QScalar.q_power(-4 * s * (k + 1) * n3) * rise * fall
                 * qpow(2 * s * k * (k + 1)) * (-s * LAM) ** k)
        out.append((_moved(e, (x[1], k + 1), (_I3, -2 * k), (x[0], k)), coeff))
    return out


# index label -> the left action of the plain derivative
_LEFT = SpaceTable({
    LINE: {"0": lambda e, x, s: _jackson(e, 0, 0), "1": lambda e, x, s: _jackson(e, 1, s)},
    E3: {
        "0": lambda e, x, s: _jackson(e, 0, 0),
        "+": lambda e, x, s: _jackson(e, x[0], 4 * s),
        "3": lambda e, x, s: _jackson(e, _I3, 2 * s, QScalar.q_power(4 * s * e[x[0]])),
        "-": _d_minus,
    },
})

# index label -> the left action of its inverse; the '3' inverse pairs with
# the q^2 base of the forward action
_LEFT_INVERSE = SpaceTable({
    LINE: {"0": lambda e, x, s: _jackson_inverse(e, 0, 0),
           "1": lambda e, x, s: _jackson_inverse(e, 1, s)},
    E3: {
        "0": lambda e, x, s: _jackson_inverse(e, 0, 0),
        "+": lambda e, x, s: _jackson_inverse(e, x[0], 4 * s),
        "3": lambda e, x, s: _jackson_inverse(e, _I3, 2 * s, QScalar.q_power(-4 * s * e[x[0]])),
        "-": _d_minus_inverse,
    },
})

# the images of single monomials under each action, keyed (inverse?, index
# label, variant, space, exps): tuples of (key, coefficient) rows, stored whole
@_memoized(_memo("qfunc.act_rows"))
def _act_image(inverse, label, variant, space, e):
    """The image of the monomial with exponents e under the variant's image
    of the left action (_LEFT_INVERSE if inverse, else _LEFT)[space][label],
    as rows."""
    s, mirrored = SUBSTITUTION[variant]
    if mirrored:
        label = PM_LABEL_SWAP.get(label, label)
    row = (_LEFT_INVERSE if inverse else _LEFT)[space][label](
        e, _X_MIRRORED if mirrored else _X, s)
    if CALCULI[variant][1]:  # a right action
        return tuple((k, -c) for k, c in row)
    return tuple(row)


def _action(inverse, index, variant, space, rep):
    """The variant's image of the left action (_LEFT_INVERSE if inverse,
    else _LEFT)[space][index], as a map from term dict {exps: coefficient}
    to term dict, with every option checked once.  rep names the normal
    ordering the terms represent: the hatted-calculus operators produced by
    the substitution rules are native to the reversed ordering and get
    conjugated by the ordering transport when applied to a standard-ordering
    representative, and the plain ones the other way round.  The monomials'
    images are read from the action table, and a transported map applies
    the transport's rows, the action's and the transport back's in turn."""
    check_option("variant", variant, VARIANTS)
    check_option("rep", rep, ("standard", "reversed"))
    label = str(index)
    # the +/- mirror swaps two labels of the same table
    if label not in _LEFT[space]:
        raise ValueError(f"unknown derivative index {index!r} for {space}")
    rows = functools.partial(_act_image, inverse, label, variant, space)
    if space != E3 or (rep == "standard") != CALCULI[variant][0]:
        return lambda terms: _apply_rows(terms.items(), rows)
    # into the other ordering, where the action is native, and back
    there = functools.partial(
        _transport_image, space, "to_standard" if rep == "reversed" else "to_reversed")
    back = functools.partial(_transport_image, space, "to_" + rep)

    def transported(terms):
        moved = _apply_rows(terms.items(), there)
        return _apply_rows(_apply_rows(moved.items(), rows).items(), back)

    return transported


def _act(inverse, index, variant, f, space, rep):
    """The action _action names, applied to the polynomial f.  The suites
    call it, not the table below: their inputs are new each time."""
    action = _action(inverse, index, variant, space, rep)
    want = space_vars(space)
    return CFunction(want, action(f.restrict(want).terms))


# (inverse?, index, variant, polynomial, space, rep) -> the action's image
# of the polynomial, for the public actions.  _action checks the options
# before anything is stored
_actions = _memoized(_memo("qfunc.actions"))(_act)


def act_partial_closed(index: str, variant: str, f: CFunction, space: str,
                       rep: str = "standard") -> CFunction:
    """Closed-form action of one partial derivative.

    'left'/'right_bar' act with the plain derivative, 'left_bar'/'right'
    with the hatted one, matching the four printed one-sided calculi; rep
    names the normal ordering the argument represents.
    """
    return _actions(False, index, variant, f, space, rep)


def act_inverse_partial(index: str, variant: str, f: CFunction, space: str) -> CFunction:
    """Left/right actions of the inverse partial derivatives on polynomials.

    The correction series terminates on polynomials, so the result is exact;
    the matching forward action returns the input (inverse property)."""
    return _actions(True, index, variant, f, space, "standard")


# -- the scaling operator (evolution calls it by name: a test swaps in a fake) --


def scale_arg(f: CFunction, var: str, half_steps: int) -> CFunction:
    """The scaling-operator action: substitute var -> q^(half_steps/2) var."""
    return f.scale_var(var, half_steps)
