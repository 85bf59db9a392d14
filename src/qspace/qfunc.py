"""Closed-form q-calculus on commutative functions: the actions of the
partial derivatives and of their inverses, and argument scalings.

The left actions of the plain derivatives and of their inverses are written
down once, as functions of (f, x, s): x names the variables standing in for
xp and xm, and s is the sign of every q-exponent.  The substitution rules
(+/-, q) -> (-/+, 1/q) of spaces.SUBSTITUTION give the other three one-sided
calculi from them: a hatted action takes s = -1, a mirrored one the
conjugate index label with xp and xm exchanged, and a right action the
opposite sign.  The printed line formulas are diff-tested against these in
the test suite, and all variants are cross-checked against the
normal-ordering engine, which serves as the independent oracle.
"""

from __future__ import annotations

from .cfunc import CFunction
from .ncalgebra import reorder_transform
from .scalars import LAM, qpow
from .spaces import CALCULI, E3, LINE, PM_LABEL_SWAP, SUBSTITUTION, SpaceTable, check_option

VARIANTS = tuple(CALCULI)

# the values of x: the plain variables and their +/- mirror
_X, _X_MIRRORED = ("xp", "xm"), ("xm", "xp")


def _d_time(f, x, s):
    return f.classical_d("x0")


def _d_time_inverse(f, x, s):
    return f.classical_antiderivative("x0")


def _d_minus(f, x, s):
    lam_xp = CFunction.var(f.vars, x[0], 1, s * LAM)
    return (f.scale_var("x3", 4 * s).jackson_d(x[1], 4 * s)
            + f.jackson_d("x3", 2 * s).jackson_d("x3", 2 * s) * lam_xp)


def _d_minus_inverse(f, x, s):
    """The correction series is finite on polynomials: term k eats 2k powers
    of the 3-coordinate."""
    out = CFunction.zero(f.vars)
    for k in range(f.degree("x3") // 2 + 1):
        g = f.scale_var("x3", -4 * s * (k + 1))
        for _ in range(k + 1):
            g = g.jackson_antiderivative(x[1], 4 * s)
        for _ in range(2 * k):
            g = g.jackson_d("x3", 2 * s)
        out = out + g * CFunction.var(f.vars, x[0], k, qpow(2 * s * k * (k + 1)) * (-s * LAM) ** k)
    return out


# index label -> the left action of the plain derivative
_LEFT = SpaceTable({
    LINE: {"0": _d_time, "1": lambda f, x, s: f.jackson_d("x1", s)},
    E3: {
        "0": _d_time,
        "+": lambda f, x, s: f.jackson_d(x[0], 4 * s),
        "3": lambda f, x, s: f.scale_var(x[0], 4 * s).jackson_d("x3", 2 * s),
        "-": _d_minus,
    },
})

# index label -> the left action of its inverse; the '3' inverse pairs with
# the q^2 base of the forward action
_LEFT_INVERSE = SpaceTable({
    LINE: {"0": _d_time_inverse, "1": lambda f, x, s: f.jackson_antiderivative("x1", s)},
    E3: {
        "0": _d_time_inverse,
        "+": lambda f, x, s: f.jackson_antiderivative(x[0], 4 * s),
        "3": lambda f, x, s: f.scale_var(x[0], -4 * s).jackson_antiderivative("x3", 2 * s),
        "-": _d_minus_inverse,
    },
})


def _act(actions, index, variant, f, space, rep):
    """Apply the variant's image of the left action actions[space][index] to
    f.  rep names the normal ordering f represents: the hatted-calculus
    operators produced by the substitution rules are native to the reversed
    ordering and get conjugated by the ordering transport when applied to a
    standard-ordering representative, and the plain ones the other way
    round."""
    check_option("variant", variant, VARIANTS)
    check_option("rep", rep, ("standard", "reversed"))
    hatted, right = CALCULI[variant][:2]
    s, mirrored = SUBSTITUTION[variant]
    back = None
    if space == E3 and (rep == "standard") == hatted:
        there, back = "to_reversed", "to_standard"
        if rep != "standard":
            there, back = back, there
        f = reorder_transform(space, f, there)
    label = str(index)
    try:
        action = actions[space][PM_LABEL_SWAP.get(label, label) if mirrored else label]
    except KeyError:
        raise ValueError(f"unknown derivative index {index!r} for {space}")
    out = action(f, _X_MIRRORED if mirrored else _X, s)
    if right:
        out = -out
    return out if back is None else reorder_transform(space, out, back)


def act_partial_closed(index: str, variant: str, f: CFunction, space: str,
                       rep: str = "standard") -> CFunction:
    """Closed-form action of one partial derivative.

    'left'/'right_bar' act with the plain derivative, 'left_bar'/'right'
    with the hatted one, matching the four printed one-sided calculi; rep
    names the normal ordering the argument represents.
    """
    return _act(_LEFT, index, variant, f, space, rep)


def act_inverse_partial(index: str, variant: str, f: CFunction, space: str) -> CFunction:
    """Left/right actions of the inverse partial derivatives on polynomials.

    The correction series terminates on polynomials, so the result is exact;
    the matching forward action returns the input (inverse property)."""
    return _act(_LEFT_INVERSE, index, variant, f, space, "standard")


# -- the scaling operator (evolution calls it by name: a test swaps in a fake) --


def scale_arg(f: CFunction, var: str, half_steps: int) -> CFunction:
    """The scaling-operator action: substitute var -> q^(half_steps/2) var."""
    return f.scale_var(var, half_steps)
