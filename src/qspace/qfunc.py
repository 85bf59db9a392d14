"""Closed-form q-calculus on commutative functions: Jackson derivatives and
integrals, the operator representations of the partial derivatives and their
inverses, and argument scalings.

The representations for one side/calculus are written down once (the left
actions of the plain derivatives and of their inverses); every other variant
is generated from them by one derivation, the mechanical index/base
substitutions, and frozen on first use.  The generated line variants are
diff-tested against the explicitly printed ones in the test suite, and all
variants are cross-checked against the normal-ordering engine, which serves
as the independent oracle.
"""

from __future__ import annotations

import functools

from .cfunc import CFunction
from .ncalgebra import reorder_transform
from .scalars import LAM, ONE, _add_term, _memo, _remember, qpow
from .spaces import CALCULI, E3, LABELS, LINE, PM_LABEL_SWAP, PM_SWAP, SpaceTable

VARIANTS = tuple(CALCULI)

# An operator program is a list of primitive steps applied left to right:
#   ("D", var, a)        Jackson derivative with base q^a
#   ("Dinv", var, a)     its monomial antiderivative
#   ("classical_d", var) the ordinary time derivative
#   ("scale", var, h)    substitution var -> q^(h/2) var
#   ("mul", {var: n}, c) multiplication by c * monomial
# A representation is a list of (QScalar prefactor, program) branches whose
# results are summed.


def _apply_program(f: CFunction, program) -> CFunction:
    for step in program:
        op = step[0]
        if op == "D":
            f = f.jackson_d(step[1], step[2])
        elif op == "Dinv":
            f = f.jackson_antiderivative(step[1], step[2])
        elif op == "classical_d":
            f = f.classical_d(step[1])
        elif op == "classical_Dinv":
            f = f.classical_antiderivative(step[1])
        elif op == "scale":
            f = f.scale_var(step[1], step[2])
        elif op == "mul":
            mono, c = step[1], step[2]
            exps = [mono.get(v, 0) for v in f.vars]
            f = f * CFunction.monomial(f.vars, exps, c)
        else:
            raise ValueError(f"unknown program step {op!r}")
    return f


def apply_branches(f: CFunction, branches) -> CFunction:
    out = {}
    for pre, prog in branches:
        for e, c in _apply_program(f, prog).terms.items():
            _add_term(out, e, c * pre)
    return CFunction(f.vars, out)


def _transform(branches, swap_pm=False, invert_q=False, negate=False):
    """The printed substitution rules acting on an operator program."""
    out = []
    for pre, prog in branches:
        if invert_q:
            pre = pre.subs_q_inverse()
        if negate:
            pre = -pre
        steps = []
        for step in prog:
            op = step[0]
            if op in ("D", "Dinv"):
                v, a = step[1], step[2]
                if swap_pm:
                    v = PM_SWAP.get(v, v)
                if invert_q:
                    a = -a
                steps.append((op, v, a))
            elif op == "scale":
                v, h = step[1], step[2]
                if swap_pm:
                    v = PM_SWAP.get(v, v)
                if invert_q:
                    h = -h
                steps.append((op, v, h))
            elif op == "mul":
                mono, c = step[1], step[2]
                if swap_pm:
                    mono = {PM_SWAP.get(v, v): n for v, n in mono.items()}
                if invert_q:
                    c = c.subs_q_inverse()
                steps.append((op, mono, c))
            else:
                steps.append(step)
        out.append((pre, tuple(steps)))
    return out


_ANCHORS = SpaceTable({
    # left actions of the plain derivatives (the anchor data)
    LINE: {
        "0": [(ONE, (("classical_d", "x0"),))],
        "1": [(ONE, (("D", "x1", 1),))],
    },
    E3: {
        "0": [(ONE, (("classical_d", "x0"),))],
        "+": [(ONE, (("D", "xp", 4),))],
        "3": [(ONE, (("scale", "xp", 4), ("D", "x3", 2)))],
        "-": [
            (ONE, (("scale", "x3", 4), ("D", "xm", 4))),
            (LAM, (("D", "x3", 2), ("D", "x3", 2), ("mul", {"xp": 1}, ONE))),
        ],
    },
})


def _variants(left):
    """The four one-sided variants of the left actions ``left`` ({index
    label: branches}), keyed (label, variant).

    left_bar is the hatted derivative with the conjugate index, via the
    (+/-, q) -> (-/+, 1/q) transition; right_bar comes from left and right
    from left_bar by the +/- swap plus a sign.  The substitutions carry the
    inverse of an action to the inverse of its image, so the inverse
    derivatives go through the same derivation."""
    reps = {}
    for i, br in left.items():
        reps[(i, "left")] = br
    for i, br in left.items():
        reps[(PM_LABEL_SWAP.get(i, i), "left_bar")] = _transform(br, swap_pm=True, invert_q=True)
    for i in left:
        j = PM_LABEL_SWAP.get(i, i)
        reps[(j, "right_bar")] = _transform(reps[(i, "left")], swap_pm=True, negate=True)
        reps[(j, "right")] = _transform(reps[(i, "left_bar")], swap_pm=True, negate=True)
    return reps


@functools.cache
def _reps(space):
    return _variants(_ANCHORS[space])


def _act(reps_of, index, variant, f, space, rep):
    """Apply the branches reps_of(f)[(index, variant)] to f.  rep names the
    normal ordering f represents: the hatted-calculus operators produced by
    the substitution rules are native to the reversed ordering and get
    conjugated by the ordering transport when applied to a standard-ordering
    representative, and the plain ones the other way round."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    back = None
    if space == E3 and (rep == "standard") == CALCULI[variant][0]:
        there, back = "to_reversed", "to_standard"
        if rep != "standard":
            there, back = back, there
        f = reorder_transform(space, f, there)
    try:
        branches = reps_of(f)[(str(index), variant)]
    except KeyError:
        raise ValueError(f"unknown derivative index {index!r} for {space}")
    out = apply_branches(f, branches)
    return out if back is None else reorder_transform(space, out, back)


def act_partial_closed(index: str, variant: str, f: CFunction, space: str,
                       rep: str = "standard") -> CFunction:
    """Closed-form action of one partial derivative.

    'left'/'right_bar' act with the plain derivative, 'left_bar'/'right'
    with the hatted one, matching the four printed one-sided calculi; rep
    names the normal ordering the argument represents.
    """
    return _act(lambda g: _reps(space), index, variant, f, space, rep)


# -- inverse derivatives ------------------------------------------------------


def _inverse_branches(space, index, degree3):
    """Branches for the left action of an inverse derivative; for the '-'
    direction the correction series is finite on polynomials, each term
    eating two powers of the 3-coordinate."""
    if index == "0":
        return [(ONE, (("classical_Dinv", "x0"),))]
    if space == LINE:
        return [(ONE, (("Dinv", "x1", 1),))]
    if index == "+":
        return [(ONE, (("Dinv", "xp", 4),))]
    if index == "3":
        # the inverse pairs with the q^2 base of the forward action
        return [(ONE, (("scale", "xp", -4), ("Dinv", "x3", 2)))]
    branches = []  # index '-'
    for k in range(degree3 // 2 + 1):
        steps = [("scale", "x3", -4 * (k + 1))]
        steps += [("Dinv", "xm", 4)] * (k + 1)
        steps += [("D", "x3", 2)] * (2 * k)
        steps.append(("mul", {"xp": k}, ONE))
        pre = qpow(2 * k * (k + 1))
        for _ in range(k):
            pre = pre * (-LAM)
        branches.append((pre, tuple(steps)))
    return branches


_INVERSE_REPS = _memo()  # (space, degree3) -> _inverse_reps(space, degree3)


def _inverse_reps(space, degree3):
    """The four variants of the inverse derivatives, exact on polynomials of
    degree below degree3 in the 3-coordinate."""
    reps = _INVERSE_REPS.get((space, degree3))
    if reps is None:
        reps = _remember(_INVERSE_REPS, (space, degree3), _variants(
            {i: _inverse_branches(space, i, degree3) for i in LABELS[space]}))
    return reps


def act_inverse_partial(index: str, variant: str, f: CFunction, space: str,
                        rep: str = "standard") -> CFunction:
    """Left/right actions of the inverse partial derivatives on polynomials.

    The correction series terminates on polynomials, so the result is exact;
    the matching forward action returns the input (inverse property)."""
    return _act(lambda g: _inverse_reps(space, g.degree("x3") + 2 if space == E3 else 2),
                index, variant, f, space, rep)


# -- the scaling operator (evolution calls it by name: a test swaps in a fake) --


def scale_arg(f: CFunction, var: str, half_steps: int) -> CFunction:
    """The scaling-operator action: substitute var -> q^(half_steps/2) var."""
    return f.scale_var(var, half_steps)
