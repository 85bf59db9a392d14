"""Closed-form q-calculus on commutative functions: Jackson derivatives and
integrals, the operator representations of the partial derivatives and their
inverses, argument scalings, braided products on the line, and the
q-constancy test.

The representations for one side/calculus are written down once (the left
action of the plain derivatives); every other variant is generated from them
by the mechanical index/base substitutions and frozen below.  The generated
line variants are diff-tested against the explicitly printed ones in the
test suite, and all variants are cross-checked against the normal-ordering
engine, which serves as the independent oracle.
"""

from __future__ import annotations

from .cfunc import CFunction, space_vars
from .ncalgebra import _PM_SWAP, reorder_transform
from .scalars import LAM, ONE, QScalar, _add_term, qpow

VARIANTS = ("left", "left_bar", "right", "right_bar")

# The hatted-calculus representations produced by the substitution rules act
# on reversed-ordering representatives; on the standard ordering they are
# conjugated by the ordering transport.
_REVERSED_NATIVE = ("left_bar", "right")

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
                    v = _PM_SWAP.get(v, v)
                if invert_q:
                    a = -a
                steps.append((op, v, a))
            elif op == "scale":
                v, h = step[1], step[2]
                if swap_pm:
                    v = _PM_SWAP.get(v, v)
                if invert_q:
                    h = -h
                steps.append((op, v, h))
            elif op == "mul":
                mono, c = step[1], step[2]
                if swap_pm:
                    mono = {_PM_SWAP.get(v, v): n for v, n in mono.items()}
                if invert_q:
                    c = c.subs_q_inverse()
                steps.append((op, mono, c))
            else:
                steps.append(step)
        out.append((pre, tuple(steps)))
    return out


def _base_left_reps(space):
    """Left actions of the plain derivatives (the anchor data)."""
    if space == "line":
        return {
            "0": [(ONE, (("classical_d", "x0"),))],
            "1": [(ONE, (("D", "x1", 1),))],
        }
    return {
        "0": [(ONE, (("classical_d", "x0"),))],
        "+": [(ONE, (("D", "xp", 4),))],
        "3": [(ONE, (("scale", "xp", 4), ("D", "x3", 2)))],
        "-": [
            (ONE, (("scale", "x3", 4), ("D", "xm", 4))),
            (LAM, (("D", "x3", 2), ("D", "x3", 2), ("mul", {"xp": 1}, ONE))),
        ],
    }


_CONJ_INDEX = {"+": "-", "-": "+", "3": "3", "0": "0", "1": "1"}


def _build_reps(space):
    left = _base_left_reps(space)
    reps = {}
    for i, br in left.items():
        reps[(i, "left")] = br
    # left_bar: the hatted derivative with the conjugate index, via the
    # (+/- , q) -> (-/+, 1/q) transition
    for i, br in left.items():
        reps[(_CONJ_INDEX[i], "left_bar")] = _transform(br, swap_pm=True, invert_q=True)
    # right_bar from left, right from left_bar: the +/- swap plus a sign
    for i in left:
        reps[(_CONJ_INDEX[i], "right_bar")] = _transform(
            reps[(i, "left")], swap_pm=True, negate=True
        )
        reps[(_CONJ_INDEX[i], "right")] = _transform(
            reps[(i, "left_bar")], swap_pm=True, negate=True
        )
    return reps


_REPS = {"line": None, "euclid3": None}


def _reps(space):
    if _REPS[space] is None:
        _REPS[space] = _build_reps(space)
    return _REPS[space]


def act_partial_closed(index: str, variant: str, f: CFunction, space: str,
                       rep: str = "standard") -> CFunction:
    """Closed-form action of one partial derivative.

    'left'/'right_bar' act with the plain derivative, 'left_bar'/'right'
    with the hatted one, matching the four printed one-sided calculi.  rep
    names the normal ordering the argument represents: hatted-calculus
    operators are native to the reversed ordering and get conjugated by the
    ordering transport when applied to a standard-ordering representative.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    index = str(index)
    reps = _reps(space)
    try:
        branches = reps[(index, variant)]
    except KeyError:
        raise ValueError(f"unknown derivative index {index!r} for {space}")
    conjugated = (rep == "standard") == (variant in _REVERSED_NATIVE)
    if conjugated and space == "euclid3":
        f = reorder_transform(space, f, "to_reversed" if rep == "standard" else "to_standard")
        out = apply_branches(f, branches)
        return reorder_transform(
            space, out, "to_standard" if rep == "standard" else "to_reversed"
        )
    return apply_branches(f, branches)


# -- inverse derivatives ------------------------------------------------------


def _inverse_branches(space, index, degree3):
    """Branches for the left action of an inverse derivative; for the '-'
    direction the correction series is finite on polynomials, each term
    eating two powers of the 3-coordinate."""
    if space == "line":
        if index == "0":
            return [(ONE, (("classical_Dinv", "x0"),))]
        if index == "1":
            return [(ONE, (("Dinv", "x1", 1),))]
        raise ValueError(index)
    if index == "0":
        return [(ONE, (("classical_Dinv", "x0"),))]
    if index == "+":
        return [(ONE, (("Dinv", "xp", 4),))]
    if index == "3":
        # the inverse pairs with the q^2 base of the forward action
        return [(ONE, (("scale", "xp", -4), ("Dinv", "x3", 2)))]
    if index == "-":
        branches = []
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
    raise ValueError(index)


def act_inverse_partial(index: str, variant: str, f: CFunction, space: str,
                        rep: str = "standard") -> CFunction:
    """Left/right actions of the inverse partial derivatives on polynomials.

    The correction series terminates on polynomials, so the result is exact;
    the matching forward action returns the input (inverse property)."""
    index = str(index)
    conjugated = (rep == "standard") == (variant in _REVERSED_NATIVE)
    if conjugated and space == "euclid3":
        g = reorder_transform(space, f, "to_reversed" if rep == "standard" else "to_standard")
        out = act_inverse_partial(index, variant, g, space,
                                  rep="reversed" if rep == "standard" else "standard")
        return reorder_transform(
            space, out, "to_standard" if rep == "standard" else "to_reversed"
        )
    deg3 = f.degree("x3") if space == "euclid3" else 0
    base = {
        i: _inverse_branches(space, i, deg3 + 2)
        for i in (("0", "1") if space == "line" else ("0", "+", "3", "-"))
    }
    if variant == "left":
        branches = base[index]
    elif variant == "left_bar":
        branches = _transform(base[_CONJ_INDEX[index]], swap_pm=True, invert_q=True)
    elif variant == "right_bar":
        branches = _transform(base[_CONJ_INDEX[index]], swap_pm=True, negate=True)
    elif variant == "right":
        hat = _transform(base[_CONJ_INDEX[index]], swap_pm=True, invert_q=True)
        branches = _transform(hat, swap_pm=True, negate=True)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return apply_branches(f, branches)


# -- misc closed-form operations ----------------------------------------------


def jackson_d(f: CFunction, var: str, a: int) -> CFunction:
    return f.jackson_d(var, a)


def jackson_antiderivative(f: CFunction, var: str, a: int) -> CFunction:
    return f.jackson_antiderivative(var, a)


def scale_arg(f: CFunction, var: str, half_steps: int) -> CFunction:
    """The scaling-operator action: substitute var -> q^(half_steps/2) var."""
    return f.scale_var(var, half_steps)


def braided_product_line(f: CFunction, g: CFunction, variant: str) -> CFunction:
    """Braided product of line functions living on distinct tensor legs.

    Output variables are (y0, y1, x0, x1): the g-leg crosses to the left,
    and each monomial pair picks up q^{+/- deg_y1(g) deg_x1(f)}.
    """
    if f.vars != space_vars("line") or g.vars != space_vars("line"):
        raise ValueError("braided products are implemented for the line only")
    sign = {"L": -1, "Lbar": 1}[variant]
    out_vars = ("y0", "y1", "x0", "x1")
    out = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            factor = QScalar.q_power(2 * sign * eg[1] * ef[1])
            _add_term(out, (eg[0], eg[1], ef[0], ef[1]), cf * cg * factor)
    return CFunction(out_vars, out)


def is_qconstant(f: CFunction) -> bool:
    """Constant from the q-deformed point of view: both left derivative
    actions annihilate the function."""
    return (
        act_partial_closed("0", "left", f, "line").is_zero()
        and act_partial_closed("1", "left", f, "line").is_zero()
    )
