import itertools
import random

import pytest

from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, space_vars
from qspace.ncalgebra import NCElement, act, lift, lower
from qspace.qfunc import (
    act_inverse_partial,
    act_partial_closed,
    scale_arg,
)
from qspace.scalars import LAM, ONE, QScalar, qpow, scalar


def mono(vars_, exps, coeff=ONE):
    return CFunction.monomial(vars_, exps, coeff)


def test_jackson_derivative_examples():
    f = mono(LINE_VARS, (0, 2))
    assert f.jackson_d("x1", 1) == mono(LINE_VARS, (0, 1), ONE + qpow(1))
    g = mono(LINE_VARS, (3, 0))
    assert g.jackson_d("x1", 1).is_zero()


def test_jackson_matches_difference_quotient_numerically():
    rng = random.Random(13)
    q0 = 1.1
    for _ in range(100):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 4)): scalar(rng.randint(-5, 5))
            for _ in range(4)
        }
        f = CFunction(LINE_VARS, terms)
        a = rng.choice([1, 2, -1])
        df = f.jackson_d("x1", a)
        for x in (0.7, 1.3):
            fx = f.eval_float(q0, {"x0": 0.5, "x1": x})
            fqx = f.eval_float(q0, {"x0": 0.5, "x1": (q0 ** a) * x})
            quotient = (fqx - fx) / ((q0 ** a - 1) * x)
            got = df.eval_float(q0, {"x0": 0.5, "x1": x})
            assert abs(got - quotient) < 1e-12


def test_jackson_classical_limit():
    # at q = 1 the Jackson derivative is the ordinary one, degree <= 5
    for n0 in range(3):
        for n1 in range(6):
            f = mono(LINE_VARS, (n0, n1))
            got = f.jackson_d("x1", 1).eval_coeffs_exact(1)
            want = f.classical_d("x1").eval_coeffs_exact(1)
            assert got == want, (n0, n1)


def test_antiderivative_examples_and_inverse():
    one = CFunction.constant(LINE_VARS, 1)
    assert one.jackson_antiderivative("x1", 1) == mono(LINE_VARS, (0, 1))
    x = mono(LINE_VARS, (0, 1))
    assert x.jackson_antiderivative("x1", 1) == mono(
        LINE_VARS, (0, 2), ONE / (ONE + qpow(1))
    )
    rng = random.Random(17)
    for _ in range(20):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 6)): scalar(rng.randint(-4, 4))
            for _ in range(4)
        }
        f = CFunction(LINE_VARS, terms)
        assert f.jackson_antiderivative("x1", 2).jackson_d("x1", 2) == f


def test_closed_action_examples():
    f = mono(E3_VARS, (2, 0, 0, 0))
    got = act_partial_closed("0", "left", f, "euclid3")
    assert got == mono(E3_VARS, (1, 0, 0, 0), scalar(2))

    f = mono(E3_VARS, (0, 0, 2, 0))
    got = act_partial_closed("-", "left", f, "euclid3")
    assert got == mono(E3_VARS, (0, 1, 0, 0), LAM * (ONE + qpow(2)))

    f = mono(LINE_VARS, (0, 2))
    got = act_partial_closed("1", "right_bar", f, "line")
    assert got == mono(LINE_VARS, (0, 1), -(ONE + qpow(1)))


def test_generated_line_variants_match_printed_forms():
    # the substitution-generated representations must coincide with the
    # explicitly printed line formulas
    rng = random.Random(19)
    for _ in range(25):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 4)): scalar(rng.randint(-4, 4))
            for _ in range(3)
        }
        f = CFunction(LINE_VARS, terms)
        checks = [
            ("1", "left", f.jackson_d("x1", 1)),
            ("1", "left_bar", f.jackson_d("x1", -1)),
            ("1", "right", -f.jackson_d("x1", -1)),
            ("1", "right_bar", -f.jackson_d("x1", 1)),
            ("0", "left", f.classical_d("x0")),
            ("0", "left_bar", f.classical_d("x0")),
            ("0", "right", -f.classical_d("x0")),
            ("0", "right_bar", -f.classical_d("x0")),
        ]
        for idx, variant, want in checks:
            assert act_partial_closed(idx, variant, f, "line") == want, (idx, variant)


_DTAGS = {"line": {"0": "d0", "1": "d1"}, "euclid3": {"0": "d0", "+": "dp", "3": "d3", "-": "dm"}}
_HATP = {"line": 1, "euclid3": 6}


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_oracle_equivalence_low_degree(space):
    vars_ = space_vars(space)
    for idx, dtag in _DTAGS[space].items():
        for variant in ("left", "left_bar", "right", "right_bar"):
            D = NCElement.generator(space, dtag)
            if variant in ("left_bar", "right") and idx != "0":
                D = D.scale(qpow(_HATP[space]))
            for e in itertools.product(range(3), repeat=len(vars_)):
                if sum(e) > 2:
                    continue
                f = CFunction.monomial(vars_, e)
                closed = act_partial_closed(idx, variant, f, space)
                oracle = lower(space, act(D, lift(space, f), variant))
                assert closed == oracle, (idx, variant, e)


def test_inverse_examples():
    one = CFunction.constant(E3_VARS, 1)
    assert act_inverse_partial("+", "left", one, "euclid3") == mono(E3_VARS, (0, 1, 0, 0))
    assert act_inverse_partial("-", "left", one, "euclid3") == mono(E3_VARS, (0, 0, 0, 1))


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_inverse_property(space):
    rng = random.Random(23)
    vars_ = space_vars(space)
    indices = list(_DTAGS[space])
    for _ in range(30):
        exps = tuple(rng.randint(0, 2) for _ in vars_)
        if sum(exps) > 4:
            continue
        f = CFunction.monomial(vars_, exps, scalar(rng.randint(1, 3)))
        for idx in indices:
            for variant in ("left", "left_bar", "right", "right_bar"):
                g = act_inverse_partial(idx, variant, f, space)
                assert act_partial_closed(idx, variant, g, space) == f, (idx, variant, exps)


def test_scale_arg():
    f = mono(LINE_VARS, (0, 2))
    assert scale_arg(f, "x1", 2) == mono(LINE_VARS, (0, 2), qpow(2))
    assert scale_arg(f, "x1", 0) == f
    assert scale_arg(scale_arg(f, "x1", 2), "x1", -2) == f


def test_scale_commutes_with_jackson():
    # D_{q^a}(f(q^s x)) = q^s (D_{q^a} f)(q^s x) on monomials
    for n in range(1, 5):
        f = mono(LINE_VARS, (0, n))
        for a in (1, 2, -1):
            for s in (2, 4, -2):
                lhs = scale_arg(f, "x1", s).jackson_d("x1", a)
                rhs = scale_arg(f.jackson_d("x1", a), "x1", s).scale(QScalar.q_power(s))
                assert lhs == rhs, (n, a, s)


def test_qconstant():
    # q-constant: both left derivative actions annihilate the function
    def qconstant(f):
        return (act_partial_closed("0", "left", f, "line").is_zero()
                and act_partial_closed("1", "left", f, "line").is_zero())

    assert qconstant(CFunction.constant(LINE_VARS, 5))
    assert not qconstant(mono(LINE_VARS, (0, 1)))
    assert not qconstant(mono(LINE_VARS, (1, 0)) + mono(LINE_VARS, (0, 1)))
