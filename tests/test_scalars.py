import math
import random
from fractions import Fraction

import pytest

from qspace import scalars
from qspace.scalars import (
    DivisionByZero,
    GaussianRational,
    I,
    LAM,
    LAMP,
    ONE,
    PoleError,
    Q,
    QScalar,
    ZERO,
    qbinom,
    qfact,
    qnum,
    qpow,
    scalar,
)


def test_lambda_product():
    # (q - 1/q)(q + 1/q) = q^2 - q^-2
    assert LAM * LAMP == qpow(2) - qpow(-2)


def test_additive_identity_and_cancellation():
    a = (Q + ONE) / (Q * Q - scalar(3))
    assert a + ZERO == a
    assert (ONE + Q) / (ONE + Q) == ONE


def test_division_by_zero_is_distinct_error():
    with pytest.raises(DivisionByZero, match="division by zero scalar"):
        ONE / ZERO
    with pytest.raises(DivisionByZero, match="division by zero scalar"):
        1 / ZERO
    with pytest.raises(DivisionByZero, match="zero denominator"):
        QScalar({0: 1}, {1: 0})


def test_the_constructor_cancels_like_a_quotient():
    # (s^4 - 1) / (2 s^3 - 2 s) = (s^2 + 1) / (2 s): the s-power and the
    # common factor s^2 - 1 leave the denominator, which is then the shared 1
    x = QScalar({4: 1, 0: -1}, {3: 2, 1: -2})
    assert x == (Q * Q - 1) / (QScalar.q_power(1) * (Q - 1) * 2)
    assert dict(x.num) == {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    assert x._d is scalars._P_ONE
    y = QScalar({0: 3}, {0: 1, 2: GaussianRational(0, 2)})
    assert y == 3 / (1 + 2 * I * Q)
    assert dict(y.den) == {0: GaussianRational(0, Fraction(-1, 2)), 2: 1}


def test_qnum_examples():
    assert qnum(0, 1) == ZERO
    assert qnum(2, 1) == ONE + Q
    assert qnum(3, 2) == ONE + qpow(2) + qpow(4)


def test_qnum_negative_base():
    assert qnum(2, -1) == ONE + qpow(-1)


def test_qnum_rejects_bad_input():
    with pytest.raises(ValueError):
        qnum(-1, 1)
    with pytest.raises(ValueError):
        qnum(2, 0)


def test_qfact_examples():
    assert qfact(0, 1) == ONE
    assert qfact(2, 1) == (ONE + Q)


def test_eval_examples():
    assert LAM.eval_exact(1) == GaussianRational(0)
    assert qnum(3, 1).eval_exact(1) == GaussianRational(3)
    assert abs(qnum(2, 1).eval_float(1.1) - 2.1) < 1e-12


def test_eval_pole():
    x = ONE / (Q - ONE)
    with pytest.raises(PoleError):
        x.eval_exact(1)


def test_qnum_telescoping_identity():
    # [[n]]_{q^a} (1 - q^a) = 1 - q^{an}
    for n in range(1, 9):
        for a in (-3, -1, 1, 2, 4):
            lhs = qnum(n, a) * (ONE - qpow(a))
            rhs = ONE - qpow(a * n)
            assert lhs == rhs, (n, a)


def test_classical_limit_of_qnumbers():
    for n in range(21):
        for a in range(-4, 5):
            if a == 0:
                continue
            assert qnum(n, a).eval_exact(1) == GaussianRational(n)


def _random_scalar(rng):
    num = {rng.randint(-4, 4): GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                                Fraction(rng.randint(-2, 2)))
           for _ in range(rng.randint(1, 3))}
    den = {0: GaussianRational(1), rng.randint(1, 3): GaussianRational(rng.randint(1, 3))}
    try:
        return QScalar(num, den)
    except DivisionByZero:
        return ONE


def test_field_axioms_on_random_sample():
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_half_powers_and_q_inversion():
    half = QScalar.q_power(1)
    assert half * half == Q
    x = (Q - qpow(-1)) / (Q + ONE)
    y = x.subs_q_inverse().subs_q_inverse()
    assert x == y


def test_conjugation_is_involutive_and_fixes_q():
    z = (Q * I + ONE) / (Q - scalar(3))
    assert z.conj().conj() == z
    assert Q.conj() == Q
    assert I.conj() == -I


def test_rendering_matches_reduced_fraction_style():
    assert str((Q * Q - ONE) / Q) == "q - q^-1"
    assert str(ONE / (Q + ONE)) == "1/(q + 1)"
    assert str(qpow(-2)) == "q^-2"


def test_reflected_operators_with_ints_and_fractions():
    assert 2 * Q == Q + Q == Q * 2
    assert 1 - Q == ONE - Q
    assert 1 / Q == qpow(-1)
    assert 3 / (ONE + Q) == scalar(3) / (ONE + Q)
    assert 1 + Q == Q + 1 == ONE + Q
    assert Fraction(1, 2) * Q == Q / 2 == Q * Fraction(1, 2)
    assert Fraction(1, 3) - ONE == scalar(Fraction(-2, 3))
    assert Fraction(1, 2) / Q == QScalar.q_power(-2) / 2
    assert Q - Fraction(1, 2) == Q - scalar(Fraction(1, 2))


def test_equality_with_ints_and_fractions():
    assert ONE == Fraction(1) and Fraction(1) == ONE
    assert ONE == 1 and 1 == ONE
    assert Q / Q == Fraction(1)
    assert Q != Fraction(1) and Q != 1
    assert scalar(Fraction(3, 4)) == Fraction(3, 4)
    assert ZERO == 0 and ZERO == Fraction(0)
    assert I != 0 and I != Fraction(0)
    assert ONE != "1"


def test_rational_constants_hash_like_ints_and_fractions():
    assert hash(ONE) == hash(1)
    assert hash(ZERO) == hash(0)
    assert hash(scalar(-5)) == hash(-5)
    assert hash(scalar(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(Q / Q) == hash(1)
    assert len({ONE, 1, Fraction(1), Q / Q}) == 1
    assert {Fraction(1, 2): "half"}[scalar(Fraction(1, 2))] == "half"


def test_real_gaussian_rationals_hash_like_ints_and_fractions():
    assert ONE.eval_exact(1) == 1
    assert len({ONE.eval_exact(1), 1}) == 1
    assert hash(GaussianRational(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(GaussianRational(-5, 0)) == hash(-5)
    assert {Fraction(1, 2): "half"}[GaussianRational(Fraction(1, 2))] == "half"
    # a nonzero imaginary part still hashes the pair
    assert GaussianRational(1, 1) != 1
    assert hash(GaussianRational(2, 3)) == hash(GaussianRational(Fraction(4, 2), 3))


def test_gaussian_rationals_are_integer_first():
    g = GaussianRational(Fraction(4, 2), 3)
    assert type(g.re) is int and type(g.im) is int
    h = GaussianRational(Fraction(1, 2)) * GaussianRational(2)
    assert type(h.re) is int and h.re == 1
    third = GaussianRational(3).inverse()
    assert type(third.re) is Fraction and third.re == Fraction(1, 3)
    assert GaussianRational(1, 1).inverse() == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert type(GaussianRational(-2).inverse().inverse().re) is int
    # compare and hash like the Fraction form; repr keeps printing Fractions
    assert g == GaussianRational(Fraction(2), Fraction(3))
    assert hash(g) == hash(GaussianRational(Fraction(2), Fraction(3)))
    assert GaussianRational(2) == Fraction(2) and GaussianRational(2) == 2
    assert repr(GaussianRational(2)) == "GaussianRational(Fraction(2, 1), Fraction(0, 1))"
    assert all(type(c) is int for c in ((Q * Q - ONE) / (Q - ONE)).num.values())


def test_fast_paths_agree_with_general_construction():
    # products and sums of denominator-1 scalars skip canonicalisation; the
    # general constructor, given the same parts, must change nothing
    rng = random.Random(3)
    xs = [_random_scalar(rng) for _ in range(40)] + [ONE + Q, LAM, LAMP, Q, -I]
    for a in xs:
        for b in xs[:12]:
            for r in (a + b, a - b, a * b) + ((a / b,) if b else ()):
                again = QScalar(r.num, r.den)
                assert (again.num, again.den) == (r.num, r.den)


def test_sum_over_shared_denominator_cancels_the_shared_factor():
    # p/(f g) + (f w - p)/(f g) = w/g: the numerator of the cross sum shares
    # the factor f with the denominators, and the sum must drop it
    f, g, w, p = ONE + Q, Q - scalar(3), Q * Q + I, QScalar.q_power(-1) + scalar(2)
    a = p / (f * g)
    b = (f * w - p) / (f * g)
    total = a + b
    assert total == w / g
    assert (total.num, total.den) == ((w / g).num, (w / g).den)
    assert len(total.den) == 2


def test_integer_powers():
    assert Q ** 0 == ONE and ZERO ** 0 == ONE
    assert Q ** 3 == Q * Q * Q == qpow(3)
    assert QScalar.q_power(1) ** 2 == Q
    x = (ONE + Q) / (Q - scalar(3))
    assert x ** 5 == x * x * x * x * x
    assert x ** -2 == ONE / (x * x)
    assert Q ** -1 == qpow(-1)
    assert scalar(Fraction(2, 3)) ** -3 == Fraction(27, 8)
    assert I ** 4 == ONE and I ** 2 == -ONE
    with pytest.raises(DivisionByZero):
        ZERO ** -1
    with pytest.raises(TypeError):
        Q ** 0.5
    with pytest.raises(TypeError):
        Q ** Q


def test_equality_with_floats_is_exact():
    assert ONE == 1.0 and 1.0 == ONE
    assert ZERO == 0.0 and ZERO == -0.0
    assert scalar(Fraction(3, 4)) == 0.75
    assert scalar(Fraction(1, 3)) != 1 / 3  # the float is not exactly 1/3
    assert Q != 1.0 and I != 0.0
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert ONE != bad and not (ONE == bad)
    # == agrees with hash, as for int, Fraction and float themselves
    assert hash(ONE) == hash(1.0) and hash(scalar(Fraction(1, 2))) == hash(0.5)
    assert len({ONE, 1.0, 1, Fraction(1)}) == 1


@pytest.mark.parametrize("a", [1, -1, 2, -2, 4, -4])
def test_qbinom_is_the_factorial_quotient(a):
    for n in range(13):
        for k in range(n + 1):
            want = qfact(n, a) / (qfact(k, a) * qfact(n - k, a))
            got = qbinom(n, k, a)
            assert got == want, (n, k, a)
            assert got == qbinom(n, n - k, a)
            assert len(got.den) == 1 and got.den == ONE.den
            assert got.eval_exact(1) == math.comb(n, k)


def _pascal_rows(n_max, a):
    """Every [[m over j]]_{q^a} for m <= n_max as int dicts, row by row, by
    the Pascal recurrence C(m, j) = C(m-1, j-1) + q^(a j) C(m-1, j) that
    qbinom used before its recurrence along k."""
    row = [{0: 1}]
    rows = [row]
    for _ in range(n_max):
        nxt = [{0: 1}]
        for j in range(1, len(row)):
            c = dict(row[j - 1])
            for e, v in row[j].items():
                e += 2 * a * j
                c[e] = c.get(e, 0) + v
            nxt.append(c)
        row = nxt + [{0: 1}]
        rows.append(row)
    return rows


@pytest.mark.parametrize("a", [1, -2, 4, -4])
def test_qbinom_matches_the_pascal_recurrence(a):
    # every k of every n <= 60, from emptied memos, in a shuffled order of k:
    # a k builds every j below it that is not cached yet, stepping on from
    # the cached ones
    rows = _pascal_rows(60, a)
    rng = random.Random(34 + a)
    scalars._clear_memos()
    for n, row in enumerate(rows):
        ks = list(range(n + 1))
        rng.shuffle(ks)
        for k in ks:
            got = qbinom(n, k, a)
            assert got._n == row[k] and got._d is scalars._P_ONE, (n, k, a)


def test_qbinom_outside_the_range_is_zero():
    assert qbinom(3, -1) == ZERO
    assert qbinom(3, 4, -2) == ZERO
    assert qbinom(0, 0) == ONE
    with pytest.raises(ValueError):
        qbinom(-1, 0)
    with pytest.raises(ValueError):
        qbinom(2, 1, 0)


def test_qbinom_is_iterative():
    # deep rows must not recurse: [[1500 over 2]]_{q^4} directly
    got = qbinom(1500, 2, 4)
    # at q = 1 every power of q is 1: the coefficients sum to the binomial
    assert sum(got.num.values()) == math.comb(1500, 2)
    assert got == qbinom(1500, 1498, 4)


def test_parts_are_read_only():
    x = (Q + scalar(Fraction(1, 2), 1)) / (Q + 3)
    assert Q.num == {2: 1} and I.num[0] == GaussianRational(0, 1)
    for part in (x.num, x.den, Q.num, ONE.den, ZERO.num, I.num):
        with pytest.raises(TypeError):
            part[0] = 2
        with pytest.raises(TypeError):
            del part[next(iter(part), 0)]
    with pytest.raises(AttributeError):
        x.num = {0: 1}
    # the shown parts still rebuild the scalar
    again = QScalar(x.num, x.den)
    assert again == x and (again.num, again.den) == (x.num, x.den)


def test_mutating_a_shared_part_cannot_corrupt_later_results():
    # the denominator 1 is one dict shared by every polynomial scalar
    x = qpow(1) + 1
    with pytest.raises(TypeError):
        x.den[0] = 2
    assert ((Q + 1) * (Q + 1)).eval_exact(1) == 4
