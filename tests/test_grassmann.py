import pytest

from qspace import grassmann
from qspace.cli import main
from qspace.grassmann import (
    GElement,
    SuperNumber,
    g_antipode,
    g_delta,
    g_deriv_int,
    g_exponential,
    g_normal_form,
    g_pairing,
    g_translate,
    grassmann_suite,
)
from qspace.scalars import ONE, ZERO, qpow, scalar


def test_nilpotency_and_antisymmetry():
    assert g_normal_form(("th1", "th1")).is_zero()
    assert g_normal_form(("th0", "th0")).is_zero()
    got = g_normal_form(("th1", "th0"))
    assert got == g_normal_form(("th0", "th1")).scale(-1)
    assert g_normal_form(()) == GElement.one()


def test_leibniz_rules():
    got = g_normal_form(("dth1", "th1"))
    want = GElement.one() + g_normal_form(("th1", "dth1")).scale(-qpow(1))
    assert got == want
    goth = g_normal_form(("dth1", "th1"), hatted=True)
    wanth = GElement.one() + g_normal_form(("th1", "dth1")).scale(-qpow(-1))
    assert goth == wanth


def test_supernumber_actions():
    f = SuperNumber(scalar(3), scalar(5))
    assert g_deriv_int(f, "left") == scalar(5)
    assert g_deriv_int(f, "left_bar") == scalar(5)
    assert g_deriv_int(f, "right") == -scalar(5)
    assert g_deriv_int(f, "right_bar") == -scalar(5)
    const = SuperNumber(scalar(3), ZERO)
    assert g_deriv_int(const, "left") == ZERO
    # integration coincides with differentiation
    for mode in ("left", "left_bar", "right", "right_bar"):
        assert g_deriv_int(f, mode, as_integral=True) == g_deriv_int(f, mode)


def test_integrals_pair_in_the_calculus_of_their_mode(monkeypatch):
    # the plain calculus carries left and right_bar, the hatted one
    # left_bar and right, as in every other layer
    seen = []
    inner = grassmann._pair

    def recording(d, th, hatted, coord_first=False):
        seen.append(hatted)
        return inner(d, th, hatted, coord_first)

    monkeypatch.setattr(grassmann, "_pair", recording)
    f = SuperNumber(scalar(3), scalar(5))
    modes = ("left", "left_bar", "right", "right_bar")
    for mode in modes:
        g_deriv_int(f, mode, as_integral=True)
    assert dict(zip(modes, seen)) == {
        "left": False, "left_bar": True, "right": True, "right_bar": False,
    }


def test_translation_and_antipode():
    f = SuperNumber(scalar(2), scalar(7))
    body, soul_th, soul_psi = g_translate(f)
    assert (body, soul_th, soul_psi) == (f.body, f.soul, f.soul)
    assert g_antipode(f) == SuperNumber(scalar(2), -scalar(7))
    assert g_antipode(g_antipode(f)) == f
    const = SuperNumber(scalar(2), ZERO)
    assert g_antipode(const) == const


def test_pairings():
    for kind in ("plain", "hat"):
        vals = g_pairing(kind)
        for i in (0, 1):
            for j in (0, 1):
                assert vals[(i, j)] == (ONE if i == j else ZERO)
    for kind in ("coord_first", "coord_first_hat"):
        vals = g_pairing(kind)
        for i in (0, 1):
            for j in (0, 1):
                assert vals[(i, j)] == (-ONE if i == j else ZERO)


def test_unknown_pairing_kind_or_variant_raises():
    with pytest.raises(ValueError, match="unknown pairing kind 'hatted'"):
        g_pairing("hatted")
    with pytest.raises(ValueError, match="unknown variant 'x_D'"):
        g_exponential("x_D")


def test_exponentials_and_deltas():
    for variant in ("x_d", "x_dhat", "d_x", "dhat_x"):
        terms = g_exponential(variant)
        assert len(terms) == 2  # nilpotency truncates immediately
        delta = g_delta(variant)
        assert delta.body == ZERO and delta.soul == ONE


def test_full_suite():
    assert grassmann_suite().passed


def test_a_planted_antipode_fault_prints_the_failing_supernumbers(monkeypatch, capsys):
    # an antipode that doubles the soul breaks only the involution; the text
    # report prints both supernumbers, the one place SuperNumber.__str__ runs
    monkeypatch.setattr(grassmann, "g_antipode", lambda f: SuperNumber(f.body, -2 * f.soul))
    assert main(["verify", "grassmann"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] grassmann [line] (1 failing)\n"
        "    at antipode involution: (3) + (20) th1 != (3) + (5) th1\n")


@pytest.mark.parametrize("other", [1, 0, None, "0", ZERO, (ZERO, ZERO)])
def test_supernumber_equals_no_other_type(other):
    f = SuperNumber()
    assert not (f == other) and f != other
    assert not (other == f) and other != f
    assert f == SuperNumber(ZERO, ZERO) and f != SuperNumber(ZERO, ONE)
