"""The per-space table: every derived name, order and map pinned to the
literals it replaces, and one error for an unknown space."""

import pytest

from qspace import cfunc, ncalgebra, rmatrix, spaces, suites
from qspace.cfunc import CFunction, E3_VARS
from qspace.evolution import free_hamiltonian
from qspace.expressions import parse
from qspace.hopf import _dword_seq, translate
from qspace.ncalgebra import NCElement, normal_form, reorder_transform
from qspace.pairexp import qexp
from qspace.qfunc import act_inverse_partial, act_partial_closed
from qspace.rmatrix import build_R
from qspace.starcalc import StarContext, star

LINE, E3 = "line", "euclid3"


def _same(got, want):
    """Equal element by element and in the same order, nested dicts too."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            _same(got[k], want[k])
    else:
        assert got == want


def test_generator_tuples_and_key_layout():
    _same(spaces.X_TOKENS, {LINE: ("x0", "x1"), E3: ("x0", "xp", "x3", "xm")})
    _same(spaces.REVERSED, {LINE: ("x0", "x1"), E3: ("x0", "xm", "x3", "xp")})
    _same(spaces.D_TOKENS, {LINE: ("d0", "d1"), E3: ("d0", "dm", "d3", "dp")})
    _same(spaces.HAT_D_TOKENS, {LINE: ("d0", "d1"), E3: ("d0", "dp", "d3", "dm")})
    _same(spaces.SPATIAL_D, {LINE: ("d1",), E3: ("dp", "d3", "dm")})
    # the stored key order: reordering it would change every printed element
    _same(spaces.KEY_LAYOUT, {
        LINE: ("x0", "x1", "d0", "d1"),
        E3: ("x0", "xp", "x3", "xm", "d0", "dm", "d3", "dp"),
    })
    _same(spaces.HAT_POWER, {LINE: 1, E3: 6})
    assert spaces.SPACES == (LINE, E3)


def test_names_labels_and_mirror():
    _same(spaces.PRINT_NAMES, {
        LINE: {"x0": "X0", "x1": "X1", "d0": "d0", "d1": "d1"},
        E3: {
            "x0": "X0", "xp": "Xp", "x3": "X3", "xm": "Xm",
            "d0": "d0", "dp": "dp", "d3": "d3", "dm": "dm",
        },
    })
    _same(spaces.Y_OF, {"x0": "y0", "x1": "y1", "xp": "yp", "x3": "y3", "xm": "ym"})
    _same(spaces.LABELS, {LINE: ("0", "1"), E3: ("0", "+", "3", "-")})
    _same(spaces.D_OF_LABEL, {
        LINE: {"0": "d0", "1": "d1"},
        E3: {"0": "d0", "+": "dp", "3": "d3", "-": "dm"},
    })
    _same(spaces.PM_SWAP, {"xp": "xm", "xm": "xp", "dp": "dm", "dm": "dp"})
    _same(spaces.PM_LABEL_SWAP, {"+": "-", "-": "+"})
    _same(spaces.SUFFIX_LABEL, {"p": "+", "m": "-"})


def test_derivative_word_sequences():
    want = {
        LINE: (("0", "x0"), ("1", "x1")),
        E3: (("0", "x0"), ("-", "xm"), ("3", "x3"), ("+", "xp")),
        (E3, True): (("0", "x0"), ("+", "xp"), ("3", "x3"), ("-", "xm")),
    }
    assert _dword_seq(LINE, False) == _dword_seq(LINE, True) == want[LINE]
    assert _dword_seq(E3, False) == want[E3]
    assert _dword_seq(E3, True) == want[(E3, True)]


def test_importable_names_are_the_table_itself():
    assert ncalgebra.X_TOKENS is spaces.X_TOKENS
    assert ncalgebra.D_TOKENS is spaces.D_TOKENS
    assert ncalgebra.KEY_LAYOUT is spaces.KEY_LAYOUT
    assert ncalgebra.HAT_POWER is spaces.HAT_POWER
    assert suites.SPACES is spaces.SPACES
    assert cfunc.LINE_VARS is spaces.X_TOKENS[LINE]
    assert cfunc.E3_VARS is spaces.X_TOKENS[E3]
    for s in spaces.SPACES:
        assert cfunc.space_vars(s) is spaces.X_TOKENS[s]
        assert rmatrix.labels(s) is spaces.LABELS[s]


_F = CFunction.monomial(E3_VARS, (0, 1, 0, 0))


@pytest.mark.parametrize("call", [
    lambda s: free_hamiltonian(s),
    lambda s: act_inverse_partial("+", "left", _F, s),
    lambda s: act_partial_closed("+", "left", _F, s),
    lambda s: NCElement.generator(s, "xp"),
    lambda s: NCElement.one(s),
    lambda s: normal_form(s, ("xp",)),
    lambda s: translate(s, "L", _F),
    lambda s: qexp(s, "x_d", 2),
    lambda s: build_R(s),
    lambda s: parse("xp", s),
    lambda s: star(StarContext(s), _F, _F),
    lambda s: StarContext(s),
    lambda s: reorder_transform(s, _F, "to_reversed"),
    lambda s: cfunc.space_vars(s),
    lambda s: rmatrix.labels(s),
    lambda s: rmatrix.eigenvalues(s),
    lambda s: ncalgebra.conjugate_word_formal(s, ("xp",)),
], ids=[
    "free_hamiltonian", "act_inverse_partial", "act_partial_closed", "generator", "one",
    "normal_form", "translate", "qexp", "build_R", "parse", "star", "StarContext",
    "reorder_transform", "space_vars", "labels", "eigenvalues", "conjugate_word_formal",
])
def test_unknown_space_raises_one_error(call):
    with pytest.raises(ValueError, match=r"^unknown space 'foo'$"):
        call("foo")
