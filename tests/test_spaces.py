"""The per-space table: every derived name, order and map pinned to the
literals it replaces, and one error for an unknown space.  The same for the
calculus table and the per-layer tables derived from it, and one error for
any other unknown string option."""

import importlib
import inspect
import pkgutil

import pytest

import qspace

from qspace import cfunc, cli, evolution, grassmann, hopf, ncalgebra, pairexp, qfunc, rmatrix
from qspace import spaces, suites
from qspace.cfunc import CFunction, E3_VARS
from qspace.evolution import free_hamiltonian
from qspace.expressions import parse
from qspace.hopf import _dword_seq, translate
from qspace.ncalgebra import NCElement, normal_form, reorder_transform
from qspace.pairexp import qexp
from qspace.qfunc import act_inverse_partial, act_partial_closed
from qspace.rmatrix import build_R
from qspace.starcalc import StarContext, star
from test_ncalgebra import conjugate_word_formal

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
    lambda s: conjugate_word_formal(s, ("xp",)),
], ids=[
    "free_hamiltonian", "act_inverse_partial", "act_partial_closed", "generator", "one",
    "normal_form", "translate", "qexp", "build_R", "parse", "star", "StarContext",
    "reorder_transform", "space_vars", "labels", "eigenvalues", "conjugate_word_formal",
])
def test_unknown_space_raises_one_error(call):
    with pytest.raises(ValueError, match=r"^unknown space 'foo'$"):
        call("foo")


# -- string options -------------------------------------------------------------

# the parameter names that take a string option; a parameter with a string
# default takes one too.  `space` is left to the test above
_OPTION_NAMES = {
    "bounds", "calculus", "direction", "form", "index", "kind", "mode", "name", "ordering",
    "rep", "variant",
}
# parameters of those names that take free text or fill a record, not an option
_NOT_OPTIONS = {
    "cfunc.lattice_sum.name",  # a variable of the summed function
    "expressions.Value.kind",  # the kind the parser found
    "pairexp.TensorSeries.variant",  # the record qexp fills
    "reports.VerificationReport.status",
}
# a valid value for each other option of a function that takes several
_VALID = {"space": E3, "index": "+", "variant": "left"}
_VALID_BY_FUNCTION = {"pair": {"variant": "L_Rbar"}}


def _string_options():
    """(function, option) for every string option of a public function or
    class of the package, found from the signatures."""
    for info in pkgutil.iter_modules(qspace.__path__):
        module = importlib.import_module(f"qspace.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            for p in params:
                key = f"{info.name}.{name}.{p.name}"
                if key not in _NOT_OPTIONS and p.name != "space" and (
                        p.name in _OPTION_NAMES or isinstance(p.default, str)):
                    yield pytest.param(obj, p.name, id=key)


_STRING_OPTIONS = list(_string_options())


def test_the_walk_finds_the_string_options():
    found = {p.id for p in _STRING_OPTIONS}
    assert len(found) >= 26
    assert {
        "pairexp.kronecker_check.variant", "evolution.integrate_whole_line.variant",
        "evolution.integrate_whole_e3.variant", "evolution.sesquilinear_line.form",
        "ncalgebra.rewrite_strategy.name", "qfunc.act_partial_closed.rep",
    } <= found


@pytest.mark.parametrize("fn, option", _STRING_OPTIONS)
@pytest.mark.parametrize("value", ["bogus", "1bogus"])
def test_a_bogus_string_option_is_rejected_before_any_work(fn, option, value):
    # every other argument without a default is None, so any work done
    # before the check fails with another error; "1bogus" catches a check
    # that reads only a value's first character
    valid = {**_VALID, **_VALID_BY_FUNCTION.get(fn.__name__, {})}
    kwargs = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name == option:
            kwargs[p.name] = value
        elif p.name in valid:
            kwargs[p.name] = valid[p.name]
        elif p.default is p.empty:
            kwargs[p.name] = None
    with pytest.raises(ValueError, match=rf"^unknown [\w -]+ '{value}'"):
        fn(**kwargs)


# -- the calculus table --------------------------------------------------------

# the per-layer tables the calculus table replaced, restated verbatim
_MODE_CALCULUS = {"left": "u", "left_bar": "h", "right": "h", "right_bar": "u"}
_REVERSED_NATIVE = ("left_bar", "right")
_PAIR_MODES = {
    ("L_Rbar", True): "left",
    ("Lbar_R", True): "left_bar",
    ("L_Rbar", False): "right_bar",
    ("Lbar_R", False): "right",
}
_VARIANT_PARAMS = {"Lbar": (1, False), "L": (-1, True), "Rbar": (1, True), "R": (-1, False)}
# (base sign, +/- mirror): the hatted calculus takes the inverse bases, and
# the mirror holds for the hatted left and the plain right mode
_SUBSTITUTION = {
    "left": (1, False), "left_bar": (-1, True), "right": (-1, False), "right_bar": (1, True),
}
_IDENTITY_SETUPS = (
    ("x_d", "Lbar", "left", "standard"),
    ("x_dhat", "L", "left_bar", "reversed"),
    ("d_x", "Rbar", "right_bar", "standard"),
    ("dhat_x", "R", "right", "reversed"),
)
_GEOMETRIES = {
    "L": ("left", 1, 1),
    "Lbar": ("left_bar", -1, 1),
    "R": ("right", -1, -1),
    "Rbar": ("right_bar", 1, -1),
}
_COORD_FIRST_EXP = [((), (), 1), (("th1",), ("dth1",), 1)]
_DERIV_FIRST_EXP = [((), (), 1), (("dth1",), ("th1",), -1)]
_EXPONENTIALS = {
    "x_d": _COORD_FIRST_EXP,
    "x_dhat": _COORD_FIRST_EXP,
    "d_x": _DERIV_FIRST_EXP,
    "dhat_x": _DERIV_FIRST_EXP,
}
_ACTION_NAMES = {
    "left": "left", "left_bar": "left_bar", "right": "right",
    "right_bar": "right_bar", "leftbar": "left_bar", "rightbar": "right_bar",
}
_EXP_NAMES = {"xd": "x_d", "xdh": "x_dhat", "dx": "d_x", "dhx": "dhat_x"}


def _recording(monkeypatch, module, name, pick):
    """Wrap module.name so that every call appends pick(*args) to the
    returned list."""
    seen = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(pick(*args, **kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_calculus_tables_match_the_literals_they_replace():
    modes = ("left", "left_bar", "right", "right_bar")
    assert ncalgebra.ACTION_MODES == qfunc.VARIANTS == modes
    assert pairexp.EXP_VARIANTS == ("x_d", "x_dhat", "d_x", "dhat_x")
    assert hopf.TRANSLATE_VARIANTS == ("L", "Lbar", "R", "Rbar")
    _same(spaces.SUBSTITUTION, _SUBSTITUTION)
    assert hopf._VARIANT_PARAMS == _VARIANT_PARAMS
    assert hopf._IDENTITY_SETUPS == _IDENTITY_SETUPS
    # the geometry order is the order of sesquilinear_line's per-geometry dict
    _same(evolution._GEOMETRIES, _GEOMETRIES)
    assert {v: grassmann.g_exponential(v) for v in grassmann._EXPONENTIALS} == _EXPONENTIALS
    assert cli._ACTION_NAMES == _ACTION_NAMES
    assert cli._EXP_NAMES == _EXP_NAMES


def test_actions_run_in_the_calculi_the_replaced_literals_named(monkeypatch):
    # the action's rule set is an opposite one; the mirror transport's
    # normal ordering reads a plain one
    rule_sets = _recording(monkeypatch, ncalgebra, "_ruleset",
                           lambda space, calculus, opposite: (calculus, opposite))
    transports = _recording(monkeypatch, ncalgebra, "_transport_image",
                            lambda space, name, key: name)
    op = NCElement.generator(E3, "dp")
    f = NCElement.generator(E3, "xp")
    for mode in ncalgebra.ACTION_MODES:
        rule_sets.clear()
        transports.clear()
        ncalgebra.act(op, f, mode)
        calculi = [calculus for calculus, opposite in rule_sets if opposite]
        assert calculi == [_MODE_CALCULUS[mode]], mode
        assert ("mirror" in transports) == (not mode.startswith("left")), mode


def test_closed_forms_transport_the_orderings_the_replaced_literal_named(monkeypatch):
    transports = _recording(monkeypatch, qfunc, "_transport_image",
                            lambda space, direction, key: direction)
    for variant in qfunc.VARIANTS:
        for rep in ("standard", "reversed"):
            transports.clear()
            act_partial_closed("+", variant, _F, E3, rep=rep)
            native = "reversed" if variant in _REVERSED_NATIVE else "standard"
            assert bool(transports) == (rep != native), (variant, rep)
            if transports:
                # into the native ordering first, then back
                assert transports[0] == "to_" + native, (variant, rep)
                assert set(transports) == {"to_" + native, "to_" + rep}, (variant, rep)


def test_pairings_act_in_the_modes_the_replaced_literal_named(monkeypatch):
    modes = _recording(monkeypatch, pairexp, "act", lambda u, v, mode: mode)
    u = NCElement.generator(E3, "dp")
    v = NCElement.generator(E3, "xp")
    for (variant, deriv_first), want in _PAIR_MODES.items():
        modes.clear()
        pairexp.pair(E3, variant, u, v, "deriv_first" if deriv_first else "coord_first")
        assert modes == [want], (variant, deriv_first)
    for variant in pairexp.EXP_VARIANTS:
        modes.clear()
        pairexp.kronecker_check(LINE, variant, 1)
        hat = variant in ("x_dhat", "dhat_x")
        deriv_first = variant in ("d_x", "dhat_x")
        assert set(modes) == {_PAIR_MODES[("Lbar_R" if hat else "L_Rbar", not deriv_first)]}
