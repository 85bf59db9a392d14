"""The shared sparse linear-combination core behind CFunction, NCElement
and GElement: zero terms never survive, frames are checked, and only
CFunction is hashable."""

import pytest

from qspace.cfunc import CFunction
from qspace.grassmann import GElement
from qspace.ncalgebra import NCElement, SpaceMismatch
from qspace.scalars import ONE, scalar


def test_embed_drops_renamed_variables_that_cancel():
    f = CFunction(("a", "b"), {(1, 0): ONE, (0, 1): -ONE})
    g = f.embed(("z",), {"a": "z", "b": "z"})
    assert g.is_zero() and str(g) == "0"


def test_restrict_drops_renamed_variables_that_cancel():
    f = CFunction(("a", "b", "c"), {(1, 0, 0): ONE, (0, 1, 0): -ONE, (0, 0, 0): scalar(2)})
    assert f.restrict(("z",), {"a": "z", "b": "z"}) == CFunction.constant(("z",), 2)


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
    for unhashable in (a, GElement.gen("th1")):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_zero_results_are_empty():
    a = NCElement.generator("euclid3", "xp")
    th = GElement.gen("th1")
    f = CFunction.var(("x0", "x1"), "x1")
    for zero in (a - a, a.scale(0), th - th, th.scale(0), th * th, f - f, f.scale(0)):
        assert zero.is_zero() and not zero and zero.terms == {}
