"""The verification report's comparison step, and the guard that keeps
every comparison of two held values going through it."""

import ast
import pathlib

import pytest

from qspace import reports
from qspace.reports import Failure, VerificationReport
from qspace.scalars import ONE, ZERO, qpow


def test_compare_records_only_a_mismatch():
    rep = VerificationReport("c", "line")
    assert rep.compare("equal", qpow(1), qpow(1)) is True
    assert rep.compare(("a", 1), 2, 2) is True
    assert rep.passed and rep.failures == []
    assert rep.compare(("a", 1), qpow(1), ONE) is False
    assert rep.status == "fail"
    assert rep.failures == [Failure("('a', 1)", "q", "1")]
    # a later match neither clears the failure nor records another
    assert rep.compare("again", ZERO, ZERO) is True
    assert rep.status == "fail" and len(rep.failures) == 1


@pytest.mark.parametrize("got, want, equal", [(ONE, ONE, True), (qpow(2), ZERO, False)])
def test_compare_fails_a_skipped_report_only_on_a_mismatch(got, want, equal):
    rep = VerificationReport("c", "line", status="skipped")
    assert rep.compare("t^0", got, want) is equal
    assert rep.status == ("skipped" if equal else "fail")
    assert [(f.indices, f.lhs, f.rhs) for f in rep.failures] == (
        [] if equal else [("t^0", str(got), str(want))])


def _hand_written_compares(tree):
    """Every `if x != y:` whose body is one `.record(label, str(x), str(y))`."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and len(node.test.ops) == 1 and isinstance(node.test.ops[0], ast.NotEq)
                and len(node.body) == 1 and isinstance(node.body[0], ast.Expr)):
            continue
        call = node.body[0].value
        if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "record"
                and len(call.args) == 3):
            continue
        sides = [ast.dump(node.test.left), ast.dump(node.test.comparators[0])]
        printed = [ast.dump(a.args[0]) for a in call.args[1:]
                   if isinstance(a, ast.Call) and getattr(a.func, "id", None) == "str"
                   and len(a.args) == 1]
        if printed == sides:
            yield node.lineno


# the package, its tests and the CI tools: the test oracles record their
# failures through the same step as the checks they restate
_CHECKED = (pathlib.Path(reports.__file__).parent, pathlib.Path(__file__).parent,
            pathlib.Path(__file__).parent.parent / "tools")


def test_comparisons_go_through_compare():
    """No report failure is a hand-written compare-and-record pair, and the
    old require spelling is gone."""
    paths = sorted(path for root in _CHECKED for path in root.rglob("*.py"))
    assert len({path.parent for path in paths}) >= 3
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, n) for n in _hand_written_compares(tree)]
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "require"]
    assert not found, found
    assert not hasattr(VerificationReport, "require")


def test_the_guard_sees_a_hand_written_pair():
    tree = ast.parse("if a != b:\n    rep.record('x', str(a), str(b))\n"
                     "if a != b:\n    rep.record('x', str(b), str(a))\n")
    assert list(_hand_written_compares(tree)) == [1]
