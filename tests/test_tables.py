"""The one registry of the package's caches, read through ``qspace.tables()``,
the private names of ``qspace`` that the tests and CI tools may read, the
recorded outputs under ``tools/reference`` that some check must read, and
the package's own code, which builds a plain dict and makes an element from
it instead of writing into an element's terms."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import re
import textwrap
import types

import pytest

import qspace
from qspace import starcalc
from qspace.cfunc import E3_VARS, CFunction
from qspace.expressions import parse
from qspace.hopf import antipode, translate
from qspace.ncalgebra import rewrite_strategy
from qspace.pairexp import qexp
from qspace.qfunc import act_partial_closed
from qspace.rmatrix import build_projectors

ROOT = pathlib.Path(__file__).resolve().parent.parent

def readme_table_names():
    """The names in the first column of README's table of caches, sorted."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nEvery cache in the package is one named table", 1)[1]
    rows = section.split("\n|", 1)[1].split("\n\n", 1)[0].splitlines()
    return sorted(name for row in rows[2:] for name in re.findall(r"`([\w.]+)`", row.split("|")[1]))


def every_table():
    """qspace.tables() with every layer of the package imported."""
    for info in pkgutil.iter_modules(qspace.__path__):
        importlib.import_module(f"qspace.{info.name}")
    return qspace.tables()


def _fill():
    """Work that stores into every table."""
    f = CFunction.monomial(E3_VARS, (1, 1, 2, 1))
    return [
        str(parse("Xm Xp", "euclid3").data.conjugate()),
        starcalc.star(starcalc.StarContext("euclid3"), f, f),
        str(translate("euclid3", "L", f)),
        antipode("euclid3", "L", f),
        act_partial_closed("-", "left", f, "euclid3"),
        list(qexp("line", "x_d", 2)),
        build_projectors("line"),
    ]


def test_the_registry_holds_the_tables_readme_lists():
    tables = every_table()
    assert list(tables) == readme_table_names()
    for view in tables.values():
        assert isinstance(view, types.MappingProxyType)
        with pytest.raises(TypeError):
            view["planted"] = None


def test_a_table_name_is_registered_once():
    # a second copy of a layer would register its tables again
    spec = importlib.util.spec_from_file_location("qspace.starcalc_copy", starcalc.__file__)
    with pytest.raises(ValueError, match="'starcalc.star_legs' is already registered"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert list(every_table()) == readme_table_names()


def test_clear_tables_and_rewrite_strategy_empty_every_table():
    tables = every_table()
    want = _fill()
    assert all(tables.values()), [name for name, view in tables.items() if not view]
    qspace.clear_tables()
    assert not any(tables.values())
    _fill()
    with rewrite_strategy("rightmost"):
        assert not any(tables.values())
        assert _fill() == want
        assert all(tables.values())
    assert not any(tables.values())


# the private module attributes of qspace that tests/ and tools/ read, each
# with its reason: a kernel or oracle under test, a constant pinned against
# its restatement or lowered, or a table a test plants into.  The table names
# and key shapes tests read through qspace.tables() are not among them: README
# documents both
ALLOWED_PRIVATE = {
    "cfunc._geometric_sum": "the Jackson lattice sum the pinned integrals restate",
    "cfunc._monomials": "the exponent tuples the differential oracles enumerate",
    "cli._ACTION_NAMES": "the CLI's action spellings, pinned against the spaces table",
    "cli._COMMANDS": "every command handler is run once",
    "cli._EXP_NAMES": "the CLI's exponential spellings, pinned against the spaces table",
    "evolution._GEOMETRIES": "the integration geometries the pinned integrals enumerate",
    "evolution._compare": "the law comparison, run on a planted mismatch",
    "evolution._compose_sides": "the composition law's sides, compared with the summed elements",
    "evolution._dyson_sides": "the Dyson series' sides, compared with the summed elements",
    "evolution._element": "the summed element the power-table laws replace",
    "evolution._ibp_sides": "the integration-by-parts sides the pinned integrals evaluate",
    "evolution._integrate_time_poly": "the time integral the Dyson check restates",
    "evolution._phases": "the series' phases, checked for each direction",
    "evolution._scalar_sides_agree": "the power-table decision, run on a planted fault",
    "evolution._unitarity_sides": "the unitarity law's sides, compared with the summed elements",
    "grassmann._EXPONENTIALS": "the exponential table, pinned against the spaces table",
    "grassmann._GENERATORS": "the generators the normal-form oracle enumerates",
    "grassmann._RULE_TABLES": "the rules the normal-form oracle applies",
    "grassmann._normalize": "the Grassmann normal form under test",
    "grassmann._pair": "the pairing a test records calls of",
    "hopf._IDENTITY_SETUPS": "the Taylor-identity setups, pinned against the spaces table",
    "hopf._VARIANT_PARAMS": "the translation variants' parameters, pinned against the spaces table",
    "hopf._dword_seq": "the derivative word order, pinned against the spaces table",
    "hopf._exp_word_actions": "the exponential's word actions, compared with act",
    "ncalgebra._CONJ_MAP": "the conjugation token map the token engine oracle applies",
    "ncalgebra._LAM_TAG": "the scaling operator's token in the token engine oracle",
    "ncalgebra._MIRROR_MAP": "the mirror token map the token engine oracle applies",
    "ncalgebra._RuleSet": "the rule set's pair rules, checked against the printed relations",
    "ncalgebra._STRATEGY": "the rewrite strategy, read per thread",
    "ncalgebra._TRANSPORT": "a planted row shows that a strategy switch empties the table",
    "ncalgebra._act_map": "the action map, applied to many functions and compared with act",
    "ncalgebra._build_xx_rules": "the coordinate rules, checked against the printed relations",
    "ncalgebra._lam_weight": "the scaling weights the token engine oracle applies",
    "ncalgebra._normal_forms": "the normal-ordering loop, compared with the token engine",
    "ncalgebra._ruleset": "a rule set whose own memos a test reads",
    "ncalgebra._transition": "the coordinate rules' transition, checked against the relations",
    "ncalgebra._transport": "the mirror transport, compared with the token engine",
    "pairexp._EXP_MODE": "the exponentials' modes the graded Kronecker check enumerates",
    "pairexp._grade": "the grade the graded Kronecker check restates",
    "pairexp._norm_factor": "the factorial product the term table replaces",
    "qfunc._act": "the untabled closed-form action the suites call, planted",
    "rmatrix._gap": "the eigenvalue gap a numerator is its projector times",
    "rmatrix._pair_idx": "the index of a label pair in the braiding matrix",
    "scalars._MEMO_LIMIT": "lowered so that every store empties its table",
    "scalars._PACK_MIN": "the size where the packed product takes over",
    "scalars._add_term": "the accumulate step the oracles share",
    "scalars._apply_rows": "the row kernel under test",
    "scalars._coeff_times": "the coefficient printer under test",
    "scalars._from_stored": "the stored-polynomial conversion the kernel oracles use",
    "scalars._kgrid": "the packed product's grid under test",
    "scalars._kron": "the packed product under test",
    "scalars._lquo": "the Laurent quotient under test",
    "scalars._memoized": "the lookup decorator under test",
    "scalars._padd": "the polynomial sum under test",
    "scalars._pdivmod": "the polynomial division under test",
    "scalars._pgcd": "the polynomial gcd under test",
    "scalars._pgrid": "the packed product's grid under test",
    "scalars._plen": "the term count a work count filters on",
    "scalars._pmonic": "the monic normalisation under test",
    "scalars._pmul": "the polynomial product under test and counted",
    "scalars._poly_to_str": "the polynomial printer the sympy oracle reads",
    "scalars._pshift": "the exponent shift under test",
    "scalars._qnum_mul": "the q-number product under test",
    "scalars._qnum_quo": "the q-number quotient under test",
    "scalars._term_pairs": "the term-pair kernel under test",
    "scalars._to_stored": "the stored-polynomial conversion the kernel oracles use",
    "starcalc._star_e3": "the star kernel, counted and planted",
    "starcalc._star_legs": "the star legs under test",
}


_ATTR_CALLS = {"setattr", "getattr", "delattr", "hasattr"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree, modules):
    """The private qspace names a module's syntax tree reads, as
    'module._name': each `from qspace.<module> import _name`; each attribute
    read `alias._name` and each `setattr`/`getattr`/`delattr`/`hasattr`
    call `f(alias, "_name", ...)`, monkeypatch.setattr included, on a name
    bound to a qspace module; and the same in every string constant that
    parses as Python and names qspace, such as a script a subprocess runs."""
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qspace":
            home = node.module.split(".")[-1]
            for alias in node.names:
                if node.module == "qspace" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add(f"{home}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "qspace":
                    continue
                if alias.asname:
                    aliases[alias.asname] = alias.name.split(".")[-1]
                else:
                    aliases["qspace"] = "qspace"

    def module_of(value):
        if isinstance(value, ast.Name):
            return aliases.get(value.id)
        if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                and aliases.get(value.value.id) == "qspace" and value.attr in modules):
            return value.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and module_of(node.value):
            reads.add(f"{module_of(node.value)}.{node.attr}")
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            target, name = node.args[:2]
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (called in _ATTR_CALLS
                    and isinstance(name, ast.Constant) and isinstance(name.value, str)
                    and _private(name.value) and module_of(target)):
                reads.add(f"{module_of(target)}.{name.value}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "qspace" in node.value:
            try:
                script = ast.parse(textwrap.dedent(node.value))
            except SyntaxError:
                continue
            reads |= _private_reads(script, modules)
    return reads


def _modules():
    return {info.name for info in pkgutil.iter_modules(qspace.__path__)}


def test_tests_and_tools_read_only_the_listed_private_names():
    paths = sorted(path for root in ("tests", "tools") for path in (ROOT / root).rglob("*.py"))
    modules = _modules()
    read = set()
    for path in paths:
        read |= _private_reads(ast.parse(path.read_text(), str(path)), modules)
    assert sorted(read - set(ALLOWED_PRIVATE)) == [], "read but not listed"
    assert sorted(set(ALLOWED_PRIVATE) - read) == [], "listed but no longer read"
    assert len(ALLOWED_PRIVATE) <= 68


def test_every_recorded_output_is_read_by_a_check():
    # a check deleted later cannot leave its recording behind unread
    readers = [ROOT / "tools" / "ci_checks.py", *(ROOT / "tests").glob("*.py")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in readers)
    recordings = sorted(path.name for path in (ROOT / "tools" / "reference").iterdir())
    assert recordings
    assert [name for name in recordings if name not in text] == []


def test_the_private_name_guard_sees_every_spelling():
    # one string per line, so that no constant of this file reads a name
    source = "\n".join([
        "import qspace", "import qspace.hopf as h", "from qspace import cfunc as c, scalars",
        "from qspace.ncalgebra import _ruleset, act", "from qspace import rmatrix",
        "h._a, c._b, scalars._c, qspace._d, qspace.starcalc._e, rmatrix.__name__",
        "monkeypatch.setattr(scalars, '_f', 1), getattr(qspace.evolution, '_g'), setattr(c, 'x', 1)",
        "run(\"\"\"", "    from qspace import pairexp", "    pairexp._h = 1", "\"\"\")",
        "run('qspace._i')",
    ])
    assert _private_reads(ast.parse(source), _modules()) == {
        "ncalgebra._ruleset", "hopf._a", "cfunc._b", "scalars._c", "qspace._d", "starcalc._e",
        "scalars._f", "evolution._g", "pairexp._h"}


# the dict methods that change a dict in place
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _targets(node):
    """The targets an assignment or deletion binds, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        else:
            yield t.value if isinstance(t, ast.Starred) else t


def _terms_writes(tree):
    """The sorted lines of a module's syntax tree that write into some X's
    ``X.terms``: an assignment or deletion of ``X.terms`` (``self.terms`` in
    an ``__init__`` makes the object, and is left out) or of
    ``X.terms[...]``, a mutating dict method called on ``X.terms``, and
    ``_add_term(X.terms, ...)``."""
    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    made = {id(t) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "__init__"
            for node in ast.walk(f) for t in _targets(node)
            if is_terms(t) and isinstance(t.value, ast.Name) and t.value.id == "self"}
    lines = set()
    for node in ast.walk(tree):
        for t in _targets(node):
            if (is_terms(t) and id(t) not in made) or (
                    isinstance(t, ast.Subscript) and is_terms(t.value)):
                lines.add(node.lineno)
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in _MUTATORS and is_terms(f.value)) or (
                    getattr(f, "id", None) == "_add_term" and node.args and is_terms(node.args[0])):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_module_writes_into_the_terms_of_an_element():
    found = [f"{path.stem}:{line}" for path in sorted((ROOT / "src" / "qspace").glob("*.py"))
             for line in _terms_writes(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_terms_guard_sees_every_spelling():
    source = "\n".join([
        "class A:",
        "    def __init__(self, terms):",
        "        self.terms = terms",  # made here: left out
        "        other.terms = terms",
        "    def f(self):",
        "        self.terms = {}",
        "a.terms[k] = c",
        "a.terms[k] += c",
        "del a.b.terms[k]",
        "x, (y, a.terms) = 1, (2, {})",
        "a.terms.clear(); f(a).terms.update({})",
        "a.terms.pop(k, None)",
        "_add_term(a.terms, k, c)",
        "_add_term(out, k, c); a.terms.get(k); dict(a.terms).clear(); a.terms == b.terms",
    ])
    assert _terms_writes(ast.parse(source)) == [4, 6, 7, 8, 9, 10, 11, 12, 13]
