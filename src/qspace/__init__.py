"""Exact computer algebra for two q-deformed quantum spaces: the extended
braided line and the extended three-dimensional q-deformed Euclidean space.

The package provides the braiding matrices and their projector algebra, a
normal-ordering rewrite engine for the coordinate/derivative algebras, the
commutative q-calculus (Jackson derivatives and integrals, closed-form
operator representations), star products for both normal orderings,
q-translations and antipodes with the Taylor identities, dual pairings and
q-exponentials, truncated time-evolution series with their equation checks,
and superanalysis on the antisymmetrized line.  Every printed identity of
the underlying framework is covered by a machine check in
:mod:`qspace.suites`, runnable through the ``qspace verify`` CLI.
"""

import importlib

# each export and the module it lives in; a layer is imported when one of its
# names is first read, so `import qspace` compiles none of them (PEP 562)
_EXPORTS = {
    "CFunction": "cfunc",
    "LatticeFunction": "cfunc",
    "NCElement": "ncalgebra",
    "act": "ncalgebra",
    "lift": "ncalgebra",
    "lower": "ncalgebra",
    "normal_form": "ncalgebra",
    "reorder_transform": "ncalgebra",
    "QScalar": "scalars",
    "clear_tables": "scalars",
    "qbinom": "scalars",
    "qfact": "scalars",
    "qnum": "scalars",
    "tables": "scalars",
    "SUITES": "suites",
    "SuiteOptions": "suites",
    "run_suite": "suites",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
