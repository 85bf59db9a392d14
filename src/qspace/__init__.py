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

from .cfunc import CFunction, LatticeFunction
from .ncalgebra import NCElement, act, lift, lower, multiply, normal_form, reorder_transform
from .scalars import QScalar, eval_at, qbinom, qfact, qnum
from .suites import SUITES, SuiteOptions, run_suite

__all__ = [
    "CFunction",
    "LatticeFunction",
    "NCElement",
    "QScalar",
    "act",
    "eval_at",
    "lift",
    "lower",
    "multiply",
    "normal_form",
    "qbinom",
    "qfact",
    "qnum",
    "reorder_transform",
    "run_suite",
    "SUITES",
    "SuiteOptions",
]

__version__ = "0.1.0"
