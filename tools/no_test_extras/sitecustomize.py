"""Make sympy and hypothesis unimportable, as in an install without the test
extra.  Put this directory on PYTHONPATH:

    PYTHONPATH=src:tools/no_test_extras python -m pytest -q -rs

pytest puts its assertion-rewriting hook before every other finder, and
that hook finds the modules of installed pytest plugins (hypothesis ships
one) through PathFinder itself; so the block is applied to PathFinder too,
and hypothesis's pytest plugin, which imports hypothesis, is not loaded.
"""

import os
import sys
from importlib.machinery import PathFinder

_BLOCKED = {"sympy", "hypothesis"}


def _refuse(name):
    if name.partition(".")[0] in _BLOCKED:
        raise ImportError(f"{name} is blocked by tools/no_test_extras")


class _Blocker:
    @staticmethod
    def find_spec(name, path=None, target=None):
        _refuse(name)
        return None


_path_find_spec = PathFinder.find_spec


def _find_spec(cls, name, path=None, target=None):
    _refuse(name)
    return _path_find_spec(name, path, target)


PathFinder.find_spec = classmethod(_find_spec)
sys.meta_path.insert(0, _Blocker)
os.environ["PYTEST_ADDOPTS"] = " ".join(
    filter(None, (os.environ.get("PYTEST_ADDOPTS"), "-p no:hypothesispytest"))
)
