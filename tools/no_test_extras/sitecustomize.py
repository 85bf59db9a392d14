"""Make sympy and hypothesis unimportable, as in an install without the test
extra.  Put this directory on PYTHONPATH:

    PYTHONPATH=src:tools/no_test_extras python -m pytest -q -rs
"""

import sys

_BLOCKED = {"sympy", "hypothesis"}


class _Blocker:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in _BLOCKED:
            raise ImportError(f"{name} is blocked by tools/no_test_extras")
        return None


sys.meta_path.insert(0, _Blocker)
