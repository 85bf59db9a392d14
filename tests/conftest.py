"""Test-session hooks and fixtures shared by every test module."""

import pathlib
import sys
import warnings

import pytest

# the outputs recorded under tools/reference, compared byte for byte
_RECORDINGS = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reference"


@pytest.fixture
def recorded():
    """The text of a recorded output, read by its file name."""
    return lambda name: (_RECORDINGS / name).read_text(encoding="utf-8")


def pytest_runtest_makereport(item, call):
    """Import hypothesis's patch writer before its own report hook does.

    When a property fails, hypothesis's pytest plugin imports
    ``hypothesis.extra._patching``, and with it libcst, inside its report
    hook.  Under ``pytest -W error`` a DeprecationWarning raised by that
    third-party import ends the session with INTERNALERROR: no later test
    runs and no failure is summarised.  This hook runs first and imports the
    module with the warnings of that one import silenced, so the plugin finds
    it loaded.  Nothing is imported while every test passes.
    """
    if call.excinfo is None or "hypothesis" not in sys.modules:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass  # without libcst the plugin skips the patch as well
