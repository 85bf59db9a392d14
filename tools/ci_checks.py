#!/usr/bin/env python3
"""The checks CI runs after the tier-1 tests, one named check each.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/ci_checks.py

Each check runs its commands in fresh processes from the root of the
checkout, with the checkout's ``src`` first on PYTHONPATH, so no installed
``qspace`` entry point is needed: ``python -m qspace.cli`` stands in for it.
A command passes when it ends within its time limit with its expected exit
code and, for the reference runs, prints the recorded output byte for byte.
One line per check; exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference" / "verify_all.json"
QSPACE = [sys.executable, "-m", "qspace.cli"]


def python(code):
    return [sys.executable, "-c", code]


# each run must print the recorded `verify --all --json` output: (argv, env)
REFERENCE_RUNS = {
    "verify --all --json matches the recorded reference": (
        QSPACE + ["verify", "--all", "--json"], {}),
    "the same output under a fixed hash seed": (
        QSPACE + ["verify", "--all", "--json"], {"PYTHONHASHSEED": "12345"}),
    "the same output when every word is inserted right to left": (python("""
import sys
from qspace.cli import main
from qspace.ncalgebra import rewrite_strategy
with rewrite_strategy("rightmost"):
    code = main(["verify", "--all", "--json"])
sys.exit(code)
"""), {}),
    "the same output when every memo holds at most one entry": (python("""
import sys
from qspace import scalars
from qspace.cli import main
scalars._MEMO_LIMIT = 1
sys.exit(main(["verify", "--all", "--json"]))
"""), {}),
}

_QUOTIENTS = " + ".join(f"(q + i)/((q^{n} + i)*(q + {n}))" for n in range(1, 15))

# each run must exit 0 within its limit in seconds: (argv, limit)
TIME_TARGETS = {
    "evolve at order 8 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "8", "--space", "euclid3", "--json"], 10),
    "evolve at order 10 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "10", "--space", "euclid3", "--json"], 10),
    "verify --all at degree 6 and order 6 passes within its time target": (
        QSPACE + ["verify", "--all", "--degree", "6", "--order", "6", "--json"], 30),
    "verify star at degree 8 stays within its time target": (
        QSPACE + ["verify", "star", "--degree", "8", "--json"], 6),
    "exp at degree 10 on euclid3 stays within its time target": (
        QSPACE + ["exp", "--variant", "xdh", "--degree", "10", "--space", "euclid3"], 5),
    'nf "Xm^2000 Xp" stays within its time target': (QSPACE + ["nf", "Xm^2000 Xp"], 5),
    # about 2.5 s on a 2-core host with the reversed legs reflected from the
    # standard ones and the large products packed; 13 s without either
    'star "xp^60" "xm^60" --reversed stays within its time target': (
        QSPACE + ["star", "xp^60", "xm^60", "--reversed"], 8),
    "nf of a 14-term sum of Gaussian quotients stays within its time target": (
        QSPACE + ["nf", _QUOTIENTS], 5),
    "the same word inserted right to left stays within the same target": (python("""
from qspace.ncalgebra import normal_form, rewrite_strategy
with rewrite_strategy("rightmost"):
    assert len(normal_form("euclid3", ("xm",) * 2000 + ("xp",)).terms) == 2
"""), 5),
}

# an exponent beyond the grammar's bound, a literal too long for int(), a
# division by a zero scalar, an option the command does not take or a value
# outside its domain: each exits 2 within 5 s
USAGE_ERRORS = [
    ["nf", "Xm^99999999999999999999"],
    ["star", "xm^99999999999999999999", "xp"],
    ["nf", "9" * 5000 + " Xm"],
    ["nf", "1/(q-q)"],
    ["d", "+0^-1xpx0", "--index", "+"],
    ["star", "1/(q-q) xp", "xm"],
    ["nf", "Xm", "--tol", "1"],
    ["evolve", "--q-value", "1.1"],
    ["verify", "numeric-integrals", "--tol", "inf"],
    ["d", "x1", "--space", "line", "--index", "3"],
    ["verify", "star", "--degree", "9"],
    ["verify", "numeric-integrals", "--q0", "2"],
    ["verify", "numeric-integrals", "--q0", "1"],
    ["evolve", "--H", "1/2 L"],
]

SPELLINGS = python("""
from qspace.cli import main
runs = []
for v in ("left", "left_bar", "leftbar", "right", "right_bar", "rightbar"):
    runs += [["d", "x0 xp x3^2 xm", "--index", i, "--variant", v] for i in "0p+3m-"]
    runs += [["d", "x0 x1^2", "--space", "line", "--index", i, "--variant", v] for i in "01"]
runs += [["exp", "--degree", "2", "--variant", v] for v in ("xd", "xdh", "dx", "dhx")]
assert len(runs) == 52, len(runs)
for argv in runs:
    assert main(argv) == 0, argv
""")

LIGHT_IMPORT = python(
    "import sys, qspace.cli; heavy = {'qspace.suites', 'qspace.evolution', 'qspace.rmatrix'}"
    " & set(sys.modules); assert not heavy, heavy")


def run(argv, limit=None, env=None):
    """(exit code, stdout) of argv run from the checkout's root; the exit
    code is None when the run takes longer than limit seconds."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **(env or {})},
                              capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return None, b""
    return proc.returncode, proc.stdout


def expect_exit(argv, code, limit=None, env=None, output=None):
    """None when argv exits with code within limit seconds (and prints
    output, if given), else what went wrong."""
    got, out = run(argv, limit, env)
    shown = " ".join(argv[1:]).replace("\n", " ")
    shown = shown if len(shown) <= 100 else shown[:97] + "..."
    if got is None:
        return f"over {limit} s: {shown}"
    if got != code:
        return f"exit {got}, not {code}: {shown}"
    if output is not None and out != output:
        diff = difflib.unified_diff(output.decode().splitlines(), out.decode().splitlines(),
                                    "reference", "output", lineterm="", n=0)
        return "output differs from the reference:\n" + "\n".join(list(diff)[:12])
    return None


def usage_errors():
    for argv in USAGE_ERRORS:
        problem = expect_exit(QSPACE + argv, 2, 5)
        if problem:
            return problem
    return None


def checks():
    """(name, function returning None or what went wrong), one per CI step."""
    reference = REFERENCE.read_bytes()
    for name, (argv, env) in REFERENCE_RUNS.items():
        yield name, lambda argv=argv, env=env: expect_exit(argv, 0, env=env, output=reference)
    for name, (argv, limit) in TIME_TARGETS.items():
        yield name, lambda argv=argv, limit=limit: expect_exit(argv, 0, limit)
    yield "bad input exits 2 at once, with no hang or traceback", usage_errors
    yield ("star of a top power by a coordinate stays within its time target",
           lambda: expect_exit(QSPACE + ["star", "xm^10000", "xp"], 0, 5))
    yield ("every action-mode and exponential spelling of the CLI exits 0",
           lambda: expect_exit(SPELLINGS, 0))
    yield ("importing the CLI loads no suite, evolution or braiding layer",
           lambda: expect_exit(LIGHT_IMPORT, 0) or expect_exit(QSPACE + ["verify", "-h"], 0))


def main():
    failures = 0
    for name, check in checks():
        start = time.perf_counter()
        problem = check()
        took = time.perf_counter() - start
        print(f"{'FAIL' if problem else 'ok  '} {name} ({took:.1f} s)", flush=True)
        if problem:
            failures += 1
            print("     " + problem.replace("\n", "\n     "), flush=True)
    print(f"{failures} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
