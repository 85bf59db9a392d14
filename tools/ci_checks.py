#!/usr/bin/env python3
"""The checks CI runs after the tier-1 tests, one named check each.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/ci_checks.py

Each check runs its commands in fresh processes from the root of the
checkout, with the checkout's ``src`` first on PYTHONPATH, so no installed
``qspace`` entry point is needed: ``python -m qspace.cli`` stands in for it.
A command passes when it ends within its time limit with its expected exit
code and, for the reference runs and the planted faults, prints the recorded
output byte for byte.
One line per check; exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import difflib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference" / "verify_all.json"
BROKEN_SCALING_REPORT = ROOT / "tools" / "reference" / "broken_scaling_numeric_integrals.txt"
BROKEN_PRODUCT_REPORTS = ROOT / "tools" / "reference" / "broken_product_evolution.json"
BROKEN_TERM_PAIR_REPORTS = ROOT / "tools" / "reference" / "broken_term_pair_evolution.json"
BROKEN_POWER_REPORTS = ROOT / "tools" / "reference" / "broken_power_evolution.json"
BROKEN_PROJECTOR_REPORTS = ROOT / "tools" / "reference" / "broken_projector_reports.json"
BROKEN_CLOSED_ACTION_REPORTS = ROOT / "tools" / "reference" / "broken_closed_action_reports.json"
TAIL_REFERENCE = ROOT / "tools" / "reference" / "verify_tail_degree6.json"
STAR_TWICE_REFERENCE = ROOT / "tools" / "reference" / "star_products_twice.txt"
PARSE_TWICE_REFERENCE = ROOT / "tools" / "reference" / "queries_parsed_twice.txt"
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
    # then every layer is imported (verify loads all but the parser), and no
    # registered table may hold more than one entry
    "the same output when every memo holds at most one entry": (python("""
import importlib, pkgutil, sys
import qspace
from qspace import scalars
from qspace.cli import main
scalars._MEMO_LIMIT = 1
code = main(["verify", "--all", "--json"])
for info in pkgutil.iter_modules(qspace.__path__):
    importlib.import_module("qspace." + info.name)
sizes = {name: len(table) for name, table in qspace.tables().items()}
assert max(sizes.values()) <= 1, sizes
sys.exit(code)
"""), {}),
}

# each run must print the recorded `verify star oracle-actions hopf-taylor
# --degree 6 --json` output, which covers the star checks' shared normal
# forms, the action maps and the Taylor word plans past the default degree:
# (argv, env)
TAIL_RUNS = {
    "the three tail suites at degree 6 match their recorded reference": (
        QSPACE + ["verify", "star", "oracle-actions", "hopf-taylor", "--degree", "6", "--json"], {}),
    "the same tail output when every word is inserted right to left": (python("""
import sys
from qspace.cli import main
from qspace.ncalgebra import rewrite_strategy
with rewrite_strategy("rightmost"):
    code = main(["verify", "star", "oracle-actions", "hopf-taylor", "--degree", "6", "--json"])
sys.exit(code)
"""), {}),
}

_QUOTIENTS = " + ".join(f"(q + i)/((q^{n} + i)*(q + {n}))" for n in range(1, 15))

# each run must exit 0 within its limit in seconds: (argv, limit)
TIME_TARGETS = {
    "evolve at order 8 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "8", "--space", "euclid3", "--json"], 10),
    "evolve at order 10 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "10", "--space", "euclid3", "--json"], 10),
    # about 0.8 s of CPU on a 2-core host, and 1.8 s at order 14, with the
    # evolution laws decided on the power table; 1.7 and 4.5 s while every
    # check summed its elements
    "evolve at order 12 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "12", "--space", "euclid3", "--json"], 10),
    "evolve at order 14 on euclid3 stays within its time target": (
        QSPACE + ["evolve", "--order", "14", "--space", "euclid3", "--json"], 10),
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
    # under 0.3 s on a 2-core host with the q-binomials stepped along k;
    # 5 - 8 s while qbinom built all 5,000 Pascal rows
    'star "xm^5000" "xp^2" stays within its time target': (
        QSPACE + ["star", "xm^5000", "xp^2"], 2),
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

# the benchmark self-test's memo read-back check on its own: it plants an
# entry under the whole-word memo's key shape, so a change to that key fails
# here as well as in the self-test; it only reads perfbench/
MEMO_READBACK = python("""
import sys
sys.path.insert(0, "perfbench")
import selftest
selftest.check_memo_readback()
sys.exit(1 if selftest.FAILURES else 0)
""")

# `verify numeric-integrals` with the argument scaling of the
# integration-by-parts identities replaced by the identity: both checks must
# fail, and the text report must list their failures as recorded
BROKEN_SCALING = python("""
import sys
from qspace import evolution
from qspace.cli import main
evolution.scale_arg = lambda h, var, half_steps: h
sys.exit(main(["verify", "numeric-integrals"]))
""")

# the order-6 composition and unitarity checks with the power table's
# H^2 H^3 (and conj(H^2) H^3) doubled: the table no longer shows that the
# sides agree, so the reports come from the summed elements, and their JSON
# must be the recorded one; exit 1 as every report fails
BROKEN_PRODUCT = python("""
import json, sys
from qspace import evolution
plain = evolution.Hamiltonian.product
def product(self, a, b, conjugate=False):
    p = plain(self, a, b, conjugate)
    return p.scale(2) if (a, b) == (2, 3) else p
evolution.Hamiltonian.product = product
reports = []
for space in ("line", "euclid3"):
    H = evolution.free_hamiltonian(space)
    reports += [evolution.compose_check(H, 6), evolution.unitarity_check(H, 6)]
print(json.dumps([r.to_json() for r in reports], indent=2))
sys.exit(0 if all(r.passed for r in reports) else 1)
""")

# the order-5 Schrödinger, composition, unitarity and Dyson checks with the
# power table's H^3 read as 2 H^3: the products H^a H^b built from it and
# U's t^3 coefficient are wrong, while H^2 H is the stored (doubled) H^3, so
# the right Schrödinger family agrees; the JSON must be the recorded one,
# and exit 1 as those reports fail
BROKEN_POWER = python("""
import json, sys
from qspace import evolution
plain = evolution.Hamiltonian.power
def power(self, n):
    p = plain(self, n)
    return p.scale(2) if n == 3 else p
evolution.Hamiltonian.power = power
checks = (evolution.schrodinger_residual, evolution.compose_check,
          evolution.unitarity_check, evolution.dyson_check)
reports = []
for space in ("line", "euclid3"):
    H = evolution.free_hamiltonian(space)
    reports += [check(H, 5) for check in checks]
print(json.dumps([r.to_json() for r in reports], indent=2))
sys.exit(0 if all(r.passed for r in reports) else 1)
""")

# `verify evolution --order 4` with every NCElement product dropping one
# term pair per space: the largest word of the free Hamiltonian times the
# largest word of its square.  The products H^n H that build the power table
# never meet that pair; H H^2 does, and so does the integral equation's
# chain.  The JSON must be the one recorded while the Schrödinger families
# and Dyson's iterated integrals summed elements in loops of their own;
# exit 1 as those reports fail
BROKEN_TERM_PAIR = python("""
import sys
from qspace.cli import main
from qspace.evolution import free_hamiltonian
from qspace.ncalgebra import NCElement
pairs = set()
for space in ("line", "euclid3"):
    H = free_hamiltonian(space).op
    pairs.add((max(H.terms), max((H * H).terms)))
plain = NCElement.__mul__
def mul(self, other):
    if not isinstance(other, NCElement):
        return plain(self, other)
    out = NCElement(self.space)
    for k1, c1 in self.terms.items():
        for k2, c2 in other.terms.items():
            if (k1, k2) not in pairs:
                out = out + plain(NCElement(self.space, {k1: c1}), NCElement(self.space, {k2: c2}))
    return out
NCElement.__mul__ = mul
sys.exit(main(["verify", "evolution", "--order", "4", "--json"]))
""")

# `verify projectors` with q times its eigenvalue gap added at the (ab, ba)
# entry of the P+ numerator, a and b the last two labels of each space: the
# projector-algebra and spectral reports of both spaces must be the ones
# recorded while the checks read P+ with q added there, so the spectral
# check's entries, shown divided by the product of the gaps, are the
# projector sum's; exit 1 as every report fails
BROKEN_PROJECTOR = python("""
import sys
from qspace import rmatrix
from qspace.cli import main
from qspace.rmatrix import QMatrix, _gap, _pair_idx, eigenvalues, labels
from qspace.scalars import qpow
plain = rmatrix.projector_numerators
def projector_numerators(space):
    nums = dict(plain(space))
    idx = _pair_idx(space)
    a, b = labels(space)[-2:]
    entry = _gap(eigenvalues(space), "P+") * qpow(1)
    nums["P+"] = nums["P+"] + QMatrix(len(idx), {(idx[a, b], idx[b, a]): entry})
    return nums
rmatrix.projector_numerators = projector_numerators
sys.exit(main(["verify", "projectors", "--json"]))
""")

# `verify oracle-actions` with the closed-form action multiplied by q for
# the right-handed variants at index '-' on euclid3, read by the suite at
# call time: the euclid3 report must fail with the recorded entries, whose
# two printed sides are the closed form's and the engine's right-mode
# action; exit 1 as that report fails
BROKEN_CLOSED_ACTION = python("""
import sys
from qspace import qfunc
from qspace.cli import main
from qspace.scalars import qpow
plain = qfunc.act_partial_closed
def act_partial_closed(index, variant, f, space, rep="standard"):
    out = plain(index, variant, f, space, rep)
    if space == "euclid3" and index == "-" and variant in ("right", "right_bar"):
        return out * qpow(1)
    return out
qfunc.act_partial_closed = act_partial_closed
sys.exit(main(["verify", "oracle-actions", "--json"]))
""")

# multi-term star products with x3 powers and Gaussian and rational
# coefficients, in both orderings, run twice in one process: the second
# run reads every monomial pair's rows from the table the first one filled.
# The runs must print the same text, and both must print the recorded one
STAR_TWICE = python("""
import io, sys
from contextlib import redirect_stdout
from qspace.cli import main
PAIRS = [
    ("1/2 x3 xm^2 + (2 + 3 i) xm^3 x3^2 - x0 xp xm", "xp^2 x3 + 2/3 xp^3 xm + i x3^2 xp"),
    ("q^2/(q + 1) xp x3 + xp^2 x0 xm", "(1 - 2 i)/5 xm^2 x3 - xm xp"),
    ("xm^4 xp^2 + x3^3 - xm xp", "xp^4 xm^2 - 3/7 x3 xp + xm xp"),
]
runs = []
for _ in range(2):
    out = io.StringIO()
    with redirect_stdout(out):
        for f, g in PAIRS:
            for ordering in ([], ["--reversed"]):
                assert main(["star", f, g, *ordering]) == 0
    runs.append(out.getvalue())
assert runs[0] == runs[1], "the second run differs from the first"
sys.stdout.write(runs[0] + runs[1])
""")

# nf, d, translate and star queries (half powers of q, lambda, (1 + q),
# L^-1, hatted derivatives, sums that cancel, and a text that does not
# parse) run twice in one process: the second run reads every parse from
# the table the first one filled.  The runs must print the same text, and
# both must print the recorded one
PARSE_TWICE = python("""
import io, sys
from contextlib import redirect_stderr, redirect_stdout
from qspace.cli import main
QUERIES = [
    (0, ["nf", "q^(1/2) Xm dhp Xp + lambda L^-1 X3"]),
    (0, ["nf", "(1 + q) dh3 X3 - (1 + q) dh3 X3 + L^-1 Xp dhm"]),
    (0, ["nf", "Xm Xp - Xm Xp"]),
    (0, ["nf", "dh1 X1^2 L^-1 + q^(-1/2) L", "--space", "line"]),
    (0, ["d", "q^(1/2) x1^2 x0 + lambda x1", "--index", "1", "--variant", "left_bar",
         "--space", "line"]),
    (0, ["d", "(1 + q) xp x3^2 xm - lambda xm", "--index", "m", "--variant", "right"]),
    (0, ["translate", "(1 + q) x3^2 xp + q^(1/2) xm - q x3^2 xp - x3^2 xp", "--variant", "L"]),
    (0, ["star", "lambda xp x3 + q^(1/2) xm", "(1 + q) x3^2 - q x3^2 - x3^2 + xm"]),
    (2, ["nf", "lambda Xp (1 + q"]),
]
runs = []
for _ in range(2):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        for code, argv in QUERIES:
            assert main(argv) == code, argv
    runs.append(out.getvalue())
assert runs[0] == runs[1], "the second run differs from the first"
sys.stdout.write(runs[0] + runs[1])
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


# a failing comparison shows at most this many diff lines, each cut to this
# many characters
DIFF_LINES, DIFF_WIDTH = 12, 160


def _clip(line):
    """A diff line cut to DIFF_WIDTH characters, marked where it was cut."""
    if len(line) <= DIFF_WIDTH:
        return line
    return f"{line[:DIFF_WIDTH]} [cut: {len(line) - DIFF_WIDTH} more characters]"


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
        return "output differs from the reference:\n" + "\n".join(
            _clip(line) for line in itertools.islice(diff, DIFF_LINES))
    return None


def same_output(first, second, limit):
    """None when first and second each exit 0 within limit seconds and
    first prints what second prints, else what went wrong."""
    code, out = run(second, limit)
    return expect_exit(second, 0, limit) if code != 0 else expect_exit(first, 0, limit, output=out)


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
    tail = TAIL_REFERENCE.read_bytes()
    for name, (argv, env) in TAIL_RUNS.items():
        yield name, lambda argv=argv, env=env: expect_exit(argv, 0, env=env, output=tail)
    for name, (argv, limit) in TIME_TARGETS.items():
        yield name, lambda argv=argv, limit=limit: expect_exit(argv, 0, limit)
    yield "bad input exits 2 at once, with no hang or traceback", usage_errors
    yield ("star of a top power by a coordinate stays within its time target",
           lambda: expect_exit(QSPACE + ["star", "xm^10000", "xp"], 0, 5))
    # the parenthesized factors meet in the element product, which
    # normal-orders its one row word alone; the plain word goes through
    # _normalize_word and its whole-word memo; each takes about 0.2 s on a
    # 2-core host
    yield ('nf "(Xm^2000)(Xp)" prints what nf "Xm^2000 Xp" prints, within its time target',
           lambda: same_output(QSPACE + ["nf", "(Xm^2000)(Xp)"], QSPACE + ["nf", "Xm^2000 Xp"], 5))
    yield ("star products run twice in one process match each other and the reference",
           lambda: expect_exit(STAR_TWICE, 0, 30, output=STAR_TWICE_REFERENCE.read_bytes()))
    yield ("queries run twice in one process match each other and the reference",
           lambda: expect_exit(PARSE_TWICE, 0, 30, output=PARSE_TWICE_REFERENCE.read_bytes()))
    yield ("every action-mode and exponential spelling of the CLI exits 0",
           lambda: expect_exit(SPELLINGS, 0))
    yield ("the benchmark's memo read-back check passes on its own",
           lambda: expect_exit(MEMO_READBACK, 0, 60))
    yield ("a planted scaling fault fails both integration-by-parts checks as recorded",
           lambda: expect_exit(BROKEN_SCALING, 1, 30, output=BROKEN_SCALING_REPORT.read_bytes()))
    yield ("a planted power-table fault fails the composition and unitarity checks as recorded",
           lambda: expect_exit(BROKEN_PRODUCT, 1, 30, output=BROKEN_PRODUCT_REPORTS.read_bytes()))
    yield ("a planted wrong power fails the Schrödinger, composition, unitarity and Dyson checks",
           lambda: expect_exit(BROKEN_POWER, 1, 30, output=BROKEN_POWER_REPORTS.read_bytes()))
    yield ("a planted term-pair fault fails the evolution reports as recorded",
           lambda: expect_exit(BROKEN_TERM_PAIR, 1, 30,
                               output=BROKEN_TERM_PAIR_REPORTS.read_bytes()))
    yield ("a planted projector-numerator fault fails the projector and spectral checks as recorded",
           lambda: expect_exit(BROKEN_PROJECTOR, 1, 30,
                               output=BROKEN_PROJECTOR_REPORTS.read_bytes()))
    yield ("a planted right-mode closed-action fault fails the euclid3 oracle report as recorded",
           lambda: expect_exit(BROKEN_CLOSED_ACTION, 1, 30,
                               output=BROKEN_CLOSED_ACTION_REPORTS.read_bytes()))
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
