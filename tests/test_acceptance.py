"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance and bound is pinned here; nothing is deferred to later
calibration.  Exact means canonical-form equality over the scalar field.
"""

import itertools
import math
import os
import time
from fractions import Fraction

from qspace import evolution, grassmann, hopf, pairexp, qfunc, rmatrix, starcalc
from qspace.cfunc import CFunction, LatticeFunction, jackson_integral_numeric, space_vars
from qspace.cli import main
from qspace.expressions import parse, render
from qspace.ncalgebra import NCElement, act, lift, lower, normal_form
from qspace.scalars import GaussianRational, LAM, ONE, qpow, scalar

SPACES = ("line", "euclid3")


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, name


def _monomials(vars_, maxdeg):
    return [
        e
        for e in itertools.product(range(maxdeg + 1), repeat=len(vars_))
        if sum(e) <= maxdeg
    ]


def test_criterion_01_yang_baxter():
    t0 = time.time()
    ok = all(rmatrix.check_ybe(rmatrix.build_R(s)).passed for s in SPACES)
    dt = time.time() - t0
    _report("criterion 1: Yang-Baxter braid relation, both spaces", ok and dt < 5.0,
            f"{dt:.2f}s < 5s")


def test_criterion_02_projector_algebra():
    ok = True
    for space in SPACES:
        R = rmatrix.build_R(space)
        P = rmatrix.build_projectors(space)
        ok &= rmatrix.projector_algebra_check(P).passed
        ok &= rmatrix.spectral_check(R, P).passed
        want = (
            {ONE, -ONE, qpow(1)}
            if space == "line"
            else {ONE, -qpow(-4), qpow(-6), -ONE}
        )
        ok &= set(P.eigenvalues.values()) == want
    _report("criterion 2: projector algebra and spectral reconstruction", ok)


def test_criterion_03_relations():
    rules = {r.lhs: r.rhs for r in rmatrix.relations_from_projectors("euclid3")}
    ok = rules.get(("-", "+")) == {("+", "-"): ONE, ("3", "3"): LAM}
    ok &= rules.get(("3", "+")) == {("+", "3"): qpow(2)}
    ok &= rules.get(("-", "3")) == {("3", "-"): qpow(2)}
    for a in ("+", "3", "-"):
        ok &= rules.get((a, "0")) == {("0", a): ONE}
    ok &= len(rules) == 6
    line_rules = {r.lhs: r.rhs for r in rmatrix.relations_from_projectors("line")}
    ok &= line_rules == {("1", "0"): {("0", "1"): ONE}}
    _report("criterion 3: kernel relations reproduce the printed set", ok)


def test_criterion_04_metric():
    g = rmatrix.metric_from_P0()
    ok = rmatrix.metric_check(g).passed
    ok &= g.up("+", "-") == -qpow(1)
    ok &= g.up("-", "+") == -qpow(-1)
    ok &= g.up("3", "3") == ONE
    _report("criterion 4: quantum metric from the trace projector", ok)


_DTAGS = {"line": {"0": "d0", "1": "d1"}, "euclid3": {"0": "d0", "+": "dp", "3": "d3", "-": "dm"}}
_HATP = {"line": 1, "euclid3": 6}


def test_criterion_05_oracle_actions():
    t0 = time.time()
    checks = 0
    ok = True
    for space in SPACES:
        vars_ = space_vars(space)
        for idx, dtag in _DTAGS[space].items():
            for variant in ("left", "left_bar", "right", "right_bar"):
                D = NCElement.generator(space, dtag)
                if variant in ("left_bar", "right") and idx != "0":
                    D = D.scale(qpow(_HATP[space]))
                for e in _monomials(vars_, 4):
                    f = CFunction.monomial(vars_, e)
                    closed = qfunc.act_partial_closed(idx, variant, f, space)
                    oracle = lower(space, act(D, lift(space, f), variant))
                    checks += 1
                    if closed != oracle:
                        ok = False
    dt = time.time() - t0
    _report("criterion 5: closed forms match the counit procedure, degree <= 4",
            ok and dt < 60.0, f"{checks} checks, {dt:.1f}s < 60s")


def test_criterion_06_star_oracle_and_associativity():
    ok = starcalc.star_oracle_check(4).passed
    vars_ = space_vars("euclid3")
    ctx = starcalc.StarContext("euclid3")
    monos = _monomials(vars_, 4)
    for ef in monos:
        f = CFunction.monomial(vars_, ef)
        for eg in monos:
            if sum(ef) + sum(eg) > 4:
                continue
            g = CFunction.monomial(vars_, eg)
            fg = starcalc.star(ctx, f, g)
            for eh in monos:
                if sum(ef) + sum(eg) + sum(eh) > 4:
                    continue
                h = CFunction.monomial(vars_, eh)
                if starcalc.star(ctx, fg, h) != starcalc.star(ctx, f, starcalc.star(ctx, g, h)):
                    ok = False
    _report("criterion 6: star oracle (both orderings) and associativity, degree <= 4", ok)


def test_criterion_07_taylor_identities():
    ok = True
    for space in SPACES:
        ok &= hopf.taylor_identity_check(space, max_degree=3).passed
    _report("criterion 7: all four Taylor identities, degree <= 3, both spaces", ok)


def test_criterion_08_jackson_calculus():
    vars_ = space_vars("line")
    ok = True
    for n in range(7):
        f = CFunction.monomial(vars_, (0, n))
        F = f.jackson_antiderivative("x1", 1)
        ok &= F.jackson_d("x1", 1) == f
    q0 = 1.1
    lat = LatticeFunction.from_cfunction(
        CFunction.monomial(vars_, (0, 1)), "x1", q0, 800
    )
    val = jackson_integral_numeric(lat, 1, "0_x", 1e-12)
    ok &= abs(val.real - 1 / (1 + q0)) < 1e-10
    f = CFunction(vars_, {(0, 1): ONE})
    g = CFunction(vars_, {(0, 1): ONE, (1, 0): scalar(2)})
    ok &= evolution.ibp_check(f, g, scalar(Fraction(1, 2)), scalar(3)).passed
    ok &= evolution.ibp_check_numeric(q0, 1e-12).passed
    _report("criterion 8: Jackson inverse pair, numeric integral, eight IBP identities", ok)


def test_criterion_09_evolution():
    ok = True
    for space in SPACES:
        H = evolution.free_hamiltonian(space)
        ok &= evolution.schrodinger_residual(evolution.build_U(H, 3), H).passed
        ok &= evolution.compose_check(H, 4).passed
        ok &= evolution.unitarity_check(H, 4).passed
        ok &= evolution.dyson_check(H, 4).passed
    Hline = evolution.Hamiltonian(normal_form("line", ("d1", "d1")), hermitian=True)
    O = NCElement.generator("line", "x1")
    ok &= evolution.heisenberg_check(O, Hline, 3).passed
    series = evolution.heisenberg_evolve(O, Hline, 3)
    ok &= series.coeff(1).eval_coeffs_exact(1) == {
        (0, 0, 0, 1, 0): GaussianRational(0, 2)
    }
    _report("criterion 9: Schroedinger, composition, unitarity, Dyson, Heisenberg", ok)


def test_criterion_10_classical_limits():
    ok = True
    vars3 = space_vars("euclid3")
    ctx = starcalc.StarContext("euclid3")
    monos = _monomials(vars3, 4)
    for ef in monos:
        f = CFunction.monomial(vars3, ef)
        for eg in monos:
            if sum(ef) + sum(eg) > 4:
                continue
            g = CFunction.monomial(vars3, eg)
            ok &= starcalc.star(ctx, f, g).eval_coeffs_exact(1) == (f * g).eval_coeffs_exact(1)
    # translations reduce to the classical shift
    vars1 = space_vars("line")
    for e in _monomials(vars1, 4):
        f = CFunction.monomial(vars1, e)
        t = hopf.translate("line", "Lbar", f).eval_coeffs_exact(1)
        dv = hopf.doubled_vars("line")
        want = {}
        n0, n1 = e
        for a in range(n0 + 1):
            for b in range(n1 + 1):
                key = [0, 0, 0, 0]
                key[dv.index("x0")] = a
                key[dv.index("y0")] = n0 - a
                key[dv.index("x1")] = b
                key[dv.index("y1")] = n1 - b
                want[tuple(key)] = GaussianRational(
                    math.comb(n0, a) * math.comb(n1, b)
                )
        ok &= t == want
    # derivative actions reduce to classical derivatives
    for e in _monomials(vars3, 4):
        f = CFunction.monomial(vars3, e)
        got = qfunc.act_partial_closed("+", "left", f, "euclid3").eval_coeffs_exact(1)
        want = f.classical_d("xp").eval_coeffs_exact(1)
        ok &= got == want
    # exponential coefficients reduce to reciprocal factorials
    for exps, _d, coeff in pairexp.qexp("line", "x_d", 4):
        want = ONE / (
            pairexp.classical_factorial(exps[0]) * pairexp.classical_factorial(exps[1])
        )
        ok &= coeff.eval_exact(1) == want.eval_exact(1)
    _report("criterion 10: classical limits at q = 1, exact rational comparison", ok)


def test_criterion_11_grassmann():
    _report("criterion 11: superanalysis identities", grassmann.grassmann_suite().passed)


def test_criterion_12_cli(capsys):
    import json
    import random

    rng = random.Random(99)
    scalars = ["1", "2", "3/4", "q", "q^2", "q^-1", "i", "lambda", "lambda_plus"]
    pools = {
        ("line", "c"): ["x0", "x1"],
        ("euclid3", "c"): ["x0", "xp", "x3", "xm"],
        ("line", "nc"): ["X0", "X1", "d0", "d1", "dh1", "L"],
        ("euclid3", "nc"): ["X0", "Xp", "X3", "Xm", "d0", "dp", "d3", "dm", "dh3", "L"],
    }
    ok = True
    for _ in range(200):
        space = rng.choice(["line", "euclid3"])
        kind = rng.choice(["scalar", "c", "nc"])
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(scalars)]
            if kind != "scalar":
                for _ in range(rng.randint(1, 3)):
                    name = rng.choice(pools[(space, kind)])
                    p = rng.randint(1, 3)
                    factors.append(name if p == 1 else f"{name}^{p}")
            terms.append(" ".join(factors))
        text = " + ".join(terms)
        printed = render(parse(text, space))
        ok &= render(parse(printed, space)) == printed

    code = main(["verify", "--all", "--json"])
    out = capsys.readouterr().out
    reports = json.loads(out)
    ok &= code == 0
    # byte-identical to the output recorded by the benchmark's reference
    reference = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                             "perfbench", "reference", "verify_all.json")
    with open(reference) as fh:
        ok &= out == fh.read()
    ok &= all(r["status"] != "fail" for r in reports)
    notes = " ".join(note for r in reports for note in r["notes"])
    ok &= "transposition" in notes           # time-block decision recorded
    ok &= "time centrality" in notes         # hatted time-rule subscripts recorded
    with capsys.disabled():
        _report("criterion 12: CLI round trip and verify --all --json with recorded notes",
                ok, f"{len(reports)} reports")
