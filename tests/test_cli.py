import argparse
import json
import os
import random
import subprocess
import sys

import pytest

from qspace import cli
from qspace.cli import main
from qspace.expressions import parse, render


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_nf_command(capsys):
    code, out, _ = run(capsys, "nf", "Xm Xp", "--space", "euclid3")
    assert code == 0
    assert out == "(q - q^-1) X3^2 + Xp Xm"


def test_nf_hatted_input(capsys):
    code, out, _ = run(capsys, "nf", "dh1 X1", "--space", "line")
    assert code == 0
    # dh1 = q d1: q d1 X1 = q + q^2 X1 d1
    assert out == "q + q^2 X1 d1"


def test_star_command(capsys):
    code, out, _ = run(capsys, "star", "xm", "xp", "--space", "euclid3")
    assert code == 0
    assert out == "(q - q^-1) x3^2 + xp xm"
    code, out, _ = run(capsys, "star", "x3", "xp", "--space", "euclid3")
    assert out == "q^2 xp x3"


def test_d_command(capsys):
    code, out, _ = run(capsys, "d", "x3^2", "--index", "3", "--variant", "left",
                       "--space", "euclid3")
    assert code == 0
    assert out == "(q^2 + 1) x3"


def test_translate_antipode_commands(capsys):
    code, out, _ = run(capsys, "translate", "x1^2", "--variant", "L", "--space", "line")
    assert code == 0
    assert out == "y1^2 + (1 + q^-1) x1 y1 + x1^2"
    code, out, _ = run(capsys, "antipode", "x1^2", "--variant", "L", "--space", "line")
    assert out == "(q^-1) x1^2"


@pytest.mark.parametrize("argv,want", [
    (("translate", "2"), "2"),
    (("translate", "2", "--space", "line"), "2"),
    (("antipode", "2"), "2"),
    (("antipode", "1/(1+q)", "--variant", "L"), "1/(q + 1)"),
    (("d", "2", "--index", "0"), "0"),
    (("star", "2", "xp"), "2 xp"),
    (("star", "xp", "i"), "i xp"),
])
def test_scalar_arguments_are_constant_polynomials(capsys, argv, want):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("argv", [
    ("translate", "Xp"),
    ("antipode", "Xp"),
    ("d", "Xp", "--index", "0"),
    ("star", "Xp", "xp"),
])
def test_noncommutative_arguments_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "apply to commutative polynomials" in err


def test_exp_command(capsys):
    code, out, _ = run(capsys, "exp", "--space", "line", "--degree", "1")
    assert code == 0
    assert "x1 (x) d1" in out and "x0 (x) d0" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "x1 +* 2", "--space", "line")
    assert code == 2
    assert "parse error" in err


def test_an_integer_literal_too_long_for_int_is_a_parse_error(capsys):
    # int() refuses more than 4300 digits; that used to exit 1 with its message
    code, _, err = run(capsys, "nf", "Xm " + "9" * 5000 + " Xp")
    assert code == 2
    assert err == "parse error: integer literal too long (at position 3)"


@pytest.mark.parametrize("argv,at", [
    (("nf", "1/(q-q)"), 1),
    (("d", "+0^-1xpx0", "--index", "+"), 2),
    (("star", "1/(q-q) xp", "xm"), 1),
    (("nf", "Xm (q - q)^-2"), 10),
    (("star", "xp", "2 / (1 - 1)"), 2),
])
def test_a_zero_divisor_is_a_parse_error_at_its_operator(capsys, argv, at):
    # a division by a zero scalar, or a zero scalar to a negative power, used
    # to exit 1 with "error: division by zero scalar"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: division by zero scalar (at position {at})"


def _timed_main(*argv):
    """Exit code, seconds spent in main and stderr of one command run in a
    fresh interpreter; the subprocess timeout turns a hang into a failure."""
    import qspace

    src = os.path.dirname(os.path.dirname(os.path.abspath(qspace.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, time\nfrom qspace.cli import main\nt = time.perf_counter()\n"
            f"c = main({list(argv)!r})\nprint(time.perf_counter() - t)\nsys.exit(c)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env, check=False)
    return proc.returncode, float(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("argv", [
    ("nf", "Xm^99999999999999999999"),
    ("star", "xm^99999999999999999999", "xp"),
])
def test_an_exponent_beyond_the_bound_is_a_usage_error(argv):
    # nf used to fail with an index-size error, star to run qbinom's rows
    # 10^20 times
    code, seconds, err = _timed_main(*argv)
    assert code == 2, err
    assert "parse error: exponents are bounded by 10000" in err
    assert seconds < 1.0


def test_star_by_a_coordinate_builds_no_binomial_rows():
    # [[n over 1]] is the q-number; building n Pascal rows for it took 8.8 s
    code, seconds, err = _timed_main("star", "xm^10000", "xp")
    assert code == 0, err
    assert seconds < 2.0


def test_the_exponent_bound_applies_to_every_literal():
    from qspace.expressions import MAX_EXPONENT, ParseError

    assert MAX_EXPONENT == 10_000
    assert str(parse("q^10000", "line").data) == "q^10000"
    assert str(parse("q^(-10000/2)", "line").data) == "q^-5000"
    assert str(parse("X1^10000", "line").data) == "X1^10000"
    # the bound is on the literal, also on k in k/2, and is checked at the
    # '^' after the exponent's syntax; a literal too long for int() is over it
    for text, pos in [("q^10001", 1), ("x1 X1^-10001", 5), ("2 q^(10001/2)", 3),
                      ("L^(-20000/2)", 1), ("x1^" + "9" * 5000, 2)]:
        with pytest.raises(ParseError, match="exponents are bounded by 10000") as info:
            parse(text, "line")
        assert info.value.pos == pos, text


def test_mixing_error_exit_code(capsys):
    code, _, err = run(capsys, "nf", "x1 X1", "--space", "line")
    assert code == 2


def test_unknown_suite_exit_code(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_single_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "ybe", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    for rep in reports:
        assert set(rep) == {"check", "space", "status", "failures", "notes"}
        assert rep["status"] == "pass"
        assert rep["failures"] == []
    spaces = {r["space"] for r in reports}
    assert spaces == {"line", "euclid3"}


def test_verify_grassmann(capsys):
    code, out, _ = run(capsys, "verify", "grassmann")
    assert code == 0
    assert "[PASS] grassmann" in out


def test_verify_space_restricts_reports(capsys):
    # grassmann lives on the line, metric and star on euclid3
    for space in ("line", "euclid3"):
        code, out, _ = run(capsys, "verify", "grassmann", "metric", "star",
                           "--degree", "1", "--space", space, "--json")
        assert code == 0
        reports = json.loads(out)
        assert reports and {r["space"] for r in reports} == {space}


@pytest.fixture
def report_spaces(monkeypatch):
    """The space of every VerificationReport built while the test runs."""
    from qspace import reports

    built = []
    init = reports.VerificationReport.__init__

    def recording_init(self, check, space, *args, **kwargs):
        built.append(space)
        init(self, check, space, *args, **kwargs)

    monkeypatch.setattr(reports.VerificationReport, "__init__", recording_init)
    return built


def test_verify_single_space_does_no_other_space_work(capsys, report_spaces):
    # star and metric live on euclid3 only: asking for them on the line must
    # not build a single euclid3 report (and prints nothing)
    code, out, _ = run(capsys, "verify", "star", "metric", "--space", "line")
    assert code == 0
    assert out == ""
    assert report_spaces == []


def test_every_suite_builds_reports_only_on_requested_spaces(report_spaces):
    from qspace.suites import SUITES, SuiteOptions, run_suite

    for space in ("line", "euclid3"):
        report_spaces.clear()
        got = run_suite(list(SUITES), SuiteOptions(degree=1, order=1, spaces=(space,)))
        assert got and {r.space for r in got} == {space}
        assert set(report_spaces) == {space}


@pytest.mark.parametrize("text, mono", [
    ("L Xp", "Xp L"), ("L^2", "L^2"), ("L^(1/2)", "L^(1/2)"), ("L^(1/2) Xp", "Xp L^(1/2)"),
])
def test_q_value_rendering_keeps_exact_monomials(capsys, text, mono):
    code, exact, _ = run(capsys, "nf", text, "--space", "euclid3")
    assert code == 0
    code, out, _ = run(capsys, "nf", text, "--space", "euclid3", "--q-value", "1.1")
    assert code == 0
    # one term: the numeric coefficient, then the monomial the exact printer uses
    assert exact.endswith(mono)
    cs, _, rest = out.partition(") ")
    assert cs.startswith("(") and rest == mono
    (c,) = parse(text, "euclid3").data.terms.values()
    assert abs(complex(cs[1:]) - c.eval_float(1.1)) < 1e-9


def test_q_value_rendering_of_commutative_and_constant_terms(capsys):
    code, out, _ = run(capsys, "nf", "q x1^2 + 2", "--space", "line", "--q-value", "2")
    assert code == 0
    assert out == "(2+0j) + (2+0j) x1^2"
    code, out, _ = run(capsys, "nf", "q^2", "--space", "line", "--q-value", "1.1")
    assert out == "(1.21+0j)"


@pytest.mark.parametrize("argv", [
    ("verify", "oracle-actions", "star", "--degree", "-1"),
    ("verify", "evolution", "--order", "-1"),
    ("exp", "--degree", "-1"),
    ("evolve", "--order", "-1"),
])
def test_negative_degree_or_order_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9", "10", "99999999999999999999"])
def test_verify_degree_above_eight_is_usage_error(capsys, value):
    """The parser rejects the degree, so no suite starts; exp --degree and
    evolve --order keep no upper bound."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser("verify").parse_args(["verify", "star", "--degree", value])
    assert exc.value.code == 2
    assert f"argument --degree: '{value}' is not a nonnegative integer at most 8" in (
        capsys.readouterr().err)
    assert cli.build_parser("verify").parse_args(["verify", "--degree", "8"]).degree == 8
    assert cli.build_parser("exp").parse_args(["exp", "--degree", value]).degree == int(value)
    assert cli.build_parser("evolve").parse_args(["evolve", "--order", value]).order == int(value)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.0"])
@pytest.mark.parametrize("argv", [
    ("nf", "Xm", "--q-value"),
    ("d", "x3", "--index", "3", "--q-value"),
    ("verify", "numeric-integrals", "--q0"),
])
def test_non_finite_or_zero_q_is_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    assert "is not a finite nonzero number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.0999", "1.3001", "2", "1", "0.5", "-1.1", "10"])
def test_verify_q0_outside_its_interval_is_usage_error(capsys, value):
    """1.1 to 1.3 is the documented range of the whole-line bump's lattice
    base, so the parser rejects any other base before any suite starts."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "numeric-integrals", "--q0", value])
    assert exc.value.code == 2
    assert f"argument --q0: '{value}' is not a lattice base from 1.1 to 1.3" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("value", ["1.1", "1.3"])
def test_verify_q0_at_either_end_runs_the_numeric_suite(capsys, value):
    code, out, _ = run(capsys, "verify", "numeric-integrals", "--q0", value, "--json")
    assert code == 0
    assert [r["status"] for r in json.loads(out)] == ["pass"] * 5


def test_suite_options_reject_negative_bounds():
    from qspace.suites import SuiteOptions

    with pytest.raises(ValueError):
        SuiteOptions(degree=-1)
    with pytest.raises(ValueError):
        SuiteOptions(order=-1)


def test_run_suite_empty_is_empty():
    from qspace.suites import run_suite

    assert run_suite([]) == []


def test_half_power_round_trips():
    # scalars in powers of sqrt(q) and half-integer scaling operators
    v = parse("q^(3/2)", "line")
    assert render(parse(render(v), "line")) == render(v)
    w = parse("L^(1/2) Xp", "euclid3")
    printed = render(w)
    assert render(parse(printed, "euclid3")) == printed
    n = parse("L^(-3/2)", "euclid3")
    assert render(parse(render(n), "euclid3")) == render(n)


@pytest.mark.parametrize("space,text,want", [
    ("euclid3", "x0 + -x3^2", "x0 - x3^2"),
    ("line", "1 + -2^2", "-3"),
    ("euclid3", "Xp * -Xm^2", "-Xp Xm^2"),
    ("euclid3", "-x3^2", "-x3^2"),
    ("euclid3", "(-x3)^2", "x3^2"),
])
def test_unary_minus_binds_looser_than_power(space, text, want):
    assert render(parse(text, space)) == want


def test_q_value_rendering(capsys):
    code, out, _ = run(capsys, "nf", "q^2 Xp", "--space", "euclid3",
                       "--q-value", "1.1")
    assert code == 0
    assert out.startswith("(1.21")


def test_int_command(tmp_path, capsys):
    q0 = 1.1
    path = tmp_path / "samples.txt"
    with open(path, "w") as fh:
        for k in range(-220, 80):
            fh.write(f"{k} {q0 ** k}\n")
    code, out, _ = run(capsys, "int", "--from", "0", "--to", "1", "--q", "1.1",
                       "--samples", str(path))
    assert code == 0
    assert abs(float(out) - 1 / 2.1) < 1e-9


@pytest.mark.parametrize("content, where", [
    (None, "No such file or directory"),
    ("# nothing but a comment\n\n", "no 'k value' lines"),
    ("0 1.0\n1 1.1\n2\n", "line 3: expected 'k value', got '2'"),
    ("0 1.0\n# k value\n1 abc\n", "line 3: could not convert string to float: 'abc'"),
], ids=["missing", "empty", "one-field", "not-a-number"])
def test_int_bad_samples_file_is_a_usage_error(tmp_path, capsys, content, where):
    path = tmp_path / "samples.txt"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, "int", "--from", "0", "--to", "1", "--q", "1.1",
                         "--samples", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: samples file {path}: {where}"


def test_int_bound_pairs(tmp_path, capsys):
    # f(x) = x on the positive axis: int_0^1 x d_q x = 1/[[2]] at q0
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    code, out, _ = run(capsys, "int", "--from", "0", "--to", "1", "--q", "1.1",
                       "--samples", str(path))
    assert (code, abs(float(out) - 1 / 2.1) < 1e-9) == (0, True)
    # the negative axis carries no samples, so both of its bounds integrate 0
    for lower, upper in (("-1", "0"), ("-inf", "-1")):
        # written --from=..., since argparse takes a lone "-inf" for an option
        code, out, _ = run(capsys, "int", f"--from={lower}", f"--to={upper}", "--q", "1.1",
                           "--samples", str(path))
        assert (code, float(out)) == (0, 0.0)
    code, _, err = run(capsys, "int", "--from", "0", "--to", "inf", "--q", "1.1",
                       "--samples", str(path))
    assert (code, err) == (2, "unsupported bound combination")


def test_int_negative_bound_written_with_a_space(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    got = [run(capsys, "int", *lower, "--to", "-1.21", "--q", "1.1", "--samples", str(path))
           for lower in (("--from", "-inf"), ("--from=-inf",))]
    assert got[0] == got[1]
    code, out, err = got[0]
    assert (code, float(out), err) == (0, 0.0, "")


@pytest.mark.parametrize("bounds, where", [
    (("--from", "0", "--to", "abc"), "error: bound 'abc' is not 0, inf, -inf or a nonzero lattice point"),
    (("--from", "0", "--to", "0.0"), "error: bound '0.0' is not 0, inf, -inf or a nonzero lattice point"),
    (("--from", "0", "--to=-1.21"),
     "error: bound -1.21 is not on the positive axis that --from 0 --to -1.21 integrates on"),
    (("--from", "1.21", "--to", "0"),
     "error: bound 1.21 is not on the negative axis that --from 1.21 --to 0 integrates on"),
    (("--from", "0", "--to", "1.5"), "error: bound 1.5 is not a lattice point of q0=1.1"),
], ids=["not-a-number", "zero-lattice-point", "negative-on-positive-axis",
        "positive-on-negative-axis", "off-the-lattice"])
def test_int_bad_bound_is_a_usage_error(tmp_path, capsys, bounds, where):
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    code, out, err = run(capsys, "int", *bounds, "--q", "1.1", "--samples", str(path))
    assert (code, out, err) == (2, "", where)


@pytest.mark.parametrize("q0", ["1", "0.5", "-2", "nan"])
def test_int_bad_q_is_a_usage_error(tmp_path, capsys, q0):
    path = tmp_path / "samples.txt"
    path.write_text("0 1.0\n")
    code, out, err = run(capsys, "int", "--from", "0", "--to", "1", "--q", q0,
                         "--samples", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: --q {float(q0)}: lattice base q0 must exceed 1"


def test_int_infinite_q_is_a_usage_error(tmp_path, capsys):
    # a nan --q is one of test_int_bad_q_is_a_usage_error's rows
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    code, out, err = run(capsys, "int", "--from", "0", "--to", "1", "--q", "inf",
                         "--samples", str(path))
    assert (code, out, err) == (2, "", "error: --q inf: lattice base q0 must be finite")


def test_int_zero_base_exponent_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    code, out, err = run(capsys, "int", "--from", "0", "--to", "1", "--q", "1.1", "--a", "0",
                         "--samples", str(path))
    assert (code, out, err) == (2, "", "error: --a 0: the base exponent must be nonzero")


def test_int_zero_on_the_negative_axis_prints_unsigned_zero(tmp_path, capsys):
    # samples on the positive axis only: both negative-axis integrals are 0
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    for bounds in (("--from", "-inf", "--to", "-1.21"), ("--from=-1.21", "--to", "0")):
        got = run(capsys, "int", *bounds, "--q", "1.1", "--samples", str(path))
        assert got == (0, "0.0", "")
        got = run(capsys, "int", *bounds, "--q", "1.1", "--samples", str(path), "--json")
        assert got == (0, '{"value": [0.0, 0.0]}', "")


def test_evolve_command(capsys):
    code, out, _ = run(capsys, "evolve", "--H", "free", "--order", "3",
                       "--space", "line", "--observable", "X1")
    assert code == 0
    assert "[PASS] schrodinger" in out
    assert "[PASS] heisenberg" in out


def test_exp_json_lists_terms(capsys):
    code, out, _ = run(capsys, "exp", "--space", "line", "--degree", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["space"], payload["variant"], payload["degree"]) == ("line", "xd", 1)
    assert payload["terms"] == [
        {"coordinate_exponents": [0, 0], "derivative_word": "1", "coefficient": "1"},
        {"coordinate_exponents": [0, 1], "derivative_word": "d1", "coefficient": "1"},
        {"coordinate_exponents": [1, 0], "derivative_word": "d0", "coefficient": "1"},
    ]


def test_evolve_json_with_an_operator_generator_and_observable(capsys):
    code, out, _ = run(capsys, "evolve", "--H", "d1 d1", "--observable", "X1",
                       "--space", "line", "--order", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"U", "reports", "observable"}
    assert payload["U"] == ["1", "-i d1^2", "(-(1/2)) d1^4"]
    assert payload["observable"][:2] == ["X1", "(i q + i) d1 + (i q^2 - i) X1 d1^2"]
    assert [r["check"] for r in payload["reports"]] == [
        "schrodinger", "composition", "unitarity", "dyson", "heisenberg"]
    assert all(r["status"] == "pass" for r in payload["reports"])


@pytest.mark.parametrize("argv", [
    ("--H", "x1"),
    ("--H", "2"),
    ("--observable", "x1^2"),
    ("--observable", "q"),
])
def test_evolve_commutative_or_scalar_operator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "evolve", "--space", "line", "--order", "1", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "must be a noncommutative operator" in err


@pytest.mark.parametrize("generator", ["1/2 L", "X0 dm dp", "d0"])
def test_evolve_generator_with_time_or_scaling_is_a_usage_error(capsys, generator):
    code, out, err = run(capsys, "evolve", "--H", generator, "--order", "1")
    assert (code, out, err) == (2, "", "error: Hamiltonians must not involve time or scaling factors")


def test_d_unknown_variant_is_a_usage_error(capsys):
    code, out, err = run(capsys, "d", "x1", "--index", "1", "--variant", "bogus",
                         "--space", "line")
    assert (code, out, err) == (2, "", "unknown variant 'bogus'")


def test_d_unknown_index_is_a_usage_error(capsys):
    from qspace.cfunc import CFunction, LINE_VARS
    from qspace.qfunc import act_partial_closed

    code, out, err = run(capsys, "d", "x1", "--space", "line", "--index", "3")
    assert (code, out, err) == (2, "", "unknown derivative index '3' for line")
    # library callers still get a ValueError
    with pytest.raises(ValueError, match="unknown derivative index '3' for line"):
        act_partial_closed("3", "left", CFunction.var(LINE_VARS, "x1"), "line")


def _samples_file(tmp_path, q0=1.1):
    path = tmp_path / "samples.txt"
    path.write_text("".join(f"{k} {q0 ** k}\n" for k in range(-220, 80)))
    return str(path)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["int"])
def test_tol_outside_its_domain_is_a_usage_error(tmp_path, capsys, command, value):
    argv = ["int", "--from", "0", "--to", "1", "--q", "1.1", "--samples", _samples_file(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", value])
    assert exc.value.code == 2
    assert f"{value!r} is not a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("nf", "Xm", "--tol", "1"),
    ("star", "xp", "xm", "--tol", "1"),
    ("exp", "--q-value", "2"),
    ("exp", "--tol", "1"),
    ("evolve", "--q-value", "1.1"),
    ("evolve", "--tol", "1"),
    # verify --tol is gone: whole-line-integrals compares its two minus
    # identities exactly, so no value, valid or not, is accepted
    *(("verify", "numeric-integrals", "--tol", value) for value in ("nan", "inf", "0", "-1", "1")),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read."""

    reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            _ReadRecorder.reads.add(name)
        return super().__getattribute__(name)


def test_every_option_has_a_reader(tmp_path, capsys):
    argvs = {
        "verify": ["ybe", "--space", "line"],
        "nf": ["x1", "--space", "line"],
        "star": ["x1", "x1", "--space", "line"],
        "d": ["x1", "--index", "1", "--space", "line"],
        "int": ["--from", "0", "--to", "1", "--q", "1.1", "--samples", _samples_file(tmp_path)],
        "translate": ["x1", "--space", "line"],
        "antipode": ["x1", "--space", "line"],
        "exp": ["--degree", "1", "--space", "line"],
        "evolve": ["--order", "1", "--space", "line"],
    }
    assert set(argvs) == set(cli._COMMANDS)
    for command, argv in argvs.items():
        args = cli.build_parser(command).parse_args([command, *argv], namespace=_ReadRecorder())
        options = set(vars(args)) - {"command"}
        _ReadRecorder.reads.clear()
        assert cli._COMMANDS[command](args) == 0
        capsys.readouterr()
        assert options - _ReadRecorder.reads == set(), command


def test_nf_json(capsys):
    code, out, _ = run(capsys, "nf", "d1 X1", "--space", "line", "--json")
    assert code == 0
    assert json.loads(out) == {"kind": "nc", "text": "1 + q X1 d1"}
    code, out, _ = run(capsys, "nf", "x1^2", "--space", "line", "--json")
    assert json.loads(out) == {"kind": "c", "text": "x1^2"}


def test_verify_text_prints_notes(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--space", "line")
    assert code == 0
    assert out.splitlines() == [
        "[PASS] relations [line]",
        "    note: the line antisymmetrizer carries the printed '+' subscript; "
        "relation projectors are selected by eigenvalue",
    ]


# -- the canonical-print corpus ------------------------------------------------

_SCALARS = ["1", "2", "3/4", "q", "q^2", "q^-1", "i", "lambda", "lambda_plus"]
_LINE_C = ["x0", "x1"]
_E3_C = ["x0", "xp", "x3", "xm"]
_LINE_NC = ["X0", "X1", "d0", "d1", "dh1", "L"]
_E3_NC = ["X0", "Xp", "X3", "Xm", "d0", "dp", "d3", "dm", "dh3", "L"]


def _random_expression(rng):
    space = rng.choice(["line", "euclid3"])
    kind = rng.choice(["scalar", "c", "nc"])
    pools = {
        ("line", "c"): _LINE_C,
        ("euclid3", "c"): _E3_C,
        ("line", "nc"): _LINE_NC,
        ("euclid3", "nc"): _E3_NC,
    }
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice(_SCALARS)]
        if kind != "scalar":
            for _ in range(rng.randint(1, 3)):
                name = rng.choice(pools[(space, kind)])
                power = rng.randint(1, 3)
                factors.append(name if power == 1 else f"{name}^{power}")
        terms.append(" ".join(factors))
    return space, " + ".join(terms)


def test_round_trip_corpus_of_200():
    rng = random.Random(2024)
    count = 0
    while count < 200:
        space, text = _random_expression(rng)
        value = parse(text, space)
        printed = render(value)
        reparsed = parse(printed, space)
        assert render(reparsed) == printed, (text, printed)
        count += 1


@pytest.mark.parametrize("word", ["Xm^12 Xp^12", "dm^6 Xm^6"])
def test_nf_ladders_finish_quickly(word):
    # the tree rewriter took minutes from Xm^8 Xp^8 on; insertion with
    # merged like terms takes well under a second here
    import qspace

    src = os.path.dirname(os.path.dirname(os.path.abspath(qspace.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qspace.cli", "nf", word, "--space", "euclid3"],
        capture_output=True, text=True, timeout=60, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# -- golden evolve output ------------------------------------------------------

_GOLDEN_EVOLVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_evolve.json")


def _golden_evolve():
    with open(_GOLDEN_EVOLVE, encoding="utf-8") as fh:
        return sorted(json.load(fh).items())


@pytest.mark.parametrize("command,stdout", _golden_evolve())
def test_evolve_json_matches_recorded_output(capsys, command, stdout):
    # recorded from the term-by-term evolution checks, before the power table
    assert main(command.split()) == 0
    assert capsys.readouterr().out == stdout
