"""Command-line interface: expression tools and the verification runner.

Exit codes: 0 when everything passes, 1 on a verification failure or when
a command raises ValueError or ArithmeticError (a sum that does not
converge), 2 on usage or parse errors: an unknown option, an option outside
its domain (a derivative index or variant the space does not have, an int
--tol that is not finite and positive, a verify --degree above 8, a verify
--q0 outside 1.1 to 1.3), a division by a zero scalar or a zero scalar to a
negative power in an expression (a parse error at its '/' or '^'), 3 when
a command runs out of memory (one line on stderr, no traceback).
Each command imports the layers it uses when it runs, so that a process
compiles only those."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .spaces import CALCULI, E3, LABELS, SPACES, SUFFIX_LABEL

# the command-line spellings: exponentials without the underscore and with
# "hat" cut to "h"; action modes as named and without the underscore
_EXP_NAMES = {row[2].replace("_", "").replace("hat", "h"): row[2] for row in CALCULI.values()}
_ACTION_NAMES = {name: mode for mode in CALCULI for name in (mode, mode.replace("_", ""))}


def _finite(text, what, ok):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or not ok(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite {what} number")
    return value


def _q_number(text):
    """The type of --q-value: a finite, nonzero number."""
    return _finite(text, "nonzero", bool)


# the documented lattice bases of verify --q0, read by the one float report,
# the whole-line integral of exp(-x^2): below about 1.07 its 400-point lattice
# runs off the cutoff (NonConvergentSum), above about 2.8 a float overflows
_VERIFY_Q0 = (1.1, 1.3)


def _verify_q0(text):
    """The type of verify --q0: a number in the closed interval _VERIFY_Q0."""
    value = _q_number(text)
    lo, hi = _VERIFY_Q0
    if not lo <= value <= hi:
        raise argparse.ArgumentTypeError(f"{text!r} is not a lattice base from {lo} to {hi}")
    return value


def _tolerance(text):
    """The type of int --tol: a finite, positive number."""
    return _finite(text, "positive", lambda value: value > 0)


# the largest verify --degree: the star suite's cost grows about fivefold
# per two degrees, so a mistyped degree fails at once instead of running on
_MAX_VERIFY_DEGREE = 8


def _verify_degree(text):
    """The type of verify --degree: an integer from 0 to _MAX_VERIFY_DEGREE."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= _MAX_VERIFY_DEGREE:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a nonnegative integer at most {_MAX_VERIFY_DEGREE}")
    return value


def _add_common(p):
    p.add_argument("--space", choices=SPACES, default=E3)
    p.add_argument("--json", action="store_true", help="emit JSON")


def _add_rendered(p):
    _add_common(p)
    p.add_argument("--q-value", type=_q_number, default=None,
                   help="print scalars evaluated at this numeric q")


def build_parser(command=None):
    """The argument parser.  The verify help lists the suite names only when
    command is "verify", so that no other command imports the suites."""
    suites_help = None
    if command == "verify":
        from .suites import SUITES

        suites_help = f"suite names: {', '.join(sorted(SUITES))}"
    ap = argparse.ArgumentParser(
        prog="qspace",
        description="exact computer algebra for two q-deformed quantum spaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*", help=suites_help)
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--space", choices=SPACES, default=None,
                   help="restrict to one space")
    p.add_argument("--json", action="store_true")
    p.add_argument("--degree", type=_verify_degree, default=4)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--q0", type=_verify_q0, default=1.1)

    p = sub.add_parser("nf", help="normal-order a noncommutative expression")
    p.add_argument("expr")
    _add_rendered(p)

    p = sub.add_parser("star", help="star product of two commutative polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--reversed", action="store_true", dest="reversed_order")
    _add_rendered(p)

    p = sub.add_parser("d", help="closed-form derivative action")
    p.add_argument("expr")
    p.add_argument("--index", required=True, help="0, 1, +, 3, - (or p/m)")
    p.add_argument("--variant", default="left",
                   help="left, left_bar, right, right_bar")
    _add_rendered(p)

    p = sub.add_parser("int", help="numeric Jackson integral of lattice samples")
    p.add_argument("--from", dest="lower", required=True, help="0, x, inf or -inf")
    p.add_argument("--to", dest="upper", required=True)
    p.add_argument("--q", dest="q0", type=float, required=True)
    p.add_argument("--a", type=int, default=1, help="base exponent of the scale")
    p.add_argument("--samples", required=True,
                   help="file of 'k value' lines: f(q^k) = value")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("translate", help="q-translation of a polynomial")
    p.add_argument("expr")
    p.add_argument("--variant", choices=("L", "Lbar"), default="Lbar")
    _add_rendered(p)

    p = sub.add_parser("antipode", help="q-antipode of a polynomial")
    p.add_argument("expr")
    p.add_argument("--variant", choices=("L", "Lbar"), default="Lbar")
    _add_rendered(p)

    p = sub.add_parser("exp", help="print a truncated q-exponential")
    p.add_argument("--variant", choices=sorted(_EXP_NAMES), default="xd")
    _add_common(p)
    p.add_argument("--degree", type=int, default=4)

    p = sub.add_parser("evolve", help="evolution-operator series and checks")
    p.add_argument("--H", dest="generator", default="free",
                   help="'free' or a spatial operator expression")
    p.add_argument("--observable", default=None,
                   help="spatial operator expression to evolve")
    _add_common(p)
    p.add_argument("--order", type=int, default=4)
    return ap


def _emit(args, value):
    from .expressions import render

    if getattr(args, "json", False):
        print(json.dumps({"kind": value.kind, "text": render(value, args.q_value)}))
    else:
        print(render(value, args.q_value))
    return 0


def _cmd_verify(args):
    from .suites import SUITES, SuiteOptions, run_suite

    names = list(SUITES) if args.all or not args.suites else args.suites
    spaces = (args.space,) if args.space else SPACES
    opts = SuiteOptions(degree=args.degree, order=args.order, q0=args.q0, spaces=spaces)
    try:
        reports = run_suite(names, opts)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        _print_reports(reports)
    return 0 if all(r.status != "fail" for r in reports) else 1


def _print_reports(reports):
    """Each report's summary line, then its notes and first five failures."""
    for r in reports:
        print(r.summary_line())
        for note in r.notes:
            print(f"    note: {note}")
        for f in r.failures[:5]:
            print(f"    at {f.indices}: {f.lhs} != {f.rhs}")


def _cmd_nf(args):
    from .expressions import parse

    return _emit(args, parse(args.expr, args.space))


def _commutative(text, space, what):
    """Parse a commutative polynomial argument; a scalar is the constant
    polynomial."""
    from .cfunc import CFunction, space_vars
    from .expressions import ParseError, parse

    v = parse(text, space)
    if v.kind == "scalar":
        return CFunction.constant(space_vars(space), v.data)
    if v.kind != "c":
        raise ParseError(f"{what} apply to commutative polynomials", 0)
    return v.data


def _operator(text, space, what):
    """Parse a noncommutative operator argument."""
    from .expressions import ParseError, parse

    v = parse(text, space)
    if v.kind != "nc":
        raise ParseError(f"the {what} must be a noncommutative operator", 0)
    return v.data


def _cmd_star(args):
    from .expressions import Value
    from .starcalc import StarContext, star

    f = _commutative(args.f, args.space, "star products")
    g = _commutative(args.g, args.space, "star products")
    ctx = StarContext(args.space, "reversed" if args.reversed_order else "standard")
    return _emit(args, Value("c", star(ctx, f, g)))


def _cmd_d(args):
    from .expressions import Value
    from .qfunc import act_partial_closed

    f = _commutative(args.expr, args.space, "derivative actions")
    idx = SUFFIX_LABEL.get(args.index, args.index)
    if idx not in LABELS[args.space]:
        return _usage_error(f"unknown derivative index {args.index!r} for {args.space}")
    variant = _ACTION_NAMES.get(args.variant)
    if variant is None:
        return _usage_error(f"unknown variant {args.variant!r}")
    out = act_partial_closed(idx, variant, f, args.space)
    return _emit(args, Value("c", out))


def _parse_bound(text):
    """'0', 'inf' or '-inf' as written, else a nonzero finite float."""
    if text in ("0", "inf", "-inf"):
        return text
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x) or not x:
        raise ValueError(f"bound {text!r} is not 0, inf, -inf or a nonzero lattice point")
    return x


# (--from, --to) -> Jackson bounds, with "x" for the bound at a lattice
# point x = sign * q0^k0; the sign of each bounds' axis is cfunc._BOUNDS'
_INT_BOUNDS = {
    ("0", "x"): "0_x",
    ("x", "inf"): "x_inf",
    ("x", "0"): "x_0",
    ("-inf", "x"): "minusinf_x",
}


def _read_samples(path):
    """The 'k value' lines of a samples file as {(1, k): f(q^k)}; blank lines
    and lines starting with '#' are skipped."""
    samples = {}
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) < 2:
                raise ValueError(f"line {n}: expected 'k value', got {line.strip()!r}")
            try:
                samples[(1, int(fields[0]))] = complex(float(fields[1]))
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from None
    if not samples:
        raise ValueError("no 'k value' lines")
    return samples


def _usage_error(text):
    print(text, file=sys.stderr)
    return 2


def _cmd_int(args):
    from .cfunc import _BOUNDS, LatticeFunction, NonConvergentSum, jackson_integral_numeric

    try:
        samples = _read_samples(args.samples)
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        return _usage_error(f"error: samples file {args.samples}: {reason}")
    kmax = max(abs(k) for _, k in samples)
    for k in range(-kmax, kmax + 1):
        samples.setdefault((1, k), 0j)
        samples.setdefault((-1, k), 0j)
    try:
        lat = LatticeFunction(args.q0, kmax, samples)
    except ValueError as exc:
        return _usage_error(f"error: --q {args.q0}: {exc}")
    if not args.a:
        return _usage_error("error: --a 0: the base exponent must be nonzero")
    try:
        ends = (_parse_bound(args.lower), _parse_bound(args.upper))
    except ValueError as exc:
        return _usage_error(f"error: {exc}")
    bounds = _INT_BOUNDS.get(tuple("x" if isinstance(e, float) else e for e in ends))
    if bounds is None:
        return _usage_error("unsupported bound combination")
    sign = _BOUNDS[bounds][0]
    x = next(e for e in ends if isinstance(e, float))
    if (x > 0) != (sign > 0):
        return _usage_error(
            f"error: bound {x} is not on the {'positive' if sign > 0 else 'negative'} axis"
            f" that --from {args.lower} --to {args.upper} integrates on"
        )
    k0 = round(math.log(abs(x)) / math.log(args.q0))
    if abs(args.q0 ** k0 - abs(x)) > 1e-9 * abs(x):
        return _usage_error(f"error: bound {x} is not a lattice point of q0={args.q0}")
    try:
        # + 0j: the sum of zero samples times the axis sign -1 is -0.0
        val = jackson_integral_numeric(lat, args.a, bounds, args.tol, k0=k0) + 0j
    except (NonConvergentSum, ValueError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"value": [val.real, val.imag]}))
    else:
        print(val.real if abs(val.imag) < 1e-14 else val)
    return 0


def _cmd_translate(args):
    from .expressions import Value
    from .hopf import translate

    f = _commutative(args.expr, args.space, "translations")
    return _emit(args, Value("c", translate(args.space, args.variant, f)))


def _cmd_antipode(args):
    from .expressions import Value
    from .hopf import antipode

    f = _commutative(args.expr, args.space, "antipodes")
    return _emit(args, Value("c", antipode(args.space, args.variant, f)))


def _cmd_exp(args):
    from .pairexp import qexp

    series = qexp(args.space, _EXP_NAMES[args.variant], args.degree)
    if args.json:
        terms = []
        for exps, dword, coeff in series:
            terms.append({
                "coordinate_exponents": list(exps),
                "derivative_word": str(dword),
                "coefficient": str(coeff),
            })
        print(json.dumps({"space": args.space, "variant": args.variant,
                          "degree": args.degree, "terms": terms}, indent=2))
    else:
        print(series)
    return 0


def _cmd_evolve(args):
    from .evolution import (
        Hamiltonian,
        build_U,
        compose_check,
        dyson_check,
        free_hamiltonian,
        heisenberg_check,
        heisenberg_evolve,
        schrodinger_residual,
        unitarity_check,
    )

    if args.generator == "free":
        H = free_hamiltonian(args.space)
    else:
        op = _operator(args.generator, args.space, "generator")
        if not op.is_spatial():
            return _usage_error("error: Hamiltonians must not involve time or scaling factors")
        H = Hamiltonian(op)
    U = build_U(H, args.order)
    reports = [
        schrodinger_residual(H, max(1, args.order - 1)),
        compose_check(H, args.order),
        unitarity_check(H, args.order),
        dyson_check(H, args.order),
    ]
    obs_series = None
    if args.observable:
        O = _operator(args.observable, args.space, "observable")
        obs_series = heisenberg_evolve(O, H, args.order)
        reports.append(heisenberg_check(O, H, args.order))
    if args.json:
        payload = {
            "U": [str(c) for c in U.coeffs],
            "reports": [r.to_json() for r in reports],
        }
        if obs_series is not None:
            payload["observable"] = [str(c) for c in obs_series.coeffs]
        print(json.dumps(payload, indent=2))
    else:
        print("U(t):", U)
        if obs_series is not None:
            print("O(t):", obs_series)
        _print_reports(reports)
    return 0 if all(r.status != "fail" for r in reports) else 1


_COMMANDS = {
    "verify": _cmd_verify,
    "nf": _cmd_nf,
    "star": _cmd_star,
    "d": _cmd_d,
    "int": _cmd_int,
    "translate": _cmd_translate,
    "antipode": _cmd_antipode,
    "exp": _cmd_exp,
    "evolve": _cmd_evolve,
}


def _joined_bounds(argv):
    """argv with '--from -inf' joined into '--from=-inf' (and so for --to):
    argparse takes a lone '-inf' for an option, not for a value."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--from", "--to") and arg[:1] == "-" and arg[1:2] != "-":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)
    if argv[:1] == ["int"]:
        argv = _joined_bounds(argv)
    args = ap.parse_args(argv)
    if min(getattr(args, "degree", 0), getattr(args, "order", 0)) < 0:
        ap.error("--degree and --order must be nonnegative")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        from .expressions import ParseError

        if isinstance(exc, ParseError):
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
