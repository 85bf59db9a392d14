"""The four benchmark workloads: their seeded inputs, the operations a worker
times, and the correctness oracle each operation's output is checked
against after the timed region.

A workload is built by :func:`build`, which returns a list of ``Op`` and a
checker.  Every ``Op.run`` is a closed call into the public qspace API; the
checker receives the list of outputs (``None`` where an operation failed)
and returns ``{op index: reason}`` for every wrong output.  Functions are
looked up through their modules at call time so a tracer installed around
the timed region sees every call.

This module is imported by the worker only after ``qspace`` has been
imported and timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, NamedTuple

import qspace.cfunc as cfunc
import qspace.expressions as expressions
import qspace.hopf as hopf
import qspace.ncalgebra as ncalgebra
import qspace.pairexp as pairexp
import qspace.qfunc as qfunc
import qspace.starcalc as starcalc
import qspace.suites as suites
from qspace.scalars import ONE, ZERO, qpow

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
VERIFY_REFERENCE = os.path.join(REFERENCE_DIR, "verify_all.json")
NF_REFERENCE = os.path.join(REFERENCE_DIR, "nf_ladder.json")

SIZES = ("full", "tiny", "blowup")

E3 = "euclid3"
LINE = "line"


class Op(NamedTuple):
    label: str
    run: Callable[[], object]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(output):
    """Digest of an operation's output in its rendered form: the report
    JSON, the rendered query answer, or the element's text."""
    if isinstance(output, list):
        return digest(json.dumps([r.to_json() for r in output]))
    if isinstance(output, tuple):
        return digest(output[1])
    return digest(str(output))


def _checked(checks):
    """Run ``{index: thunk}`` checks; a thunk returns None when the output
    is right and a reason otherwise.  An exception is a wrong output."""
    wrong = {}
    for i, thunk in checks.items():
        try:
            reason = thunk()
        except Exception as exc:  # a malformed output must count, not abort
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            wrong[i] = reason
    return wrong


# ---------------------------------------------------------------------------
# verify-all: every suite in run_suite order at default options
# ---------------------------------------------------------------------------


def _verify_all(seed, size):
    names = sorted(suites.SUITES)
    if size == "tiny":
        names = names[:2]
    opts = suites.SuiteOptions()
    ops = [Op(name, lambda name=name: suites.SUITES[name](opts)) for name in names]

    def check(outputs):
        with open(VERIFY_REFERENCE) as fh:
            ref_text = fh.read().rstrip("\n")
        ref = json.loads(ref_text)
        checks = {}
        cursor = 0
        produced = []
        for i, reports in enumerate(outputs):
            if reports is None:
                continue
            want = ref[cursor:cursor + len(reports)]
            cursor += len(reports)

            def one(reports=reports, want=want):
                got = [r.to_json() for r in reports]
                produced.extend(got)
                if json.dumps(got, indent=2) != json.dumps(want, indent=2):
                    return "report JSON differs from the reference"
                failing = [r["check"] for r in got if r["status"] == "fail"]
                return f"failing reports: {failing}" if failing else None

            checks[i] = one
        wrong = _checked(checks)
        complete = len(names) == len(suites.SUITES) and all(o is not None for o in outputs)
        if complete and not wrong and json.dumps(produced, indent=2) != ref_text:
            wrong[len(outputs) - 1] = "full report JSON is not byte-identical"
        return wrong

    return ops, check


# ---------------------------------------------------------------------------
# nf-ladder: normal ordering in euclid3
# ---------------------------------------------------------------------------

_E3_CLASSES = {"x": ("x0", "xp", "x3", "xm"), "d": ("d0", "dm", "d3", "dp")}
# The class of each letter (coordinate, derivative or scaling operator) of
# the k-th random word comes from this fixed generator, so every seed has the
# same number of derivatives standing left of coordinates, which is what
# sets the rewrite cost; the seed draws the generator within each class.
_PATTERN_SEED = 0

# Word lengths of the seeded batch: a fixed schedule, so every seed does
# comparable work.  The rewrite cost grows steeply with length, so longer
# random words would make the slowest operations depend on the seed; the
# fixed ladders carry the long words.  With 96 words the pass has 200
# operations, so op_p99_ms falls on the Xm^4 Xp^4 rung of the ladder.
_NF_LENGTHS = (4,) * 40 + (5,) * 56


def _random_word(rng, pattern_rng, length):
    word = []
    for _ in range(length):
        if pattern_rng.random() < 0.1:
            word.append(("L", rng.choice((-2, -1, 1, 2))))
        else:
            word.append(rng.choice(_E3_CLASSES[pattern_rng.choice("xd")]))
    return tuple(word)


def _word_text(word):
    return " ".join(t if isinstance(t, str) else f"L^({t[1]}/2)" for t in word)


def split_product_error(calculus, word, cut, out):
    """None when ``out`` equals nf(nf(u) nf(v)) for ``u, v = word[:cut],
    word[cut:]`` in ``calculus``, a reason otherwise.

    The product is formed under the rightmost rewrite strategy: entering it
    empties the normal-form memo the timed operations filled, and disordered
    pairs are attacked in the other order.  So the identity is checked on a
    cold, independent path, and a wrong result left in the memo cannot be
    read back as its own confirmation."""
    with ncalgebra.rewrite_strategy("rightmost"):
        nu = ncalgebra.normalize_in_calculus(E3, calculus, word[:cut])
        nv = ncalgebra.normalize_in_calculus(E3, calculus, word[cut:])
        prod = ncalgebra.NCElement(E3)
        for ku, cu in nu.terms.items():
            for kv, cv in nv.terms.items():
                prod = prod + ncalgebra.normalize_in_calculus(
                    E3, calculus,
                    ncalgebra._word_of_key(E3, ku) + ncalgebra._word_of_key(E3, kv), cu * cv,
                )
    return None if prod == out else f"nf(uv) != nf(u) nf(v) at split {cut}"


def _nf_ladder(seed, size):
    if size == "blowup":
        ladder = [("dm^4 Xm^4", ("dm",) * 4 + ("xm",) * 4)]
        batch = []
    else:
        top_x, top_d, lengths = (5, 3, _NF_LENGTHS) if size == "full" else (3, 2, (4, 5) * 5)
        ladder = [(f"Xm^{n} Xp^{n}", ("xm",) * n + ("xp",) * n) for n in range(1, top_x + 1)]
        ladder += [(f"dm^{n} Xm^{n}", ("dm",) * n + ("xm",) * n) for n in range(1, top_d + 1)]
        rng = random.Random(seed)
        pattern_rng = random.Random(_PATTERN_SEED)
        batch = [(_random_word(rng, pattern_rng, n), rng.randrange(1, n)) for n in lengths]

    ops = [Op(f"nf {label}", lambda w=w: ncalgebra.normal_form(E3, w)) for label, w in ladder]
    splits = [(w, len(w) // 2, "u") for _, w in ladder]
    for word, cut in batch:
        text = _word_text(word)
        ops.append(Op(f"plain {text}", lambda w=word: ncalgebra.normal_form(E3, w)))
        splits.append((word, cut, "u"))
        ops.append(Op(f"hat {text}",
                      lambda w=word: ncalgebra.normalize_in_calculus(E3, "h", w)))
        splits.append((word, cut, "h"))

    def check(outputs):
        with open(NF_REFERENCE) as fh:
            ref = json.load(fh)
        pinned = dict(ref["ladder"])
        if seed == ref["seed"]:
            pinned.update(ref["batch"])
        checks = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if out is None:
                continue
            word, cut, calculus = splits[i]

            def one(op=op, out=out, word=word, cut=cut, calculus=calculus):
                want = pinned.get(op.label)
                if want is not None and digest(str(out)) != want:
                    return "differs from the recorded reference"
                return split_product_error(calculus, word, cut, out)

            checks[i] = one
        return _checked(checks)

    return ops, check


def nf_reference(seed):
    """Digests of every nf-ladder output for ``seed``, for the reference
    file: ladder entries hold for every seed, batch entries for this one."""
    ops, _ = _nf_ladder(seed, "full")
    ref = {"seed": seed, "ladder": {}, "batch": {}}
    for op in ops:
        part = "ladder" if op.label.startswith("nf ") else "batch"
        ref[part][op.label] = digest(str(op.run()))
    return ref


# ---------------------------------------------------------------------------
# star-ladder: star products in euclid3, never entering ncalgebra
# ---------------------------------------------------------------------------

def _random_poly(rng, fixed, others, terms=2):
    """``terms`` monomials of degree 4: ``fixed``^2 times a random degree-2
    monomial in ``others``, each with a random small integer times a
    q-power.  Fixing the degree in the contracted variable fixes the number
    of terms of the star-product sum, so every seed does comparable work."""
    vars_ = cfunc.space_vars(E3)
    out = cfunc.CFunction.zero(vars_)
    for _ in range(terms):
        exps = [0, 0, 0, 0]
        exps[vars_.index(fixed)] = 2
        for _ in range(2):
            exps[vars_.index(rng.choice(others))] += 1
        coeff = qpow(rng.randrange(-2, 3)) * rng.choice((-3, -2, -1, 1, 2, 3))
        out = out + cfunc.CFunction.monomial(vars_, exps, coeff)
    return out


def _roundtrip(ordering, f, g):
    """The product through normal ordering: lift, multiply, lower."""
    if ordering == "standard":
        return ncalgebra.lower(E3, ncalgebra.lift(E3, f) * ncalgebra.lift(E3, g))
    fu = ncalgebra.reorder_transform(E3, f, "to_standard")
    gu = ncalgebra.reorder_transform(E3, g, "to_standard")
    prod = ncalgebra.lower(E3, ncalgebra.lift(E3, fu) * ncalgebra.lift(E3, gu))
    return ncalgebra.reorder_transform(E3, prod, "to_reversed")


# degree bound of the normal-ordering round trip; the q -> 1 limit is
# checked at every degree
ROUNDTRIP_MAX_DEGREE = 4


def _star_ladder(seed, size):
    vars_ = cfunc.space_vars(E3)
    # many light pairs, so op_p50_ms is the median of a large seeded sample
    top, pairs = (8, 72) if size == "full" else (3, 3)
    cases = []
    for n in range(1, top + 1):
        cases.append((f"standard xm^{n} * xp^{n}", "standard",
                      cfunc.CFunction.var(vars_, "xm", n), cfunc.CFunction.var(vars_, "xp", n)))
        cases.append((f"reversed xp^{n} * xm^{n}", "reversed",
                      cfunc.CFunction.var(vars_, "xp", n), cfunc.CFunction.var(vars_, "xm", n)))
    rng = random.Random(seed)
    for j in range(pairs):
        ordering = ("standard", "reversed")[j % 2]
        # the star sum runs over powers of xm in f and xp in g (standard),
        # of xp in f and xm in g (reversed)
        if ordering == "standard":
            f = _random_poly(rng, "xm", ("xp", "x3"))
            g = _random_poly(rng, "xp", ("x3", "xm"))
        else:
            f = _random_poly(rng, "xp", ("x3", "xm"))
            g = _random_poly(rng, "xm", ("xp", "x3"))
        cases.append((f"{ordering} pair {j}: ({f}) * ({g})", ordering, f, g))

    ops = [Op(label, lambda o=o, f=f, g=g: starcalc.star(starcalc.StarContext(E3, o), f, g))
           for label, o, f, g in cases]

    def check(outputs):
        checks = {}
        for i, ((_, ordering, f, g), out) in enumerate(zip(cases, outputs)):
            if out is None:
                continue

            def one(ordering=ordering, f=f, g=g, out=out):
                if out.eval_coeffs_exact(1) != (f * g).eval_coeffs_exact(1):
                    return "q -> 1 limit differs from the commutative product"
                if max(f.degree(), g.degree()) <= ROUNDTRIP_MAX_DEGREE:
                    if _roundtrip(ordering, f, g) != out:
                        return "differs from the normal-ordering round trip"
                return None

            checks[i] = one
        return _checked(checks)

    return ops, check


# ---------------------------------------------------------------------------
# query-stream: small CLI-style queries, parse -> compute -> render
# ---------------------------------------------------------------------------

_NC_NAMES = {
    E3: ("X0", "Xp", "X3", "Xm", "d0", "dp", "d3", "dm", "dhp", "dh3", "dhm", "L"),
    LINE: ("X0", "X1", "d0", "d1", "dh1", "L"),
}
_COEFFS = ("", "2 ", "-", "q ", "q^-1 ", "lambda ", "(1 + q) ", "3 ")
_D_INDICES = {E3: ("0", "+", "3", "-"), LINE: ("0", "1")}
_DTAGS = {"0": "d0", "1": "d1", "+": "dp", "3": "d3", "-": "dm"}
_HAT_POWER = {LINE: 1, E3: 6}
_VARIANTS = ("left", "left_bar", "right", "right_bar")
# Distinct queries per kind in the pool; each pool entry is asked REPEATS
# times in shuffled order, so the share of cold first calls is the same for
# every seed.  The mix of kinds and the repeat count are assumptions, not a
# record of use; run.py reports latency per kind and per cold or repeated
# call so the percentiles can be re-weighted (NOTES.md).  The cost-relevant shape of the j-th query of a kind (space,
# number of terms and degrees, variant, index) follows a fixed schedule in j;
# the seed draws the variables, generators and coefficients.  The
# exponentials have no free input beyond their shape, so all 20 of them are
# in every pool.
_POOL = {"nf": 150, "star": 100, "d": 110, "translate": 70, "antipode": 50}
_QEXP_POOL = tuple(
    (space, variant, degree)
    for space, top in ((LINE, 3), (E3, 2))
    for degree in range(1, top + 1)
    for variant in pairexp.EXP_VARIANTS
)
REPEATS = 6


def _poly_text(rng, space, shapes):
    """A polynomial with one random monomial per ``(degree, x3 power)``
    shape; the x3 power, which sets most of the cost of a translation or
    antipode on euclid3, is part of the fixed shape."""
    vars_ = cfunc.space_vars(space)
    free = [i for i, v in enumerate(vars_) if v != "x3"]
    parts = []
    for degree, x3_power in shapes:
        exps = [0] * len(vars_)
        if "x3" in vars_:
            exps[vars_.index("x3")] = x3_power
            degree -= x3_power
        for _ in range(degree):
            exps[rng.choice(free)] += 1
        mono = " ".join(v if n == 1 else f"{v}^{n}" for v, n in zip(vars_, exps) if n)
        parts.append(rng.choice(_COEFFS) + mono)
    return " + ".join(parts)


def _nc_text(rng, space, budget):
    names = _NC_NAMES[space]
    factors = []
    while budget > 0:
        n = min(budget, rng.choice((1, 1, 2)))
        name = rng.choice(names)
        factors.append(name if n == 1 else f"{name}^{n}")
        budget -= n
    return rng.choice(_COEFFS) + " ".join(factors)


def _degrees(j, terms):
    """Monomial shapes for the j-th query with ``terms`` terms: degrees
    1..3 and an x3 power from 0 to the degree, on a fixed schedule."""
    shapes = []
    for t in range(terms):
        degree = 1 + (j + t) % 3
        shapes.append((degree, (j // 3 + t) % (degree + 1)))
    return shapes


def _query_spec(rng, kind, j):
    space = E3 if j % 10 < 7 else LINE
    if kind == "nf":
        text = _nc_text(rng, space, 2 + j % 3)
        if j % 10 in (1, 5, 8):
            text += " + " + _nc_text(rng, space, 2 + (j // 3) % 2)
        return (kind, space, text)
    if kind == "star":
        return (kind, E3, _poly_text(rng, E3, _degrees(j, 1 + j % 2)),
                _poly_text(rng, E3, _degrees(j + 1, 1 + (j // 2) % 2)), (j // 4) % 2 == 1)
    terms = _degrees(j, 1 + j % 2)
    if kind == "d":
        indices = _D_INDICES[space]
        return (kind, space, _poly_text(rng, space, terms),
                indices[j % len(indices)], _VARIANTS[(j // 2) % 4])
    return (kind, space, _poly_text(rng, space, terms), ("L", "Lbar")[(j // 2) % 2])


def query_text(spec):
    """The ``qspace`` command line a query stands for."""
    kind, space = spec[0], spec[1]
    if kind == "nf":
        return f"nf '{spec[2]}' --space {space}"
    if kind == "star":
        return f"star '{spec[2]}' '{spec[3]}'" + (" --reversed" if spec[4] else "")
    if kind == "d":
        return f"d '{spec[2]}' --index {spec[3]} --variant {spec[4]} --space {space}"
    if kind in ("translate", "antipode"):
        return f"{kind} '{spec[2]}' --variant {spec[3]} --space {space}"
    return f"exp {spec[2]} --degree {spec[3]} --space {space}"


def _commutative(space, text):
    v = expressions.parse(text, space)
    if v.kind == "scalar":
        return cfunc.CFunction.constant(cfunc.space_vars(space), v.data)
    return v.data


def run_query(spec):
    """One query through the public path: parse, compute, render.  Returns
    the computed value and its rendered text."""
    kind, space = spec[0], spec[1]
    if kind == "nf":
        v = expressions.parse(spec[2], space)
        return v.data, expressions.render(v)
    if kind == "qexp":
        series = pairexp.qexp(space, spec[2], spec[3])
        return series, str(series)
    f = _commutative(space, spec[2])
    if kind == "star":
        ctx = starcalc.StarContext(E3, "reversed" if spec[4] else "standard")
        out = starcalc.star(ctx, f, _commutative(E3, spec[3]))
    elif kind == "d":
        out = qfunc.act_partial_closed(spec[3], spec[4], f, space)
    elif kind == "translate":
        out = hopf.translate(space, spec[3], f)
    else:
        out = hopf.antipode(space, spec[3], f)
    return out, expressions.render(expressions.Value("c", out))


def _check_query(spec, value):
    """The package's own independent path for each kind of query."""
    kind, space = spec[0], spec[1]
    if kind == "nf":
        back = expressions.parse(str(value), space)
        data = back.data
        if back.kind == "scalar":  # a result without generators renders as a scalar
            data = ncalgebra.NCElement.scalar_term(space, data)
        return None if data == value else "re-parsed rendering differs"
    if kind == "qexp":
        for exps, _dword, coeff in value:
            want = ONE
            for n in exps:
                want = want * pairexp.classical_factorial(n)
            want = ONE / want
            if spec[2] in ("d_x", "dhat_x") and sum(exps) % 2:
                want = -want
            if coeff.eval_exact(1) != want.eval_exact(1):
                return f"q -> 1 limit of the {exps} coefficient differs"
        return None
    f = _commutative(space, spec[2])
    vars_ = cfunc.space_vars(space)
    if kind == "star":
        g = _commutative(E3, spec[3])
        ordering = "reversed" if spec[4] else "standard"
        if value.eval_coeffs_exact(1) != (f * g).eval_coeffs_exact(1):
            return "q -> 1 limit differs from the commutative product"
        return None if _roundtrip(ordering, f, g) == value else "differs from the round trip"
    if kind == "d":
        index, variant = spec[3], spec[4]
        D = ncalgebra.NCElement.generator(space, _DTAGS[index])
        if variant in ("left_bar", "right") and index != "0":
            D = D.scale(qpow(_HAT_POWER[space]))
        want = ncalgebra.lower(space, ncalgebra.act(D, ncalgebra.lift(space, f), variant))
        return None if want == value else "differs from the action through act"
    if kind == "translate":
        t = value
        for y in [v for v in t.vars if v.startswith("y")]:
            t = t.subs_scalar(y, ZERO)
        return None if t.restrict(vars_) == f else "counit does not give back the input"
    other = "Lbar" if spec[3] == "L" else "L"
    back = hopf.antipode(space, other, value)
    return None if back == f else f"S_{other}(S_{spec[3]} f) != f"


def _query_stream(seed, size):
    rng = random.Random(seed)
    scale, repeats = (1, REPEATS) if size == "full" else (0.05, 3)
    pool = [
        _query_spec(rng, kind, j)
        for kind, count in _POOL.items()
        for j in range(max(1, int(count * scale)))
    ]
    pool += [("qexp", *shape) for shape in _QEXP_POOL[::1 if size == "full" else 5]]
    stream = [spec for spec in pool for _ in range(repeats)]
    rng.shuffle(stream)
    ops = [Op(query_text(spec), lambda spec=spec: run_query(spec)) for spec in stream]

    def check(outputs):
        first = {}
        checks = {}
        for i, (spec, out) in enumerate(zip(stream, outputs)):
            if out is None:
                continue
            if spec in first:
                j = first[spec]
                checks[i] = lambda j=j, out=out: (
                    None if outputs[j][1] == out[1] else "repeat rendered differently"
                )
            else:
                first[spec] = i
                checks[i] = lambda spec=spec, out=out: _check_query(spec, out[0])
        return _checked(checks)

    return ops, check


_BUILDERS = {
    "verify-all": _verify_all,
    "nf-ladder": _nf_ladder,
    "star-ladder": _star_ladder,
    "query-stream": _query_stream,
}


def build(workload, seed, size="full"):
    """The operations and the checker of one workload pass."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](seed, size)
