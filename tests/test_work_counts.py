"""Pinned work counts: exact call counts of the engine's and the scalar
field's kernels on fixed command lines, against ``golden_work.json``.

Timings on a shared host move by tens of percent between runs; call counts
do not.  Each workload runs in a fresh interpreter (so no memo of an earlier
run is warm) with every counted function wrapped under every name that binds
it: ``act`` is called through ``ncalgebra``, ``pairexp`` and ``evolution``,
and the action maps ``act`` and the ``oracle-actions`` suite build are
counted through ``ncalgebra`` and ``suites``.

A change that alters a count re-records the file and says which count moved
and why, as for a golden output:
``PYTHONPATH=src python tests/test_work_counts.py --record``.

A repeated query is pinned as a count too: run twice in one interpreter,
the second run of each tabled kind of query makes no call to the row
kernel, the polynomial product or the coefficient printer, and prints what
the first printed.
"""

import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_work.json")
_SRC = str(Path(__file__).resolve().parent.parent / "src")

# module, then the attribute path of the function within it
COUNTED = (
    ("ncalgebra", "act"),
    ("ncalgebra", "_act_map"),
    ("ncalgebra", "NCElement.__mul__"),
    ("ncalgebra", "_fold"),
    ("starcalc", "_star_e3"),
    ("scalars", "_pmul"),
    ("scalars", "_qnum_mul"),
    ("scalars", "_lgcd"),
    ("scalars", "_pgcd"),
)

# name -> (argv, the rewrite strategy it runs under)
WORKLOADS = {
    "verify --all": (["verify", "--all", "--json"], "leftmost"),
    "verify --all --degree 6 --order 6": (
        ["verify", "--all", "--degree", "6", "--order", "6", "--json"], "leftmost"),
    "evolve --order 8": (["evolve", "--order", "8"], "leftmost"),
    "nf dm^6 Xm^6": (["nf", "dm^6 Xm^6"], "leftmost"),
    "nf Xm^500 Xp": (["nf", "Xm^500 Xp"], "leftmost"),
    "nf Xm^500 Xp, rightmost": (["nf", "Xm^500 Xp"], "rightmost"),
    "nf line d1^20 X1^20": (["nf", "--space", "line", "d1^20 X1^20"], "leftmost"),
    "star xm^16 xp^16": (["star", "xm^16", "xp^16"], "leftmost"),
    "star xm^500 xp^2": (["star", "xm^500", "xp^2"], "leftmost"),
}


def spy(functions):
    """Wrap each (module, attribute path) of functions under every name that
    binds it; returns the {function: calls} dict the wrappers count into."""
    import qspace

    modules = [
        importlib.import_module(f"qspace.{m.name}") for m in pkgutil.iter_modules(qspace.__path__)
    ]
    counts = {}
    for home, path in functions:
        name = f"{home}.{path}"
        owner = importlib.import_module(f"qspace.{home}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        exact = getattr(owner, attr)
        counts[name] = 0

        def counted(*args, _exact=exact, _name=name, **kwargs):
            counts[_name] += 1
            return _exact(*args, **kwargs)

        if classes:
            setattr(owner, attr, counted)
            continue
        for mod in modules:
            if mod.__dict__.get(attr) is exact:
                setattr(mod, attr, counted)
    return counts


def count(argv, strategy):
    """{function: calls} of one ``qspace`` command run in this process under
    a rewrite strategy; the process must not have run any qspace work
    before."""
    from qspace.cli import main
    from qspace.ncalgebra import rewrite_strategy

    counts = spy(COUNTED)
    with redirect_stdout(io.StringIO()), rewrite_strategy(strategy):
        code = main(argv)
    if code:
        raise RuntimeError(f"qspace {' '.join(argv)} exited {code}")
    return counts


# the kernels a repeated query must not reach: the row kernel, the
# polynomial product and the coefficient printer
WARM_COUNTED = (("scalars", "_apply_rows"), ("scalars", "_pmul"), ("scalars", "_coeff_times"))


def count_twice(argv):
    """[(WARM_COUNTED calls, printed text)] of two runs of one ``qspace``
    command in this process, the second reading what the first stored."""
    from qspace.cli import main

    counts = spy(WARM_COUNTED)
    runs = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        if code:
            raise RuntimeError(f"qspace {' '.join(argv)} exited {code}")
        runs.append((dict(counts), out.getvalue()))
    return runs


def fresh(mode, *args):
    """The JSON result of ``test_work_counts.py mode args`` (count or
    count_twice) in a new interpreter with the checkout's src first on the
    path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, __file__, mode, json.dumps(args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_count(argv, strategy):
    """count(argv, strategy) in a new interpreter."""
    return fresh("--count", argv, strategy)


def recorded():
    return {name: fresh_count(*workload) for name, workload in WORKLOADS.items()}


def test_the_pinned_workloads_are_recorded():
    assert set(json.loads(GOLDEN.read_text())) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counts_match_the_record(name):
    want = json.loads(GOLDEN.read_text())[name]
    # an intended change of work re-records the file (see the docstring)
    assert fresh_count(*WORKLOADS[name]) == want


# one query of each tabled kind, each answered from stored values when it
# is asked again
REPEATED = {
    "nf": ["nf", "(1 + q) dh3 X3 Xm + lambda L^-1 Xp dm"],
    "d": ["d", "(1 + q) xp x3^2 xm - lambda xm", "--index", "m", "--variant", "right"],
    "translate": ["translate", "(1 + q) x3^2 xp + q^(1/2) xm", "--variant", "L"],
    "antipode": ["antipode", "lambda x3^3 xp + xm^2 x0", "--variant", "Lbar"],
    "exp": ["exp", "--variant", "xdh", "--degree", "3"],
    "star": ["star", "(1 + q) xm^2 x3 - lambda xp", "q^(1/2) xp^2 xm + x0 x3", "--reversed"],
}


@pytest.mark.parametrize("kind", list(REPEATED))
def test_a_repeated_query_does_no_work(kind):
    (cold, text), (warm, again) = fresh("--count-twice", REPEATED[kind])
    assert again == text and text.strip()
    assert any(cold.values()), cold
    assert not any(warm.values()), warm


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count"]:
        print(json.dumps(count(*json.loads(sys.argv[2]))))
    elif sys.argv[1:2] == ["--count-twice"]:
        print(json.dumps(count_twice(*json.loads(sys.argv[2]))))
    elif sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(recorded(), indent=1) + "\n")
    else:
        sys.exit("usage: test_work_counts.py --record | --count '[ARGV, STRATEGY]'"
                 " | --count-twice '[ARGV]'")
