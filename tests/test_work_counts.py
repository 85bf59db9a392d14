"""Pinned work counts: exact call counts of the engine's and the scalar
field's kernels on fixed command lines, against ``golden_work.json``.

Timings on a shared host move by tens of percent between runs; call counts
do not.  Each workload runs in a fresh interpreter (so no memo of an earlier
run is warm) with every counted function wrapped under every name that binds
it: ``act`` is called through ``ncalgebra``, ``pairexp``, ``suites`` and
``evolution``, and every one of those calls is counted.

A change that alters a count re-records the file and says which count moved
and why, as for a golden output:
``PYTHONPATH=src python tests/test_work_counts.py --record``.
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


def count(argv, strategy):
    """{function: calls} of one ``qspace`` command run in this process under
    a rewrite strategy; the process must not have run any qspace work
    before."""
    import qspace
    from qspace.cli import main
    from qspace.ncalgebra import rewrite_strategy

    modules = [
        importlib.import_module(f"qspace.{m.name}") for m in pkgutil.iter_modules(qspace.__path__)
    ]
    counts = {}
    for home, path in COUNTED:
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
    with redirect_stdout(io.StringIO()), rewrite_strategy(strategy):
        code = main(argv)
    if code:
        raise RuntimeError(f"qspace {' '.join(argv)} exited {code}")
    return counts


def fresh_count(argv, strategy):
    """count(argv, strategy) in a new interpreter with the checkout's src
    first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, __file__, "--count", json.dumps([argv, strategy])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def recorded():
    return {name: fresh_count(*workload) for name, workload in WORKLOADS.items()}


def test_the_pinned_workloads_are_recorded():
    assert set(json.loads(GOLDEN.read_text())) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_work_counts_match_the_record(name):
    want = json.loads(GOLDEN.read_text())[name]
    # an intended change of work re-records the file (see the docstring)
    assert fresh_count(*WORKLOADS[name]) == want


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count"]:
        print(json.dumps(count(*json.loads(sys.argv[2]))))
    elif sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(recorded(), indent=1) + "\n")
    else:
        sys.exit("usage: test_work_counts.py --record | --count '[ARGV, STRATEGY]'")
