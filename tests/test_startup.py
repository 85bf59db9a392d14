"""What importing qspace and starting a command load: each check runs in a
fresh interpreter, so modules imported by other tests do not count."""

import json
import os
import re
import subprocess
import sys

import pytest

import qspace

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qspace.__file__)))


def _fresh(code):
    """The JSON value that code prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code):
    """The qspace modules loaded once code has run in a fresh interpreter."""
    return set(_fresh(code + "\nimport json, sys\n"
                      "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qspace'))))"))


def test_import_qspace_loads_no_layer():
    assert _loaded_after("import qspace") == {"qspace"}


def test_reading_the_tables_loads_only_the_scalar_layer():
    assert _loaded_after("import qspace\nassert list(qspace.tables()) == ['scalars.qbinom']") == {
        "qspace", "qspace.scalars"}


def test_import_cli_loads_only_the_parser_tables():
    assert _loaded_after("import qspace.cli") == {"qspace", "qspace.cli", "qspace.spaces"}


def test_nf_loads_no_suite_evolution_or_braiding_layer():
    loaded = _loaded_after("from qspace.cli import main\nassert main(['nf', 'Xm Xp']) == 0")
    assert "qspace.ncalgebra" in loaded
    assert not loaded & {"qspace.suites", "qspace.evolution", "qspace.rmatrix"}


def test_int_loads_no_rewrite_engine(tmp_path):
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{k} {1.1 ** k}\n" for k in range(-300, 1)))
    argv = ["int", "--from", "0", "--to", "1", "--q", "1.1", "--samples", str(samples)]
    loaded = _loaded_after(f"from qspace.cli import main\nassert main({argv!r}) == 0")
    assert "qspace.cfunc" in loaded
    assert "qspace.ncalgebra" not in loaded


def test_exports_are_their_home_modules_objects():
    import importlib

    for name, home in _readme_api().items():
        if name in qspace.__all__:
            assert getattr(qspace, name) is getattr(importlib.import_module(f"qspace.{home}"), name)


def test_each_export_loads_what_its_readme_home_loads():
    # reading qspace.<name> imports the module README lists it under and no
    # other, so an export pointed at a module that re-exports it fails
    homes = {name: home for name, home in _readme_api().items() if name in qspace.__all__}
    code = f"""
import importlib, json, sys

def loaded_after(read):
    for m in [m for m in sys.modules if m.startswith("qspace")]:
        del sys.modules[m]
    read(importlib.import_module("qspace"))
    return sorted(m for m in sys.modules if m.startswith("qspace"))

print(json.dumps({{name: [loaded_after(lambda qspace: getattr(qspace, name)),
                          loaded_after(lambda qspace: importlib.import_module("qspace." + home))]
                  for name, home in {homes!r}.items()}}))
"""
    loaded = _fresh(code)
    assert set(loaded) == set(qspace.__all__)
    for name, (read, imported) in loaded.items():
        assert read == imported, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qspace import *", namespace)
    assert set(qspace.__all__) <= set(namespace)
    for name in qspace.__all__:
        assert namespace[name] is getattr(qspace, name)


def test_dir_lists_the_exports():
    assert set(qspace.__all__) <= set(dir(qspace))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qspace.no_such_name  # noqa: B018
    assert not hasattr(qspace, "no_such_name")


def test_threads_resolving_an_export_get_one_object():
    # a fresh interpreter, so the threads race the first import of the suites
    code = """
import threading
import qspace

barrier = threading.Barrier(8)
seen = []

def read():
    barrier.wait(timeout=30)
    seen.append(qspace.SUITES)

threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
assert len(seen) == 8 and all(s is seen[0] for s in seen), seen
from qspace.suites import SUITES
assert seen[0] is SUITES
"""
    assert "qspace.suites" in _loaded_after(code)



def _readme_api():
    """The README's Library API section: {name: module} for every listed name."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in section.splitlines():
        m = re.match(r"- `qspace\.(\w+)`: (.*)$", line)
        if m:
            for name in re.findall(r"`(\w+)`", m.group(2)):
                listed[name] = m.group(1)
    return listed


def test_readme_lists_the_public_surface():
    import importlib

    listed = _readme_api()
    assert set(listed) == set(qspace.__all__) | {"integrate_whole_e3", "rewrite_strategy"}
    for name, home in listed.items():
        assert hasattr(importlib.import_module(f"qspace.{home}"), name), name


@pytest.mark.parametrize("name", ["multiply", "eval_at"])
def test_removed_wrappers_are_not_exported(name):
    with pytest.raises(AttributeError):
        getattr(qspace, name)
