"""What importing gwcalc loads: the package root resolves its names on first
use, each subcommand loads only the modules it runs, and none loads
``dataclasses`` or ``inspect``."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import gwcalc

SRC = os.path.dirname(os.path.dirname(gwcalc.__file__))

# every gwcalc command needs these; qring and boundary only some
CORE = {"gwcalc.cli", "gwcalc.engine", "gwcalc.model", "gwcalc.potential", "gwcalc.series"}

# the gwcalc modules a step loads, and whether it loads dataclasses or the
# inspect module it pulls in; a module counts only if it arrives after what the
# interpreter loaded before gwcalc, such as a site hook's imports
LOADED = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import gwcalc.cli
argv = json.loads(sys.argv[1])
with redirect_stdout(io.StringIO()):
    code = gwcalc.cli.main(argv) if argv else 0
new = set(sys.modules) - before
print(json.dumps([
    code,
    sorted(name for name in new if name.startswith("gwcalc.")),
    sorted(new & {"dataclasses", "inspect"}),
]))
"""


def _fresh(code, *args):
    """Run code in a new interpreter that imports gwcalc from this checkout."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], set()),
        (["solve", "--model", "p3", "--dmax", "2"], set()),
        (["fano3", "--space", "q3", "--dmax", "3"], set()),
        (["nd", "--dmax", "5", "--check"], {"gwcalc.boundary"}),
        (["verify", "--suite", "all", "--model", "p3", "--dmax", "2"], {"gwcalc.qring"}),
        (["verify", "--suite", "all", "--model", "q3", "--dmax", "2"], {"gwcalc.qring"}),
    ],
    ids=["import", "solve", "fano3", "nd-check", "verify-p3", "verify-q3"],
)
def test_each_step_loads_only_the_modules_it_runs(argv, extra):
    code, loaded, heavy = _fresh(LOADED, json.dumps(argv))
    assert code == 0
    assert set(loaded) == CORE | extra
    assert heavy == []


def test_importing_the_root_loads_no_submodule():
    loaded = _fresh("import gwcalc, json, sys; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in loaded if name.startswith("gwcalc.")] == []


def test_root_names_are_the_objects_in_their_home_modules():
    for name in gwcalc.__all__:
        value = getattr(gwcalc, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("gwcalc."), name
        assert vars(home)[name] is value, name


def test_root_lists_and_star_imports_every_name():
    assert set(gwcalc.__all__) <= set(dir(gwcalc))
    namespace = {}
    exec("from gwcalc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gwcalc.__all__)
    assert gwcalc.__version__ == "0.1.0"


def test_root_refuses_an_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gwcalc.no_such_name
    assert not hasattr(gwcalc, "no_such_name")
