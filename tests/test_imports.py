"""The lazy `twcount` namespace: each public name loads its module on first
use, so a solve or a CLI count loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twcount
from twcount import formula

SRC = str(Path(twcount.__file__).resolve().parent.parent)
SOLVE_PATH = ["twcount", "twcount.backdoor", "twcount.counting", "twcount.formula", "twcount.graphs", "twcount.treewidth"]


def fresh(program: str, *args: str):
    """Run program in a fresh interpreter with this twcount first on the
    path, and return the JSON its last output line holds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", program, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'twcount')))"


def test_a_solve_loads_only_the_solve_path():
    loaded = fresh(
        "import json, sys, twcount\n"
        "f = twcount.parse_dimacs('p cnf 3 2\\n1 -2 0\\n2 3 0\\n')\n"
        "assert twcount.solve(f, 1, 1).count == 4\n" + LOADED
    )
    assert loaded == SOLVE_PATH


def test_cli_count_loads_neither_generators_nor_obstruction(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    loaded = fresh(
        "import json, sys\n"
        "from twcount import cli\n"
        "assert cli.main(['count', sys.argv[1]]) == 0\n" + LOADED,
        str(path),
    )
    assert "twcount.cli" in loaded
    assert "twcount.generators" not in loaded and "twcount.obstruction" not in loaded


def test_every_public_name_is_its_home_modules_object():
    for name in twcount.__all__:
        value = getattr(twcount, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("twcount.") and getattr(home, name) is value, name
        assert name in dir(twcount) and vars(twcount)[name] is value, name  # cached after the first use


def test_star_import_binds_all():
    namespace = {}
    exec("from twcount import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == twcount.__all__
    assert namespace["parse_dimacs"] is formula.parse_dimacs


def test_submodules_load_as_attributes_and_by_from_import():
    loaded = fresh(
        "import json, sys, twcount\n"
        "assert twcount.counting is sys.modules['twcount.counting']\n"
        "from twcount import obstruction\n"
        "assert obstruction is twcount.obstruction is sys.modules['twcount.obstruction']\n" + LOADED
    )
    assert loaded == sorted([*SOLVE_PATH, "twcount.obstruction"])


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        twcount.no_such_name
    assert not hasattr(twcount, "no_such_name")
