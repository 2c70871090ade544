"""The lazy `twcount` namespace: each public name loads its module on first
use, so a solve or a CLI count loads only the modules it runs. Names that
moved out of graphs and treewidth into walls and pace stay importable from
their old modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twcount
from twcount import formula, graphs, pace, treewidth, walls

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


def test_a_solve_loads_neither_dataclasses_nor_walls_nor_pace():
    loaded = fresh(
        "import json, sys\n"
        "import twcount.counting\n"
        "from twcount.formula import parse_dimacs\n"
        "f = parse_dimacs('p cnf 4 3\\n1 -2 0\\n2 3 0\\n-3 4 1 0\\n')\n"
        "assert twcount.counting.solve(f, 1, 1).count == 7\n"
        "print(json.dumps(sorted(m for m in ('dataclasses', 'twcount.walls', 'twcount.pace') if m in sys.modules)))"
    )
    assert loaded == []


# Each name that moved, by its old module and its new one.
MOVED = [
    *(
        (graphs, walls, name)
        for name in (
            "WallCoordinates", "WallModel", "dissolve_degree_two", "find_isomorphism", "identity_wall_model",
            "is_wall_subdivision", "make_wall", "subdivided_wall_model", "wall_edges", "wall_vertex_id",
        )
    ),
    (graphs, pace, "read_gr"),
    (graphs, pace, "write_gr"),
    *(
        (treewidth, pace, name)
        for name in ("TreeDecomposition", "ValidationReport", "_decomposition", "read_td", "validate_decomposition", "write_td")
    ),
]


@pytest.mark.parametrize("old, new, name", MOVED, ids=[f"{old.__name__}.{name}" for old, _, name in MOVED])
def test_a_moved_name_is_its_new_modules_object_from_its_old_module(old, new, name):
    assert getattr(old, name) is getattr(new, name)
    namespace = {}
    exec(f"from {old.__name__} import {name}", namespace)
    assert namespace[name] is getattr(new, name)


@pytest.mark.parametrize("module", [graphs, treewidth], ids=lambda m: m.__name__)
def test_an_unknown_name_of_graphs_or_treewidth_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=rf"module '{module.__name__}' has no attribute 'no_such_name'"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import no_such_name", {})


def test_all_is_unchanged():
    assert twcount.__all__ == [
        "Assignment", "BackdoorReport", "Clause", "CnfFormula", "FptConstants", "Graph", "KillerSet", "Literal",
        "ObstructionTemplate", "TreeDecomposition", "apply_rules", "approx_backdoor", "assignments",
        "build_incidence", "build_template", "common_external_killers", "count_bruteforce", "count_td",
        "count_via_backdoor", "delete_vars", "dissolve_degree_two", "exact_treewidth", "extract_witness",
        "find_smallest_strong_backdoor", "formula_size", "fpt_constants", "is_deletion_backdoor",
        "is_strong_backdoor", "is_wall_subdivision", "killer_set", "lower_bound", "make_wall", "merge_and_dedupe",
        "parse_dimacs", "reduce", "solve", "tile_obstructions", "treewidth_at_most", "upper_bound_heuristic",
        "validate_decomposition", "validate_template", "write_dimacs",
    ]


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
    assert loaded == sorted([*SOLVE_PATH, "twcount.obstruction", "twcount.walls"])


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        twcount.no_such_name
    assert not hasattr(twcount, "no_such_name")
