"""Model counting for CNF formulas through strong backdoors into bounded
incidence treewidth, plus the combinatorial machinery for detecting them.

`import twcount` loads a module when one of its names is first used
(PEP 562): `twcount.solve` imports counting and what it needs, while
obstruction, walls, pace, generators and cli stay unloaded until something
asks for them.
A submodule reached as an attribute (`twcount.counting`) is imported too.
"""

import sys

# Each public name, by the module that defines it.
_HOMES = {
    "backdoor": (
        "BackdoorReport",
        "KillerSet",
        "approx_backdoor",
        "extract_witness",
        "find_smallest_strong_backdoor",
        "is_deletion_backdoor",
        "is_strong_backdoor",
        "killer_set",
    ),
    "counting": ("count_bruteforce", "count_td", "count_via_backdoor", "solve"),
    "formula": (
        "Assignment",
        "Clause",
        "CnfFormula",
        "Literal",
        "assignments",
        "delete_vars",
        "formula_size",
        "parse_dimacs",
        "reduce",
        "write_dimacs",
    ),
    "graphs": ("Graph", "build_incidence"),
    "obstruction": (
        "FptConstants",
        "ObstructionTemplate",
        "apply_rules",
        "build_template",
        "common_external_killers",
        "fpt_constants",
        "merge_and_dedupe",
        "tile_obstructions",
        "validate_template",
    ),
    "pace": ("TreeDecomposition", "validate_decomposition"),
    "treewidth": ("exact_treewidth", "lower_bound", "treewidth_at_most", "upper_bound_heuristic"),
    "walls": ("dissolve_degree_two", "is_wall_subdivision", "make_wall"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(name: str):
    # __import__ rather than importlib.import_module: -X importtime reports
    # only imports made through the former.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _HOMES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
