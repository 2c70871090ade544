"""The benchmark's base instances and seed-1 pass-0 copies, for the tests
that check the solve path's invariants on the inputs the benchmark times. It
imports `perfbench/suite.py` and changes nothing there."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import suite  # noqa: E402  the benchmark's frozen bases and seeded copies
from twcount import counting, formula  # noqa: E402

WORKLOADS = tuple(suite.WORKLOADS)


def bases(workload: str) -> list:
    """(formula, t, k, tw_threshold) of each base instance of workload, in
    the suite's order: its clauses as the suite generates them, ids 1..m,
    and free the declared variables no clause uses."""
    out = []
    for spec in suite.WORKLOADS[workload]:
        num_vars, clauses = suite.generate(spec)
        cs = tuple(formula.Clause(i, lits) for i, lits in enumerate(clauses, start=1))
        used = frozenset().union(*(c.variables for c in cs))
        out.append((formula.CnfFormula(cs, frozenset(range(1, num_vars + 1)) - used), spec.t, spec.k, spec.tw_threshold))
    return out


def pass0(workload: str) -> list:
    """(spec, DIMACS text) of each seed-1 pass-0 copy of workload, in the
    pass's order. The bases are generated here, before any solve."""
    specs = suite.WORKLOADS[workload]
    bases = [suite.generate(spec) for spec in specs]
    return [
        (specs[i], suite.copy_text(workload, 1, 0, i, *bases[i]))
        for i in suite.pass_order(workload, 1, 0, len(specs))
    ]


def solve_copy(spec, text: str) -> counting.SolveResult:
    """Parse and solve one copy as `perfbench/worker.py` does."""
    return counting.solve(
        formula.parse_dimacs(text), spec.t, spec.k, tw_threshold=spec.tw_threshold, vertex_cap=suite.VERTEX_CAP
    )
