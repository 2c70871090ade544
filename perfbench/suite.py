"""Workloads of the solve benchmark: frozen base instances, and seeded
relabelled copies of them.

Each pass of a run solves one fresh copy of every base instance, in a seeded
order. A copy renames the variables by a seeded permutation of 1..n and
reorders the clauses, so no formula repeats within a run and a cache that
outlives one `solve` call cannot turn a repeat into a hit. Model counts, and
backdoors up to the renaming, are the same for every copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Clause vertices of twcount's incidence graph sit at this id offset, and a
# variable id at or above it collides with them.
CLAUSE_VERTEX_OFFSET = 1_000_000


@dataclass(frozen=True)
class Spec:
    label: str
    family: str  # grid-x / planted / random
    params: tuple[int, ...]
    t: int
    k: int
    tw_threshold: int


VERTEX_CAP = 64

# grid-switch: the paper's example of sb_1 = 1 on top of unbounded treewidth.
GRID_SWITCH = [Spec(f"grid-x n={n}", "grid-x", (n,), 1, 1, 1) for n in range(6, 13)]

# planted: gen_planted(base_n, t, k, seed) with t in {1, 2}. t = 3, and
# t = 2 bases above 20, are left out because solve does not finish or ends
# inconclusive on them (see CHANGES.md). k = 4 runs with t = 1 only: the
# t = 2, k = 4 solves cost 0.2-0.9 s depending on the renaming, and with them
# p90 moved by 11% between runs instead of 6%.
PLANTED = [
    Spec(f"planted t={t} n={n} k={k} s={s}", "planted", (n, t, k, s), t, k, t)
    for t, bases, ks in ((1, (40, 50, 60), (1, 2, 3, 4)), (2, (12, 16, 20), (1, 2, 3)))
    for n, s in zip(bases, (0, 1, 2))
    for k in ks
]

# random-td: gen_random_cnf(n, m, 3, seed) of min-fill incidence width 10-15,
# all under tw_threshold 16, so solve counts them directly with the DP.
RANDOM_TD = [
    Spec(f"random n={n} m={m} s={s}", "random", (n, m, s), 1, 1, 16)
    for n, m, s in (
        (30, 40, 2),  # width 10
        (40, 40, 1),
        (35, 40, 5),
        (30, 40, 4),  # width 11
        (35, 40, 1),
        (40, 45, 3),
        (40, 40, 2),
        (30, 45, 2),  # width 12
        (35, 45, 2),
        (40, 45, 1),
        (35, 50, 0),  # width 13
        (40, 50, 2),
        (30, 55, 0),  # width 14
        (40, 50, 1),
        (40, 55, 4),  # width 15
    )
]

WORKLOADS = {"grid-switch": GRID_SWITCH, "planted": PLANTED, "random-td": RANDOM_TD}


def generate(spec: Spec) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Variable count and clauses (signed ints) of a base instance."""
    # Imported here: run.py needs the renaming but must not import twcount.
    from twcount import generators

    if spec.family == "grid-x":
        f = generators.gen_grid_formula_x(*spec.params)
    elif spec.family == "planted":
        f, _ = generators.gen_planted(*spec.params)
    else:
        n, m, s = spec.params
        f = generators.gen_random_cnf(n, m, 3, s)
    clauses = tuple(tuple(lit.to_int() for lit in c.literals) for c in f.clauses)
    return f.num_vars, clauses


def _copy_rng(workload: str, seed: int, pass_idx: int, base_idx: int) -> random.Random:
    return random.Random(f"copy/{workload}/{seed}/{pass_idx}/{base_idx}")


def _permutation(rng: random.Random, num_vars: int) -> list[int]:
    """perm[v] is the new id of variable v (index 0 unused)."""
    if num_vars >= CLAUSE_VERTEX_OFFSET:
        raise ValueError(f"{num_vars} variables reach the clause-vertex offset")
    ids = list(range(1, num_vars + 1))
    rng.shuffle(ids)
    return [0] + ids


def permutation(workload: str, seed: int, pass_idx: int, base_idx: int, num_vars: int) -> list[int]:
    return _permutation(_copy_rng(workload, seed, pass_idx, base_idx), num_vars)


def copy_text(workload: str, seed: int, pass_idx: int, base_idx: int, num_vars: int, clauses) -> str:
    """DIMACS text of one relabelled, clause-reordered copy of a base instance."""
    rng = _copy_rng(workload, seed, pass_idx, base_idx)
    perm = _permutation(rng, num_vars)
    renamed = [
        " ".join(str(perm[lit] if lit > 0 else -perm[-lit]) for lit in c) for c in clauses
    ]
    rng.shuffle(renamed)
    lines = [f"p cnf {num_vars} {len(renamed)}"]
    lines.extend(f"{body} 0" for body in renamed)
    return "\n".join(lines) + "\n"


def pass_order(workload: str, seed: int, pass_idx: int, size: int) -> list[int]:
    """Seeded order of the base instances within one pass."""
    order = list(range(size))
    random.Random(f"order/{workload}/{seed}/{pass_idx}").shuffle(order)
    return order
