"""Instance generators: grid formulas, planted backdoors, random CNF, walls.

All randomness flows through a counter-based generator so the same seed gives
byte-identical instances on every platform. The wall generators import
`walls` when called, so generating the other families does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .formula import Clause, CnfFormula
from .graphs import clause_vertex

if TYPE_CHECKING:
    from .walls import WallModel

_MASK64 = (1 << 64) - 1


class DetRng:
    """splitmix64 stream; deterministic across platforms and Python versions."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self._next() % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def bit(self) -> int:
        return self._next() & 1

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample larger than population")
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out


def _grid_edges(n: int) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
    out = []
    for i in range(1, n + 1):
        for j in range(1, n):
            out.append(("horizontal", (i, j), (i, j + 1)))
    for i in range(1, n):
        for j in range(1, n + 1):
            out.append(("vertical", (i, j), (i + 1, j)))
    return out


def _grid_var(n: int, i: int, j: int) -> int:
    return (i - 1) * n + j


def gen_grid_formula(n: int) -> CnfFormula:
    """n^2 variables on an n-by-n grid, one positive binary clause per grid edge.

    Clause ids run over all horizontal edges first (row-major), then all
    vertical edges; model counts equal independent-set counts of the grid.
    """
    if n < 2:
        raise ValueError("grid formulas need n >= 2")
    clauses = []
    for cid, (_, a, b) in enumerate(_grid_edges(n), start=1):
        clauses.append(Clause(cid, (_grid_var(n, *a), _grid_var(n, *b))))
    return CnfFormula(tuple(clauses))


def grid_clause_orientations(n: int) -> dict[int, str]:
    """Clause id -> 'horizontal' or 'vertical' for the grid generators."""
    return {cid: kind for cid, (kind, _, _) in enumerate(_grid_edges(n), start=1)}


def gen_grid_formula_x(n: int) -> CnfFormula:
    """The grid formula plus a switch variable: positive in every horizontal
    clause, negative in every vertical one. Either setting of the switch
    leaves an acyclic incidence graph."""
    base = gen_grid_formula(n)
    x = n * n + 1
    orientations = grid_clause_orientations(n)
    clauses = []
    for c in base.clauses:
        extra = x if orientations[c.id] == "horizontal" else -x
        clauses.append(Clause(c.id, c.lits + (extra,)))
    return CnfFormula(tuple(clauses))


def _signed(v: int, rng: DetRng) -> int:
    """v positive or negative, by one bit of rng."""
    return v if rng.bit() == 1 else -v


def gen_random_cnf(n: int, m: int, width: int, seed: int) -> CnfFormula:
    """m clauses of exactly `width` distinct variables over n, uniform signs."""
    if width > n:
        raise ValueError("clause width cannot exceed the variable count")
    rng = DetRng(seed)
    clauses = []
    for cid in range(1, m + 1):
        vs = sorted(rng.sample(range(1, n + 1), width))
        clauses.append(Clause(cid, tuple(_signed(v, rng) for v in vs)))
    used = frozenset().union(*(c.variables for c in clauses)) if clauses else frozenset()
    return CnfFormula(tuple(clauses), frozenset(range(1, n + 1)) - used)


def gen_planted(base_n: int, t: int, k: int, seed: int) -> tuple[CnfFormula, frozenset[int]]:
    """A formula with incidence treewidth above-the-base plus k planted switch
    variables forming a strong (and deletion) backdoor into width t.

    The base has incidence treewidth at most t by construction: for t=1 each
    clause attaches to one existing variable and otherwise fresh ones (a
    tree); for larger t clauses stay within windows of t consecutive
    variables. Each planted variable joins one clause subset positively and a
    disjoint subset negatively, so any full assignment to the planted set
    leaves an induced piece of the base. Base variables that occur in no
    clause are free, as in gen_random_cnf, so the formula's DIMACS text
    (which declares them) has its model count.
    """
    if base_n < 3:
        raise ValueError("base_n too small")
    if t < 1:
        raise ValueError("t must be at least 1")
    rng = DetRng(seed)
    clauses: list[Clause] = []
    if t == 1:
        existing = [1]
        next_var = 2
        cid = 1
        while next_var <= base_n:
            anchor = rng.choice(existing)
            fresh_count = min(rng.randint(1, 2), base_n - next_var + 1)
            lits = [_signed(anchor, rng)]
            for _ in range(fresh_count):
                lits.append(_signed(next_var, rng))
                existing.append(next_var)
                next_var += 1
            clauses.append(Clause(cid, tuple(lits)))
            cid += 1
    else:
        m = rng.randint(base_n, 2 * base_n)
        for cid in range(1, m + 1):
            start = rng.randint(1, base_n - t + 1)
            window = list(range(start, start + t))
            width = rng.randint(2, min(t, 4)) if t >= 2 else 1
            vs = sorted(rng.sample(window, width))
            clauses.append(Clause(cid, tuple(_signed(v, rng) for v in vs)))
    while len(clauses) < 2:
        # unit clauses keep the incidence graph a forest
        clauses.append(Clause(len(clauses) + 1, (_signed(1, rng),)))
    planted = []
    for i in range(k):
        x = base_n + 1 + i
        planted.append(x)
        idx = list(range(len(clauses)))
        pos_count = rng.randint(1, max(1, len(clauses) // 2))
        pos_set = set(rng.sample(idx, pos_count))
        rest = [j for j in idx if j not in pos_set]
        neg_count = rng.randint(1, max(1, len(rest) // 2 or 1))
        neg_set = set(rng.sample(rest, min(neg_count, len(rest))))
        new_clauses = []
        for j, c in enumerate(clauses):
            if j in pos_set:
                new_clauses.append(Clause(c.id, c.lits + (x,)))
            elif j in neg_set:
                new_clauses.append(Clause(c.id, c.lits + (-x,)))
            else:
                new_clauses.append(c)
        clauses = new_clauses
    used = frozenset().union(*(c.variables for c in clauses))
    return CnfFormula(tuple(clauses), frozenset(range(1, base_n + 1)) - used), frozenset(planted)


def gen_wall_formula(r: int) -> CnfFormula:
    """Variables on wall positions, one positive binary clause per wall edge,
    so the incidence graph subdivides the r-wall."""
    from .walls import wall_edges, wall_vertex_id

    clauses = []
    for cid, (a, b) in enumerate(wall_edges(r), start=1):
        clauses.append(Clause(cid, (wall_vertex_id(r, *a), wall_vertex_id(r, *b))))
    return CnfFormula(tuple(clauses))


def wall_formula_model(r: int) -> tuple[CnfFormula, WallModel]:
    """The wall formula plus the model of the r-wall inside its incidence graph."""
    from .graphs import build_incidence
    from .walls import WallModel, make_wall, wall_edges, wall_vertex_id

    f = gen_wall_formula(r)
    host = build_incidence(f)
    _, coords = make_wall(r)
    branch = {pos: v for v, pos in coords.positions.items()}
    paths = {}
    for cid, (a, b) in enumerate(wall_edges(r), start=1):
        key = (min(a, b), max(a, b))
        paths[key] = (
            wall_vertex_id(r, *key[0]),
            clause_vertex(cid),
            wall_vertex_id(r, *key[1]),
        )
    return f, WallModel(host, r, branch, paths)
