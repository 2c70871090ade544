"""Answer checks made apart from twcount: its own DIMACS reader, an exact
DPLL model counter with component splitting, and width tests for the
reductions under a returned backdoor.

Nothing here imports twcount, so a fault in the program cannot hide in the
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

Clauses = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# exact model counting


def _propagate(clauses, lits):
    """Set `lits` true and unit-propagate. Returns (clauses left, vars assigned),
    or (None, _) on a conflict. Satisfied clauses are dropped and false
    literals stripped."""
    true = set(lits)
    if any(-lit in true for lit in true):
        return None, set()
    while True:
        out = []
        units = set()
        for c in clauses:
            if any(lit in true for lit in c):
                continue
            rest = tuple(lit for lit in c if -lit not in true)
            if not rest:
                return None, set()
            if len(rest) == 1:
                units.add(rest[0])
            out.append(rest)
        if not units:
            return out, {abs(lit) for lit in true}
        if any(-u in units or -u in true for u in units):
            return None, set()
        true |= units
        clauses = out


def _variables(clauses) -> set[int]:
    return {abs(lit) for c in clauses for lit in c}


def _components(clauses) -> list[list[tuple[int, ...]]]:
    """Group clauses that share variables, by union-find over variables."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in clauses:
        root = find(abs(c[0]))
        for lit in c[1:]:
            other = find(abs(lit))
            if other != root:
                parent[other] = root
    groups: dict[int, list[tuple[int, ...]]] = {}
    for c in clauses:
        groups.setdefault(find(abs(c[0])), []).append(c)
    return list(groups.values())


class ModelCounter:
    """Exact #SAT by DPLL with unit propagation, component splitting and a
    cache of component counts."""

    def __init__(self) -> None:
        self._cache: dict[frozenset, int] = {}

    def count(self, num_vars: int, clauses: Clauses) -> int:
        """Models over variables 1..num_vars."""
        left, assigned = _propagate([tuple(c) for c in clauses], ())
        if left is None:
            return 0
        free = num_vars - len(assigned) - len(_variables(left))
        return self._count(left) << free

    def _count(self, clauses) -> int:
        """Models over the variables occurring in `clauses` (none empty)."""
        if not clauses:
            return 1
        comps = _components(clauses)
        if len(comps) > 1:
            total = 1
            for comp in comps:
                total *= self._count_component(comp)
                if not total:
                    return 0
            return total
        return self._count_component(clauses)

    def _count_component(self, clauses) -> int:
        key = frozenset(frozenset(c) for c in clauses)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        occurrences: dict[int, int] = {}
        for c in clauses:
            for lit in c:
                occurrences[abs(lit)] = occurrences.get(abs(lit), 0) + 1
        x = max(occurrences, key=lambda v: (occurrences[v], -v))
        total = 0
        for lit in (x, -x):
            left, assigned = _propagate(clauses, (lit,))
            if left is None:
                continue
            vanished = len(occurrences) - len(assigned) - len(_variables(left))
            total += self._count(left) << vanished
        self._cache[key] = total
        return total


def grid_switch_count(n: int) -> int:
    """Closed form for the n-by-n grid-switch formula: each value of the switch
    leaves n independent path formulas of n variables, and a path of n
    vertices has Fib(n + 2) independent sets."""
    a, b = 0, 1  # Fib(0), Fib(1)
    for _ in range(n + 2):
        a, b = b, a + b
    return 2 * a**n


# ---------------------------------------------------------------------------
# width tests on incidence graphs


def incidence_adjacency(clauses: Clauses, tau: dict[int, int]) -> dict[int, set[int]]:
    """Incidence graph of the formula reduced by tau: satisfied clauses drop
    out, assigned variables leave the remaining clauses. Variable x is vertex
    x and the i-th clause is vertex -(i + 1)."""
    adj: dict[int, set[int]] = {}
    for ci, c in enumerate(clauses):
        if any(abs(lit) in tau and (lit > 0) == bool(tau[abs(lit)]) for lit in c):
            continue
        cv = -(ci + 1)
        adj.setdefault(cv, set())
        for lit in c:
            if abs(lit) in tau:
                continue
            adj.setdefault(abs(lit), set()).add(cv)
            adj[cv].add(abs(lit))
    return adj


def is_forest(adj: dict[int, set[int]]) -> bool:
    """Treewidth at most 1: no edge closes a cycle."""
    parent = {v: v for v in adj}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, nbrs in adj.items():
        for v in nbrs:
            if u < v:
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def is_series_parallel(adj: dict[int, set[int]]) -> bool:
    """Treewidth at most 2: the graph reduces to nothing by deleting vertices
    of degree at most 1 and replacing a degree-2 vertex by an edge between
    its neighbours. Both rules take minors, and a graph they leave stuck has
    minimum degree 3, hence treewidth at least 3."""
    adj = {v: set(s) for v, s in adj.items()}
    queue = list(adj)
    while queue:
        v = queue.pop()
        if v not in adj or len(adj[v]) > 2:
            continue
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        queue.extend(nbrs)
    return not adj


WIDTH_TESTS = {1: is_forest, 2: is_series_parallel}


def backdoor_fault(clauses: Clauses, backdoor, t: int, k: int) -> str | None:
    """Why `backdoor` is not a strong backdoor into width t of size at most
    2^k - 1, or None if it is one."""
    occurring = _variables(clauses)
    if len(backdoor) > 2**k - 1:
        return f"size {len(backdoor)} exceeds 2^k - 1 = {2**k - 1}"
    if not set(backdoor) <= occurring:
        return f"variables {sorted(set(backdoor) - occurring)} do not occur"
    test = WIDTH_TESTS[t]
    for values in product((0, 1), repeat=len(backdoor)):
        tau = dict(zip(backdoor, values))
        if not test(incidence_adjacency(clauses, tau)):
            return f"reduction under {tau} has incidence treewidth above {t}"
    return None


# ---------------------------------------------------------------------------
# checking one run


@dataclass
class Verdict:
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def check_records(bases: list[dict], records: list[dict], base_of_copy) -> Verdict:
    """Check every timed solve against counts and width tests made here.

    `bases` holds each base instance's variable count, clauses, t, k and (for
    grid-switch) n. `base_of_copy(record)` maps a record's backdoor back to
    the variable ids of its base instance. A solve fails when it raised,
    ended in any outcome other than 'counted', or gave a wrong answer; only
    wrong answers make the run incorrect.
    """
    formulas = [(b["num_vars"], tuple(map(tuple, b["clauses"]))) for b in bases]
    counter = ModelCounter()
    refs = []
    for b, (num_vars, clauses) in zip(bases, formulas):
        ref = counter.count(num_vars, clauses)
        if b.get("grid_n") is not None and ref != grid_switch_count(b["grid_n"]):
            raise RuntimeError(f"{b['label']}: DPLL count disagrees with the closed form")
        refs.append(ref)
    verdict = Verdict()
    checked: dict[tuple, str | None] = {}
    for rec in records:
        i = rec["base"]
        if rec["outcome"] != "counted":
            verdict.failed += 1
            continue
        fault = None
        if rec["count"] != refs[i]:
            fault = f"count {rec['count']} != reference {refs[i]}"
        elif rec["backdoor"] is not None:
            b = bases[i]
            mapped = tuple(sorted(base_of_copy(rec)))
            if (i, mapped) not in checked:
                checked[(i, mapped)] = backdoor_fault(formulas[i][1], mapped, b["t"], b["k"])
            fault = checked[(i, mapped)]
        if fault is not None:
            verdict.failed += 1
            verdict.wrong.append(f"{bases[i]['label']} pass {rec['pass']}: {fault}")
    return verdict
