"""Strong and deletion backdoor sets into bounded incidence treewidth.

The exact search branches on killer sets of treewidth witnesses: whenever
some assignment to the current candidate set leaves a too-wide reduction, a
small high-treewidth subgraph is extracted and every way of destroying it
(containing one of its variables, or satisfying one of its clauses under
every assignment) yields a child branch. Any strong backdoor must intersect
that killer set, so the search is complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Assignment, CnfFormula, FormulaError, assignments, delete_vars, reduce
from .graphs import Graph, build_incidence, clause_id, is_clause_vertex
from .treewidth import (
    AT_MOST,
    DEFAULT_VERTEX_CAP,
    EXCEEDS,
    UNKNOWN,
    TwVerdict,
    _greedy_order,
    treewidth_at_most,
)

STRONG_CHECK_CAP = 20
EXACT_SEARCH_CAP = 6


class InconclusiveTreewidth(RuntimeError):
    """A treewidth query came back Unknown where the search needed a decision."""


@dataclass
class SearchStats:
    nodes: int = 0
    checks: int = 0


@dataclass(frozen=True)
class BackdoorReport:
    variables: tuple[int, ...]
    kind: str  # strong / deletion
    t: int
    valid: bool
    failing_assignment: Assignment | None = None
    failing_bound: int | None = None
    stats: SearchStats | None = None

    @property
    def size(self) -> int:
        return len(self.variables)


@dataclass(frozen=True)
class KillerSet:
    """Variables able to destroy an obstruction: members, and sign-flippers."""

    obstruction: frozenset[int]
    internal: tuple[int, ...]
    external: tuple[int, ...]


def _reduction_verdict(
    f: CnfFormula, tau: Assignment, t: int, vertex_cap: int, stats: SearchStats | None
) -> TwVerdict:
    if stats is not None:
        stats.checks += 1
    verdict = treewidth_at_most(build_incidence(reduce(f, tau)), t, vertex_cap)
    if verdict.kind == UNKNOWN:
        raise InconclusiveTreewidth(f"treewidth undecided for reduction under {tau}")
    return verdict


def _first_failing(
    f: CnfFormula, b: frozenset[int], t: int, vertex_cap: int, stats: SearchStats | None
) -> tuple[Assignment, TwVerdict] | None:
    for tau in assignments(b, cap=STRONG_CHECK_CAP):
        verdict = _reduction_verdict(f, tau, t, vertex_cap, stats)
        if verdict.kind == EXCEEDS:
            return tau, verdict
    return None


def is_strong_backdoor(
    f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport:
    """Check every assignment to b; invalid verdicts carry the first failing one."""
    bset = frozenset(b)
    if not bset <= f.variables:
        raise FormulaError(f"backdoor candidates must occur in the formula: {sorted(bset - f.variables)}")
    if len(bset) > STRONG_CHECK_CAP:
        raise FormulaError(f"backdoor of size {len(bset)} exceeds the check cap {STRONG_CHECK_CAP}")
    stats = SearchStats()
    failing = _first_failing(f, bset, t, vertex_cap, stats)
    if failing is None:
        return BackdoorReport(tuple(sorted(bset)), "strong", t, True, stats=stats)
    tau, verdict = failing
    return BackdoorReport(
        tuple(sorted(bset)), "strong", t, False,
        failing_assignment=tau, failing_bound=verdict.bound, stats=stats,
    )


def is_deletion_backdoor(
    f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport:
    """Single treewidth check on the literal-deleted formula."""
    bset = frozenset(b)
    stats = SearchStats(checks=1)
    verdict = treewidth_at_most(build_incidence(delete_vars(f, bset)), t, vertex_cap)
    if verdict.kind == UNKNOWN:
        raise InconclusiveTreewidth("treewidth undecided for the deleted formula")
    if verdict.kind == AT_MOST:
        return BackdoorReport(tuple(sorted(bset)), "deletion", t, True, stats=stats)
    return BackdoorReport(
        tuple(sorted(bset)), "deletion", t, False, failing_bound=verdict.bound, stats=stats
    )


def killer_set(f: CnfFormula, w, t: int) -> KillerSet:
    """Internal killers are w's variable vertices; external killers occur
    positively in one of w's clauses and negatively in another."""
    wset = frozenset(w)
    internal = {v for v in wset if not is_clause_vertex(v)}
    pos: set[int] = set()
    neg: set[int] = set()
    for v in wset:
        if not is_clause_vertex(v):
            continue
        c = f.clauses_by_id.get(clause_id(v))
        if c is None:
            raise FormulaError(f"obstruction references unknown clause {clause_id(v)}")
        for lit in c.literals:
            if lit.var in internal:
                continue
            (pos if lit.positive else neg).add(lit.var)
    return KillerSet(wset, tuple(sorted(internal)), tuple(sorted(pos & neg)))


def _find_cycle(g: Graph) -> frozenset[int] | None:
    """Vertex set of some cycle, via a spanning tree plus one non-tree edge."""
    seen: set[int] = set()
    for start in g.sorted_vertices():
        if start in seen:
            continue
        parent: dict[int, int | None] = {}
        depth: dict[int, int] = {}
        stack: list[tuple[int, int | None, int]] = [(start, None, 0)]
        while stack:
            u, p, d = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            parent[u] = p
            depth[u] = d
            for x in sorted(g.neighbors(u)):
                if x == p:
                    continue
                if x in depth:
                    # non-tree edge u-x closes a cycle through their meeting point
                    a, b = u, x
                    cyc = {a, b}
                    while depth[a] > depth[b]:
                        a = parent[a]
                        cyc.add(a)
                    while depth[b] > depth[a]:
                        b = parent[b]
                        cyc.add(b)
                    while a != b:
                        a, b = parent[a], parent[b]
                        cyc.add(a)
                        cyc.add(b)
                    return frozenset(cyc)
                stack.append((x, u, d + 1))
    return None


def extract_witness(
    f: CnfFormula, tau: Assignment, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> frozenset[int]:
    """A small vertex set of inc(F[tau]) whose induced subgraph has width above t.

    Seeded from a cheap certificate (a cycle for t=1, the high-degeneracy core
    otherwise), then shrunk by greedy vertex deletion while the width stays
    above t. For t <= 2 each deletion trial plays the min-degree game, stopped
    above t, on the induced adjacency: it is the exact test of the ladder's
    t <= 2 rung, without building a subgraph.
    """
    g = build_incidence(reduce(f, tau))
    verdict = treewidth_at_most(g, t, vertex_cap)
    if verdict.kind != EXCEEDS:
        raise ValueError("witness extraction needs a reduction of width above t")
    if t == 1:
        seed = _find_cycle(g)
        if seed is None:  # pragma: no cover - Exceeds at t=1 implies a cycle
            seed = frozenset(g.vertices())
    elif isinstance(verdict.certificate, frozenset):
        seed = verdict.certificate
    else:
        seed = frozenset(g.vertices())
    adj = g.adjacency() if t <= 2 else None
    w = set(seed)
    for u in sorted(seed):
        if len(w) <= 2:
            break
        trial = w - {u}
        if t <= 2:
            order, _, _ = _greedy_order({v: adj[v] & trial for v in trial}, False, limit=t)
            exceeds = len(order) < len(trial)
        else:
            exceeds = treewidth_at_most(g.subgraph(trial), t, vertex_cap).kind == EXCEEDS
        if exceeds:
            w = trial
    return frozenset(w)


def find_smallest_strong_backdoor(
    f: CnfFormula, t: int, k_max: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport | None:
    """Exact minimum-size strong backdoor up to k_max, or None if none exists.

    Iterative deepening over target sizes; each node branches on the killer
    set of a witness extracted from its first failing assignment.
    """
    if not 0 <= k_max <= EXACT_SEARCH_CAP:
        raise FormulaError(f"k_max must be between 0 and the desk-scale cap {EXACT_SEARCH_CAP}")
    stats = SearchStats()

    def dfs(b: frozenset[int], size: int) -> frozenset[int] | None:
        stats.nodes += 1
        failing = _first_failing(f, b, t, vertex_cap, stats)
        if failing is None:
            return b
        if len(b) >= size:
            return None
        tau, _ = failing
        fr = reduce(f, tau)
        witness = extract_witness(f, tau, t, vertex_cap)
        killers = killer_set(fr, witness, t)
        for x in killers.internal + killers.external:
            res = dfs(b | {x}, size)
            if res is not None:
                return res
        return None

    for size in range(k_max + 1):
        found = dfs(frozenset(), size)
        if found is not None:
            return BackdoorReport(tuple(sorted(found)), "strong", t, True, stats=stats)
    return None


def killer_union_candidates(
    f: CnfFormula, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> tuple[int, ...]:
    """Candidate variables from one witness of the unreduced formula.

    Every strong backdoor (of any size) must contain one of these, since it
    must destroy the witness.
    """
    witness = extract_witness(f, Assignment(), t, vertex_cap)
    killers = killer_set(f, witness, t)
    return killers.internal + killers.external


def approx_backdoor(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = 8,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    s_provider=None,
) -> BackdoorReport | None:
    """Strong backdoor of size at most 2^k - 1, or None meaning none of size <= k.

    Small-width formulas fall back to the exact search. On wide formulas every
    candidate from the provider is set both ways and the halves are solved
    with budget k-1; the provider must return a set intersecting every strong
    backdoor of size at most k (the default uses one witness's killers).
    {x} | B0 | B1 is not re-checked: width is monotone under the subgraphs that
    more assignments leave, and counting's branch pass is the verifier. Stats
    include the nested exact searches that found a set (others report none).
    """
    if not 0 <= k <= EXACT_SEARCH_CAP:
        raise FormulaError(f"k must be between 0 and {EXACT_SEARCH_CAP}")
    threshold = max(tw_threshold, t)
    provider = s_provider or (lambda ff, tt, kk: killer_union_candidates(ff, tt, vertex_cap))
    stats = SearchStats()

    def rec(cur: CnfFormula, budget: int) -> frozenset[int] | None:
        stats.nodes += 1
        verdict = treewidth_at_most(build_incidence(cur), threshold, vertex_cap)
        if verdict.kind == UNKNOWN:
            raise InconclusiveTreewidth("treewidth undecided during approximation")
        if verdict.kind == AT_MOST:
            report = find_smallest_strong_backdoor(cur, t, budget, vertex_cap)
            if report is None:
                return None
            stats.nodes += report.stats.nodes
            stats.checks += report.stats.checks
            return frozenset(report.variables)
        if budget == 0:
            return None
        for x in sorted(set(provider(cur, t, budget))):
            b0 = rec(reduce(cur, Assignment({x: 0})), budget - 1)
            if b0 is None:
                continue
            b1 = rec(reduce(cur, Assignment({x: 1})), budget - 1)
            if b1 is None:
                continue
            return {x} | b0 | b1
        return None

    found = rec(f, k)
    if found is None:
        return None
    return BackdoorReport(tuple(sorted(found)), "strong", t, True, stats=stats)
