"""Strong and deletion backdoor sets into bounded incidence treewidth.

The exact search branches on killer sets of treewidth witnesses: whenever
some assignment to the current candidate set leaves a too-wide reduction, a
small high-treewidth subgraph is extracted (`treewidth.witness`) and every
way of destroying it (containing one of its variables, or satisfying one of
its clauses under every assignment) yields a child branch. Any strong
backdoor must intersect that killer set, so the search is complete. The
approximate search sets one witness's killers both ways, recursively, and
returns the leaves of that tree, whose branches `counting` counts.

Every width query on a reduced formula goes through one `_Oracle`, which
`counting.solve` creates per solve and hands to the search, the witness
extraction and the branch pass. It keeps (kind, bound, count) per
(reduced formula, t), never a graph or a decomposition: reductions reached
along different paths are equal formulas, so each is decided once, and
inc(F) is built only to decide it, or for a witness whose verdict was
already held. `counting` passes in the solve's t and its DP, so this module
imports nothing from it; the oracle counts each AtMost verdict at that t as
the ladder returns it, and no verdict at any other width. It also keeps
the search counts of the solve. A public function called on its own starts
a fresh oracle, which counts nothing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

from .formula import Assignment, CnfFormula, FormulaError, assignments, delete_vars, reduce
from .graphs import Graph, build_incidence, clause_id, is_clause_vertex
from .treewidth import (
    AT_MOST,
    DEFAULT_VERTEX_CAP,
    EXCEEDS,
    UNKNOWN,
    TwVerdict,
    treewidth_at_most,
    witness,
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


def _formula_key(f: CnfFormula) -> bytes:
    """The formula packed into one bytes object: equal keys iff equal formulas.

    Free variables, then each clause as id, length and signed literals.
    """
    packed = array("q", sorted(f.free_vars))
    packed.append(-1)
    for c in f.clauses:
        packed.append(c.id)
        packed.append(len(c.literals))
        packed.extend([lit.var if lit.positive else -lit.var for lit in c.literals])
    return packed.tobytes()


class _Oracle:
    """The width verdicts of one solve, keyed by (reduced formula, t), and
    the solve's search counts.

    reduce(reduce(f, a), b) equals reduce(f, a | b), so a reduction reached
    along different paths is one entry, and the ladder decides it once, on
    inc(F) built for that miss. An entry is (kind, bound, count). A miss at
    the solve's t that comes back AtMost runs `dp` on the decomposition the
    ladder just returned, keeps the model count and drops the decomposition;
    every other entry has no count. Graphs and decompositions are never
    kept, and the formula key is one flat bytes object, so a solve's memory
    stays close to what it was without the oracle.
    """

    __slots__ = ("vertex_cap", "t", "dp", "stats", "_verdicts")

    def __init__(self, vertex_cap: int, t: int | None = None, dp=None) -> None:
        self.vertex_cap = vertex_cap
        self.t = t  # the width whose AtMost verdicts dp counts; None counts none
        self.dp = dp
        self.stats = SearchStats()
        # (formula key, t) -> (kind, bound, count)
        self._verdicts: dict[tuple[bytes, int], tuple[str, int, int | None]] = {}

    def _entry(
        self, f: CnfFormula, t: int
    ) -> tuple[tuple[str, int, int | None], TwVerdict | None, Graph | None]:
        """The stored entry; after a miss also the verdict the ladder just gave
        and the graph it decided, which are handed back but not kept."""
        key = (_formula_key(f), t)
        entry = self._verdicts.get(key)
        if entry is not None:
            return entry, None, None
        g = build_incidence(f)
        verdict = treewidth_at_most(g, t, self.vertex_cap)
        count = None
        if t == self.t and verdict.kind == AT_MOST:
            count = self.dp(f, verdict.decomposition)
        entry = self._verdicts[key] = (verdict.kind, verdict.bound, count)
        return entry, verdict, g

    def verdict(self, f: CnfFormula, t: int) -> tuple[str, int, int | None]:
        """(kind, bound, count) of tw(inc(f)) <= t; the first ask builds inc(f)
        and runs the ladder on it."""
        return self._entry(f, t)[0]


def _first_failing(
    f: CnfFormula, b: frozenset[int], t: int, oracle: _Oracle
) -> tuple[Assignment, CnfFormula] | None:
    """The first assignment to b whose reduction exceeds t, with that reduction;
    each assignment drawn counts as one check on the oracle's stats."""
    for tau in assignments(b, cap=STRONG_CHECK_CAP):
        oracle.stats.checks += 1
        fr = reduce(f, tau)
        kind = oracle.verdict(fr, t)[0]
        if kind == UNKNOWN:
            raise InconclusiveTreewidth(f"treewidth undecided for reduction under {tau}")
        if kind == EXCEEDS:
            return tau, fr
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
    oracle = _Oracle(vertex_cap)
    failing = _first_failing(f, bset, t, oracle)
    if failing is None:
        return BackdoorReport(tuple(sorted(bset)), "strong", t, True, stats=oracle.stats)
    tau, fr = failing
    return BackdoorReport(
        tuple(sorted(bset)), "strong", t, False,
        failing_assignment=tau, failing_bound=oracle.verdict(fr, t)[1], stats=oracle.stats,
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


def extract_witness(
    f: CnfFormula, tau: Assignment, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> frozenset[int]:
    """A small vertex set of inc(F[tau]) whose induced subgraph has width
    above t (see `treewidth.witness`); ValueError unless F[tau] has width above t."""
    return _witness(reduce(f, tau), t, _Oracle(vertex_cap))


def _witness(fr: CnfFormula, t: int, oracle: _Oracle) -> frozenset[int]:
    """extract_witness on the reduction fr, asking the oracle for its verdict;
    the shrink runs on the graph a miss just built, or on a fresh inc(fr)."""
    (kind, _, _), _, g = oracle._entry(fr, t)
    if kind != EXCEEDS:
        raise ValueError("witness extraction needs a reduction of width above t")
    return witness(build_incidence(fr) if g is None else g, t, oracle.vertex_cap)


def find_smallest_strong_backdoor(
    f: CnfFormula, t: int, k_max: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport | None:
    """Exact minimum-size strong backdoor up to k_max, or None if none exists.

    Iterative deepening over target sizes; each node branches on the killer
    set of a witness extracted from its first failing assignment.
    """
    if not 0 <= k_max <= EXACT_SEARCH_CAP:
        raise FormulaError(f"k_max must be between 0 and the desk-scale cap {EXACT_SEARCH_CAP}")
    return _smallest(f, t, k_max, _Oracle(vertex_cap))


def _smallest(f: CnfFormula, t: int, k_max: int, oracle: _Oracle) -> BackdoorReport | None:
    """find_smallest_strong_backdoor, asking the oracle for every verdict and
    counting on its stats."""

    def dfs(b: frozenset[int], size: int) -> frozenset[int] | None:
        oracle.stats.nodes += 1
        failing = _first_failing(f, b, t, oracle)
        if failing is None:
            return b
        if len(b) >= size:
            return None
        _, fr = failing
        killers = killer_set(fr, _witness(fr, t, oracle), t)
        for x in killers.internal + killers.external:
            res = dfs(b | {x}, size)
            if res is not None:
                return res
        return None

    for size in range(k_max + 1):
        found = dfs(frozenset(), size)
        if found is not None:
            return BackdoorReport(tuple(sorted(found)), "strong", t, True, stats=replace(oracle.stats))
    return None


def approx_backdoor(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = 8,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> BackdoorReport | None:
    """Strong backdoor of size at most 2^k - 1, or None meaning none of size <= k.

    Small-width formulas fall back to the exact search. On wide formulas every
    killer of one witness is set both ways and the halves are solved with
    budget k-1: the killers of one witness meet every small strong backdoor,
    since each must destroy that witness. The union of the tree's killers and
    leaf sets is a strong backdoor: each of its assignments extends one leaf
    branch, and width is monotone under the subgraphs more assignments leave.
    Stats count every node and check, nested exact searches included.
    """
    if not 0 <= k <= EXACT_SEARCH_CAP:
        raise FormulaError(f"k must be between 0 and {EXACT_SEARCH_CAP}")
    oracle = _Oracle(vertex_cap)
    leaves = _approx(f, t, k, tw_threshold, oracle)
    if leaves is None:
        return None
    return BackdoorReport(_leaf_union(leaves), "strong", t, True, stats=oracle.stats)


Leaf = tuple[Assignment, frozenset[int]]  # killer values on a path, set found below


def _leaf_union(leaves: list[Leaf]) -> tuple[int, ...]:
    return tuple(sorted(frozenset().union(*(path.domain | s for path, s in leaves))))


def _approx(
    f: CnfFormula, t: int, k: int, tw_threshold: int, oracle: _Oracle
) -> list[Leaf] | None:
    """The leaves of approx_backdoor's search tree, x = 0 subtree first, or None.

    A leaf's path joined with any assignment to its set is a branch, put in
    the oracle as width at most t, counted if the oracle counts at t; every
    assignment of f extends one branch."""
    threshold = max(tw_threshold, t)

    def rec(cur: CnfFormula, budget: int, path: tuple[tuple[int, int], ...]) -> list[Leaf] | None:
        oracle.stats.nodes += 1
        kind = oracle.verdict(cur, threshold)[0]
        if kind == UNKNOWN:
            raise InconclusiveTreewidth("treewidth undecided during approximation")
        if kind == AT_MOST:
            report = _smallest(cur, t, budget, oracle)
            return None if report is None else [(Assignment(path), frozenset(report.variables))]
        if budget == 0:
            return None
        killers = killer_set(cur, _witness(cur, t, oracle), t)
        for x in sorted(set(killers.internal + killers.external)):
            leaves0 = rec(reduce(cur, Assignment({x: 0})), budget - 1, path + ((x, 0),))
            if leaves0 is None:
                continue
            leaves1 = rec(reduce(cur, Assignment({x: 1})), budget - 1, path + ((x, 1),))
            if leaves1 is None:
                continue
            return leaves0 + leaves1
        return None

    return rec(f, k, ())
