"""Strong and deletion backdoor sets into bounded incidence treewidth.

The exact search branches on killer sets of treewidth witnesses: whenever
some assignment to the current candidate set leaves a too-wide reduction, a
small high-treewidth subgraph is extracted (`treewidth.witness`) and every
way of destroying it (containing one of its variables, or satisfying one of
its clauses under every assignment) yields a child branch. Any strong
backdoor must intersect that killer set, so the search is complete. The
approximate search sets one witness's killers both ways, recursively, and
returns the leaf branches of that tree. One enumerator, `_branches`, checks
a candidate set for the verification, the exact search and
`counting.backdoor_branch_counts`; each leaf keeps the branches its check
returned, and `counting` sums them without a second walk.

Every width query goes through one `_Oracle`, which `counting.solve`
creates per solve. It builds inc(F) once; a search node is the vertex set
of inc(F) its assignment tau leaves, which determines F[tau], and
inc(F[tau]) is the subgraph that set induces. The oracle keeps (kind,
bound, count) per (vertex set, t), so equal reductions reached along
different paths are decided once; it keeps no induced graph, and each
witness shrinks on a subgraph induced for it. `counting` passes in the
solve's t and its DP, so this module imports nothing from it; the oracle
counts each AtMost verdict at that t as the ladder returns it, and no
other. It also keeps the solve's search counts. A public function called
on its own starts a fresh oracle, which counts nothing.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple

from .formula import (
    CLAUSE_VERTEX_STRIDE,
    Assignment,
    CnfFormula,
    FormulaError,
    _check_declared,
    _Record,
    assignments,
    delete_vars,
)
from .graphs import Graph, InducedSubgraph, build_incidence, clause_id, is_clause_vertex
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
# The width at or below which a formula is counted directly, not searched.
DEFAULT_TW_THRESHOLD = 8


class InconclusiveTreewidth(RuntimeError):
    """A treewidth query came back Unknown where the search needed a decision."""


class SearchStats(_Record):
    """A search's counts, which it updates in place: unlike the other
    records, assignable, and so not hashable."""

    __slots__ = _fields = ("nodes", "checks")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, nodes: int = 0, checks: int = 0) -> None:
        self.nodes = nodes
        self.checks = checks


class BackdoorReport(_Record):
    __slots__ = _fields = ("variables", "kind", "t", "valid", "failing_assignment", "failing_bound", "stats")

    def __init__(
        self,
        variables: tuple[int, ...],
        kind: str,  # strong / deletion
        t: int,
        valid: bool,
        failing_assignment: Assignment | None = None,
        failing_bound: int | None = None,
        stats: SearchStats | None = None,
    ) -> None:
        self._set(variables, kind, t, valid, failing_assignment, failing_bound, stats)

    @property
    def size(self) -> int:
        return len(self.variables)


class KillerSet(NamedTuple):
    """Variables able to destroy an obstruction: members, and sign-flippers."""

    obstruction: frozenset[int]
    internal: tuple[int, ...]
    external: tuple[int, ...]


class _Oracle:
    """inc(F) of one solve, its width verdicts keyed by (vertex set, t), and
    the solve's search counts.

    A vertex set (`reduced`) reached along different paths is one entry,
    and the ladder decides it once, on the subgraph induced for that miss
    (`induced`). The oracle records the edge count of every vertex set
    `reduced` returns (`edges`), so that subgraph knows its size before it
    is built. An entry is (kind, bound, count). A miss at the solve's t
    that comes back AtMost runs `dp` on F and the elimination the ladder
    just returned and keeps the model count; every other entry has no
    count. Of verdicts it keeps whole only the last on inc(F) itself
    (`root_verdict`), whose elimination `solve` counts when it was decided
    at a threshold above t.
    """

    __slots__ = ("f", "graph", "root", "edges", "vertex_cap", "t", "dp", "stats", "root_verdict", "_verdicts")

    def __init__(self, f: CnfFormula, vertex_cap: int, t: int | None = None, dp=None) -> None:
        self.f = f
        self.graph = build_incidence(f)
        self.root = frozenset(self.graph.vertices())  # the vertex set of inc(F)
        self.edges = {self.root: self.graph.num_edges()}  # vertex set -> edges it induces
        self.vertex_cap = vertex_cap
        self.t = t  # the width whose AtMost verdicts dp counts; None counts none
        self.dp = dp
        self.stats = SearchStats()
        self.root_verdict: TwVerdict | None = None
        # (vertex set, t) -> (kind, bound, count)
        self._verdicts: dict[tuple[frozenset[int], int], tuple[str, int, int | None]] = {}

    def reduced(self, alive: frozenset[int], tau: Assignment) -> frozenset[int]:
        """The vertex set of inc(F[sigma + tau]), given that of inc(F[sigma])
        and a tau that assigns no variable of sigma: alive less tau's
        variables, the clauses tau satisfies, and the variables those
        clauses leave in no clause of alive. Reads only the neighbourhoods
        of tau's variables and of the clauses it satisfies, and records the
        set's edge count: alive's less the edges of tau's variables and of
        the satisfied clauses (a vanished variable's edges all go to
        satisfied clauses)."""
        if not tau:
            return alive
        adj, by_id = self.graph.adjacency_view(), self.f.clauses_by_id
        m = self.edges[alive]
        satisfied = set()
        for x, value in tau.items():
            lit = x if value else -x
            for cv in adj[x]:
                if cv in alive:
                    m -= 1
                    if lit in by_id[cv - CLAUSE_VERTEX_STRIDE].lits:
                        satisfied.add(cv)
        left = alive.difference(tau.domain, satisfied)
        vanished = []
        for cv in satisfied:
            for y in adj[cv]:
                if y in left:
                    m -= 1
                    if adj[y].isdisjoint(left):
                        vanished.append(y)
        if vanished:
            left = left.difference(vanished)
        self.edges[left] = m
        return left

    def induced(self, alive: frozenset[int]) -> Graph:
        """inc(F[tau]) for the vertex set alive that tau leaves; inc(F) itself
        at the root, the one subset of root as large as root."""
        if len(alive) == len(self.root):
            return self.graph
        return InducedSubgraph(self.graph.adjacency_view(), alive, self.edges[alive])

    def verdict(self, alive: frozenset[int], t: int) -> tuple[str, int, int | None]:
        """(kind, bound, count) of tw <= t for the subgraph of inc(F) that
        alive induces; the first ask runs the ladder on it."""
        key = (alive, t)
        entry = self._verdicts.get(key)
        if entry is None:
            verdict = treewidth_at_most(self.induced(alive), t, self.vertex_cap)
            if len(alive) == len(self.root):
                self.root_verdict = verdict
            counted = t == self.t and verdict.kind == AT_MOST
            count = self.dp(self.f, verdict.elimination) if counted else None
            entry = self._verdicts[key] = (verdict.kind, verdict.bound, count)
        return entry


# An assignment tau to a candidate set, the vertex set of inc(F[tau]), and
# the oracle's entry for it.
_Branch = tuple[Assignment, frozenset[int], tuple[str, int, int | None]]


def _branches(alive: frozenset[int], b: frozenset[int], t: int, oracle: _Oracle) -> list[_Branch]:
    """The assignments to b in counting order, each with the vertex set it
    leaves of alive and the oracle's entry at t, up to and including the
    first that exceeds t; each counts as one check. An undecided reduction
    raises InconclusiveTreewidth."""
    out = []
    for tau in assignments(b, cap=STRONG_CHECK_CAP):
        oracle.stats.checks += 1
        left = oracle.reduced(alive, tau)
        entry = oracle.verdict(left, t)
        if entry[0] == UNKNOWN:
            raise InconclusiveTreewidth(f"treewidth undecided for reduction under {tau}")
        out.append((tau, left, entry))
        if entry[0] == EXCEEDS:
            break
    return out


def _check_parameters(t: int, k: int = 0) -> None:
    """Reject a width t below 0 or a backdoor size k outside 0..EXACT_SEARCH_CAP;
    every public search, verify and count entry calls this first."""
    if t < 0:
        raise FormulaError(f"t must be at least 0, got {t}")
    if not 0 <= k <= EXACT_SEARCH_CAP:
        raise FormulaError(f"k must be between 0 and {EXACT_SEARCH_CAP}, got {k}")


def is_strong_backdoor(
    f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport:
    """Check every assignment to b; invalid verdicts carry the first failing one."""
    _check_parameters(t)
    bset = frozenset(b)
    if not bset <= f.variables:
        raise FormulaError(f"backdoor candidates must occur in the formula: {sorted(bset - f.variables)}")
    if len(bset) > STRONG_CHECK_CAP:
        raise FormulaError(f"backdoor of size {len(bset)} exceeds the check cap {STRONG_CHECK_CAP}")
    oracle = _Oracle(f, vertex_cap)
    tau, _, (kind, bound, _) = _branches(oracle.root, bset, t, oracle)[-1]
    if kind == AT_MOST:
        return BackdoorReport(tuple(sorted(bset)), "strong", t, True, stats=oracle.stats)
    return BackdoorReport(
        tuple(sorted(bset)), "strong", t, False,
        failing_assignment=tau, failing_bound=bound, stats=oracle.stats,
    )


def is_deletion_backdoor(
    f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport:
    """Single treewidth check on the literal-deleted formula."""
    _check_parameters(t)
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


def killer_set(f: CnfFormula, w) -> KillerSet:
    """Internal killers are w's variable vertices; external killers occur
    positively in one of w's clauses and negatively in another."""
    return _killers(f, frozenset(w), f.variables)


def _killers(f: CnfFormula, w: frozenset[int], alive: AbstractSet[int]) -> KillerSet:
    """killer_set of w in F[tau], where alive holds the variables of F[tau]:
    a clause of F[tau] keeps the literals of F's clause whose variables are
    alive."""
    internal = {v for v in w if not is_clause_vertex(v)}
    pos: set[int] = set()
    neg: set[int] = set()
    for v in w:
        if not is_clause_vertex(v):
            continue
        c = f.clauses_by_id.get(clause_id(v))
        if c is None:
            raise FormulaError(f"obstruction references unknown clause {clause_id(v)}")
        for x in c.lits:
            if abs(x) not in internal and abs(x) in alive:
                (pos if x > 0 else neg).add(abs(x))
    return KillerSet(w, tuple(sorted(internal)), tuple(sorted(pos & neg)))


def extract_witness(
    f: CnfFormula, tau: Assignment, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> frozenset[int]:
    """A small vertex set of inc(F[tau]) whose induced subgraph has width
    above t (see `treewidth.witness`); ValueError unless F[tau] has width above t."""
    _check_parameters(t)
    _check_declared(f, tau.domain)
    oracle = _Oracle(f, vertex_cap)
    alive = oracle.reduced(oracle.root, tau)
    if oracle.verdict(alive, t)[0] != EXCEEDS:
        raise ValueError("witness extraction needs a reduction of width above t")
    return witness(oracle.induced(alive), t, vertex_cap)


def find_smallest_strong_backdoor(
    f: CnfFormula, t: int, k_max: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> BackdoorReport | None:
    """Exact minimum-size strong backdoor up to k_max, or None if none exists.

    Iterative deepening over target sizes; each node branches on the killer
    set of a witness extracted from its first failing assignment.
    """
    _check_parameters(t, k_max)
    oracle = _Oracle(f, vertex_cap)
    return _found(_smallest(oracle.root, t, k_max, oracle), t, oracle)


def _smallest(alive: frozenset[int], t: int, k_max: int, oracle: _Oracle) -> list[_Branch] | None:
    """The branches of the set find_smallest_strong_backdoor finds for the
    reduction whose vertex set is alive, or None, asking the oracle for
    every verdict and counting on its stats."""
    for size in range(k_max + 1):
        found = _smallest_from(alive, t, frozenset(), size, oracle)
        if found is not None:
            return found
    return None


def _smallest_from(
    alive: frozenset[int], t: int, b: frozenset[int], size: int, oracle: _Oracle
) -> list[_Branch] | None:
    """The branches of the first strong backdoor within size variables that
    extends b, or None. Not a nested closure: its reference cycle would keep
    the oracle alive after the solve."""
    oracle.stats.nodes += 1
    branches = _branches(alive, b, t, oracle)
    _, left, (kind, _, _) = branches[-1]
    if kind == AT_MOST:
        return branches
    if len(b) >= size:
        return None
    killers = _killers(oracle.f, witness(oracle.induced(left), t, oracle.vertex_cap), left)
    for x in killers.internal + killers.external:
        res = _smallest_from(alive, t, b | {x}, size, oracle)
        if res is not None:
            return res
    return None


def approx_backdoor(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = DEFAULT_TW_THRESHOLD,
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
    _check_parameters(t, k)
    oracle = _Oracle(f, vertex_cap)
    return _found(_approx(oracle.root, t, k, tw_threshold, oracle), t, oracle)


def _found(branches: list[_Branch] | None, t: int, oracle: _Oracle) -> BackdoorReport | None:
    """The report of the set a search found, or None if it found none."""
    if branches is None:
        return None
    return BackdoorReport(_leaf_union(branches), "strong", t, True, stats=oracle.stats)


def _leaf_union(branches: list[_Branch]) -> tuple[int, ...]:
    return tuple(sorted(frozenset().union(*(tau.domain for tau, _, _ in branches))))


def _approx(
    alive: frozenset[int], t: int, k: int, tw_threshold: int, oracle: _Oracle,
    path: Assignment = Assignment(),
) -> list[_Branch] | None:
    """The leaf branches of approx_backdoor's search tree, x = 0 subtree first,
    or None: a path's killer values joined with each assignment to the set the
    exact search found below it, with its vertex set and its entry at t. path
    holds the killer values that left alive of inc(F). A width the caps leave
    undecided at the threshold is asked again at t, where an Exceeds verdict
    still lets the search branch."""
    oracle.stats.nodes += 1
    kind = oracle.verdict(alive, max(tw_threshold, t))[0]
    if kind == UNKNOWN and tw_threshold > t:
        kind = oracle.verdict(alive, t)[0]
    if kind == UNKNOWN:
        raise InconclusiveTreewidth("treewidth undecided during approximation")
    if kind == AT_MOST:
        branches = _smallest(alive, t, k, oracle)
        return None if branches is None else [(path.merged(tau), left, e) for tau, left, e in branches]
    if k == 0:
        return None
    killers = _killers(oracle.f, witness(oracle.induced(alive), t, oracle.vertex_cap), alive)
    for x in sorted(set(killers.internal + killers.external)):
        leaves: list[_Branch] = []
        for value in (0, 1):
            tau = Assignment({x: value})
            half = _approx(oracle.reduced(alive, tau), t, k - 1, tw_threshold, oracle, path.merged(tau))
            if half is None:
                break
            leaves += half
        else:
            return leaves
    return None
