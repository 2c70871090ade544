"""#SAT engines: brute-force oracle, elimination DP, backdoor-driven counting.

Counts are Python ints, so they are arbitrary precision by construction.
The DP is bucket elimination (Dechter, AI 1999) on the incidence graph,
with clause bits in the "still unsatisfied" form of Slivovsky & Szeider
(SAT 2020). Its one input is an elimination of inc(F)
(`treewidth.Elimination`): the vertices in order, each with its neighbours
when it was eliminated. Each vertex is one bucket, whose scope is the vertex
and those neighbours, so deep eliminations are fine. A bucket multiplies the
messages it received into a table over its scope (four ints for two
vertices), zeroes the edges to its vertex, folds that vertex out and sends
the result on as a message. A scope wider than the table budget (DP_TABLE_CAP
entries) raises TableBudgetExceeded before any table is allocated. Every rung
of the ladder hands over its elimination as its game built it. `count_td`,
whose input is a tree decomposition, counts on the min-fill game played on
the graph with each of its bags made a clique (`treewidth._elimination_of`).
The DP reads the formula, not a graph: a vertex is a clause when its id
says so (`is_clause_vertex`), and the clause's literals, with their polarity,
come from the formula: the solve's own F even when it counts F[tau], whose
elimination covers only the vertices of inc(F[tau]). A bucket finds the
edges of its scope in the literals of their clause ends, a set built once
per DP for a clause of more than LONG_CLAUSE literals: no DP walks F's
clauses, and a long clause costs time linear in its length. A fill pair
matches no literal. Free variables of a formula appear as
isolated vertices of its incidence graph; the DP therefore doubles the
count once per free variable without special handling.

`solve` creates one width oracle (`backdoor._Oracle`) per call, hands it
t and `_run_dp`, and asks it every width query of the call: the root query
and the backdoor search. The oracle builds inc(F) once, keeps (kind, bound,
count) keyed by the vertex set a reduction leaves of it and t, and runs the
ladder only on a miss, so no reduction is decided twice. It runs the DP
on a miss at t that comes back AtMost, on the elimination the ladder just
returned, and counts no verdict at any other width. `solve` counts a root
AtMost at a threshold above t on the elimination of the oracle's root
verdict, or, when that elimination is too wide for the table budget,
searches it as it would a root above the threshold. No tree decomposition
is built on this path, at any width.
The search (`backdoor._approx`) returns its leaf branches with the counts
its own checks made, and `solve` sums them; it reduces nothing and asks the
oracle nothing of its own.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from . import backdoor as _backdoor
from .formula import CLAUSE_VERTEX_STRIDE, Assignment, CnfFormula, _check_declared, _Record
from .graphs import build_incidence
from .treewidth import AT_MOST, DEFAULT_VERTEX_CAP, EXCEEDS, Elimination, _elimination_of

if TYPE_CHECKING:
    from .pace import TreeDecomposition

BRUTE_FORCE_CAP = 22


class VariableCapExceeded(RuntimeError):
    """Brute-force counting was asked for more variables than the cap allows."""


class BackdoorInvalidError(RuntimeError):
    """A claimed backdoor left some reduced formula outside the width bound."""

    def __init__(self, assignment: Assignment, bound: int | None = None):
        self.assignment = assignment
        self.bound = bound
        super().__init__(f"reduction under {assignment} exceeds the width bound (got {bound})")


def count_bruteforce(f: CnfFormula) -> int:
    """Exact model count by enumerating assignments of var(F) plus free vars,
    at most BRUTE_FORCE_CAP of them: 2^23 pure-Python iterations take minutes."""
    vs = sorted(f.variables | f.free_vars)
    n = len(vs)
    if n > BRUTE_FORCE_CAP:
        raise VariableCapExceeded(f"{n} variables exceed the brute-force cap {BRUTE_FORCE_CAP}")
    idx = {v: i for i, v in enumerate(vs)}
    masks = []
    for c in f.clauses:
        pos = neg = 0
        for x in c.lits:
            if x > 0:
                pos |= 1 << idx[x]
            else:
                neg |= 1 << idx[-x]
        masks.append((pos, neg))
    count = 0
    for m in range(1 << n):
        for pos, neg in masks:
            if not (m & pos) and (m & neg) == neg:
                break
        else:
            count += 1
    return count


# ---------------------------------------------------------------------------
# elimination DP
#
# A table holds one exact int per assignment to the bits of a vertex set. A
# variable bit is the variable's value. A clause bit of 1 means "this clause
# must still be unsatisfied": an entry counts the assignments to the
# variables already eliminated that extend the entry's values, satisfy every
# clause already eliminated, and satisfy no clause whose bit is 1 by any
# eliminated variable. In this form a variable is eliminated by adding its
# two halves, a clause by subtracting its "unsatisfied" half from the
# other, and two tables over disjoint eliminated parts multiply entry by
# entry.
#
# The DP is bucket elimination (Dechter, AI 1999) along an elimination
# ordering: each vertex v is eliminated once, in its own bucket, whose scope
# is v and its neighbours N(v) when it was eliminated. The bucket's bits
# stand for the scope's vertices in elimination order, so v is bit 0 and
# only N(v) needs sorting. A bucket's table is the product of the messages it
# received; each edge between a variable x and a clause c is zeroed in the
# bucket of its earlier-eliminated end, on the entries where x takes the
# value its literal in c makes true while c must stay unsatisfied. The
# bucket finds those edges in the literals of F's clauses
# (`CnfFormula.clauses_by_id`): a clause's bucket keeps each of its literals
# whose variable is in N(v), and a variable's bucket looks itself up, with
# both signs, in each clause in N(v). A fill pair, and a clause that lacks
# the variable, match none. A clause's own bucket runs once, but a clause is
# read from as many variable buckets as it has literals, so a variable
# bucket reads a clause of more than LONG_CLAUSE literals as a set, built on
# its first such read in the DP: a clause of L literals whose variables go
# first would otherwise cost L^2 / 2 literal reads. Folding bit 0 gives
# the bucket's message, over N(v), which goes to the bucket of N(v)'s
# earliest-eliminated vertex u: the elimination game made N(v) a clique, so
# N(u) holds the rest of N(v). A message over no vertex, a component's
# count, is a factor of the count, and the factors are multiplied in
# pairwise rounds (`_product`). These scopes are the bags of the
# elimination's decomposition (`pace._decomposition`), but the DP
# never builds it.
#
# - A bucket {v, w} or {v} (every bucket of a width-1 elimination) holds its
#   four entries as ints: its messages are over [v] or [v, w], as N(v) is at
#   most {w}, and an edge zeroes one entry. It sends v folded out at w = 0
#   and at w = 1 on over [w], or, with no w, folds into the count.
# - A bucket of 3 to SMALL_MESSAGE_BITS vertices reads each message through
#   an index list precomputed at import, which names for every entry of the
#   bucket the message entry its bits select, and multiplies them in: the
#   message's positions in the scope list choose it, and a message over the
#   whole scope, or repeated over a prefix of it, needs none. An edge zeroes
#   the entries another list names.
# - A wider bucket applies a message over at most SMALL_MESSAGE_BITS
#   vertices entry by entry: an entry of 1 is skipped, any other scales (and
#   0 zeroes) the sub-cube of entries whose bits match it, sliced by one plan
#   made for the message (`_plan`), as an edge is by one. Every 3-CNF clause
#   leaf {c} + vars(c) sends one, "c is satisfied", a single zero entry.
#   Any other message is spread to all the bucket's bits, one pass per run
#   of missing positions, and multiplied in; the first becomes the table. A
#   bucket that gets only small messages starts from all ones.
#
# The bound is 4 because a wider message has more entries than slicing them
# one by one pays for, while a bucket of at most 16 entries is built faster
# through index lists than by any slicing. 3, 4 and 5 tie in perfbench (5 s,
# seeds 1-4, 2 vCPUs): random-td 163.9, 166.2 and 165.6 solves/s.
#
# Every operation on a wide table is a loop of slice or strided-slice
# operations along the longest run of index bits it leaves free, so its
# Python-level steps are few and the elementwise work runs in C.

DP_TABLE_CAP = 1 << 22  # entries of one table; a few live tables stay well under 2 GB
# The cap bounds each list, not how many are live: a message waits in its
# bucket's inbox until that bucket runs, next to the bucket's table and a
# spread copy of each wide message, so a bucket near the cap that receives
# several wide messages holds that many lists of its own size at once; a
# sub-cube plan only while its message or edge is applied.
# The widest bucket read through index lists, and the widest message a wider
# bucket applies sub-cube by sub-cube (see above).
SMALL_MESSAGE_BITS = 4
# The longest clause a variable's bucket scans as a tuple (see above). Every
# clause of the benchmark's workloads has at most 7 literals.
LONG_CLAUSE = 8


def _pick(k: int, at: int) -> list[int]:
    """For each entry of a table over k bits, the index of the entry of a
    message whose bits stand for the positions in the bitmask `at`."""
    idx, j = [0], 1
    for p in range(k):
        if at >> p & 1:
            idx += [i + j for i in idx]
            j <<= 1
        else:
            idx += idx
    return idx


# Keyed by bucket size, 3 to SMALL_MESSAGE_BITS: _PICK[k][at] is _pick(k, at).
# _ZEROS[k][p][b] lists the entries of a table over k bits whose bit 0 is
# b & 1 and whose bit p is b >> 1.
_PICK = {k: [_pick(k, at) for at in range(1 << k)] for k in range(3, SMALL_MESSAGE_BITS + 1)}
_ZEROS = {
    k: [[[e for e in range(1 << k) if e & 1 == b & 1 and e >> p & 1 == b >> 1] for b in range(4)]
        for p in range(k)] for k in _PICK
}


class TableBudgetExceeded(RuntimeError):
    """A bucket (a decomposition bag) is too wide for the DP's table budget."""

    def __init__(self, bag_size: int):
        self.bag_size = bag_size
        super().__init__(
            f"a bag of {bag_size} vertices needs a DP table of 2^{bag_size} entries, "
            f"above the budget of {DP_TABLE_CAP} entries"
        )


def _spread(t: list[int], p: int, r: int) -> list[int]:
    """Insert r bits at position p, copying every entry to all 2^r values of them."""
    lo, reps = 1 << p, 1 << r
    if lo * lo * reps <= len(t):
        step = lo * reps
        res = [0] * (len(t) * reps)
        for j in range(lo):
            col = t[j::lo]
            for k in range(j, step, lo):
                res[k::step] = col
        return res
    res = []
    for h in range(0, len(t), lo):
        res += t[h : h + lo] * reps
    return res


def _spread_to(m: list[int], at: list[int], n: int) -> list[int]:
    """Bring m, whose bits stand for the sorted positions `at`, to a table
    over all n bits, inserting each run of missing positions, lowest first."""
    lo = 0
    for p in (*at, n):
        if p > lo:
            m = _spread(m, lo, p - lo)
        lo = p + 1
    return m


def _plan(n: int, at: list[int]) -> tuple[list[int], int, int, int]:
    """How `_scale` slices the sub-cube of a table over n bits whose bits at the sorted
    positions `at` are 0: along its longest free run, as (starts, step, span, length)."""
    lo = run_lo = run = 0
    for p in (*at, n):
        if p - lo > run:
            run_lo, run = lo, p - lo
        lo = p + 1
    starts = [0]
    lo = 0
    for p in (*at, n):
        if p > lo and lo != run_lo:
            starts = [s + k for k in range(0, 1 << p, 1 << lo) for s in starts]
        lo = p + 1
    step = 1 << run_lo
    return starts, step, step << run, 1 << run


def _scale(t: list[int], plan: tuple[list[int], int, int, int], off: int, v: int) -> None:
    """Multiply by v, in place, the entries of t whose bits at the positions
    `plan` was made for equal those of off (which has no other bits)."""
    starts, step, span, size = plan
    if v == 0:
        z = [0] * size
        for s in starts:
            t[s + off : s + off + span : step] = z
    else:
        for s in starts:
            s += off
            t[s : s + span : step] = [v * x for x in t[s : s + span : step]]


def _run_dp(f: CnfFormula, elimination: Elimination) -> int:
    """Count the satisfying assignments of F[tau] over the variables the
    elimination covers.

    elimination eliminates inc(F[tau]), the subgraph of inc(f) induced by
    the vertices tau leaves (all of inc(f) for the empty tau). A clause the
    elimination does not cover, one tau satisfied, is skipped, and so is a
    literal whose variable it does not cover, one tau made false: a bucket
    reads only the clauses and variables of its scope. One bucket per
    vertex, in order: multiplies the bucket's messages, zeroes the edges to
    its vertex, folds the vertex out and sends the rest on (see above).
    """
    widest = elimination.width + 1
    if 1 << widest > DP_TABLE_CAP:
        raise TableBudgetExceeded(widest)
    rank = {v: r for r, v in enumerate(elimination.order)}
    by_id = f.clauses_by_id
    long_sets: dict[int, frozenset[int]] = {}  # each long clause's literals, once a variable reads them
    inbox: defaultdict[int, list[tuple[list[int], list[int]]]] = defaultdict(list)
    factors = []
    for v, nbrs in zip(*elimination):
        got = inbox.pop(v, ())
        is_clause = v >= CLAUSE_VERTEX_STRIDE  # is_clause_vertex(v)
        fold = sub if is_clause else add
        if len(nbrs) < 2:  # four scalars: entry (v, w) is a_v for w = 0, b_v for w = 1
            a0 = a1 = b0 = b1 = 1
            for m, _ in got:  # over [v], or over [v, w]
                if len(m) == 2:
                    x0, x1 = y0, y1 = m
                else:
                    x0, x1, y0, y1 = m
                a0 *= x0
                a1 *= x1
                b0 *= y0
                b1 *= y1
            for w in nbrs:  # an edge to w zeroes (1, 1), or (1, 0) if v is its clause, (0, 1) if w is
                if is_clause:
                    if w < CLAUSE_VERTEX_STRIDE:
                        lits = by_id[v - CLAUSE_VERTEX_STRIDE].lits
                        if w in lits:
                            b1 = 0
                        elif -w in lits:
                            a1 = 0
                elif w >= CLAUSE_VERTEX_STRIDE:
                    lits = by_id[w - CLAUSE_VERTEX_STRIDE].lits
                    if len(lits) > LONG_CLAUSE:
                        lits = long_sets.get(w) or long_sets.setdefault(w, frozenset(lits))
                    if v in lits:
                        b1 = 0
                    elif -v in lits:
                        b0 = 0
                inbox[w].append(([fold(a0, a1), fold(b0, b1)], [w]))
            if not nbrs:
                factors.append(fold(a0, a1))
            continue
        s = [v, *sorted(nbrs, key=rank.__getitem__)]
        n = len(s)
        # The edges to v, each as (w, the bit of w and the bit of v in the
        # entries it zeroes).
        if is_clause:  # to the variables of v's literals in its scope
            edges = [(abs(x), x > 0, 1) for x in by_id[v - CLAUSE_VERTEX_STRIDE].lits if abs(x) in nbrs]
        else:  # to the clauses in its scope that hold v or -v
            edges = []
            for w in nbrs:
                if w >= CLAUSE_VERTEX_STRIDE:
                    lits = by_id[w - CLAUSE_VERTEX_STRIDE].lits
                    if len(lits) > LONG_CLAUSE:
                        lits = long_sets.get(w) or long_sets.setdefault(w, frozenset(lits))
                    if v in lits:
                        edges.append((w, 1, 1))
                    elif -v in lits:
                        edges.append((w, 1, 0))
        if n <= SMALL_MESSAGE_BITS:
            picks = _PICK[n]
            t = None
            for m, ws in got:
                if len(ws) < n:
                    at = 0
                    for w in ws:
                        at |= 1 << s.index(w)
                    m = map(m.__getitem__, picks[at]) if at & at + 1 else m * (1 << n >> len(ws))
                t = m if t is None else map(mul, t, m)
            t = [1] * (1 << n) if t is None else t if type(t) is list else list(t)
            for w, bw, bv in edges:
                for e in _ZEROS[n][s.index(w)][bv | bw << 1]:
                    t[e] = 0
        else:
            pos = {w: p for p, w in enumerate(s)}
            t = None
            small = []
            for m, ws in got:
                at = [pos[w] for w in ws]
                if len(at) <= SMALL_MESSAGE_BITS:
                    small.append((m, at))
                    continue
                if len(at) < n:
                    m = _spread_to(m, at, n)
                t = m if t is None else list(map(mul, t, m))
            if t is None:
                t = [1] * (1 << n)
            for m, at in small:
                plan = _plan(n, at)
                offs = [0]  # offs[e]: the bits of entry e of m, at their bucket positions
                for p in at:
                    offs += [o | 1 << p for o in offs]
                for off, x in zip(offs, m):
                    if x != 1:
                        _scale(t, plan, off, x)
            for w, bw, bv in edges:
                p = pos[w]
                _scale(t, _plan(n, [0, p]), bv | bw << p, 0)
        inbox[s[1]].append((list(map(fold, t[::2], t[1::2])), s[1:]))
    return _product(factors)


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied pairwise in rounds: a running
    product of n factors of 2, the free variables, costs time quadratic in n."""
    while len(factors) > 1:
        factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1 :]]
    return factors[0] if factors else 1


def count_td(f: CnfFormula, td: TreeDecomposition) -> int:
    """Exact model count via the DP over the min-fill game on the graph
    with each bag of td, a decomposition of inc(F), made a clique
    (`treewidth._elimination_of`), whose width is td's.

    Raises ValueError if td is not a decomposition of inc(F)
    (`pace.validate_decomposition`), and TableBudgetExceeded, before that
    graph is built, if its widest bag is too wide for the table budget.
    """
    from .pace import validate_decomposition

    report = validate_decomposition(build_incidence(f), td)
    if not report.ok:
        raise ValueError(f"invalid decomposition: {report.violations[0]}")
    if 1 << (td.width + 1) > DP_TABLE_CAP:
        raise TableBudgetExceeded(td.width + 1)
    return _run_dp(f, _elimination_of(td))


# ---------------------------------------------------------------------------
# backdoor-driven counting


class BranchCount(NamedTuple):
    assignment: Assignment
    width: int
    vanished: int  # variables gone from the reduction without being assigned
    count: int


def backdoor_branch_counts(
    f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> list[BranchCount]:
    """Per-assignment counts for a strong backdoor, which this pass verifies.

    is_strong_backdoor's check, on an oracle that counts each branch with the
    DP; the first branch above t raises BackdoorInvalidError, an undecided
    one InconclusiveTreewidth.
    """
    _backdoor._check_parameters(t)
    bset = frozenset(b)
    _check_declared(f, bset)
    oracle = _backdoor._Oracle(f, vertex_cap, t, _run_dp)
    branches = _backdoor._branches(oracle.root, bset, t, oracle)
    tau, _, (kind, bound, _) = branches[-1]
    if kind == EXCEEDS:
        raise BackdoorInvalidError(tau, bound)
    return _counted(f, branches)


def _counted(f: CnfFormula, branches: list[_backdoor._Branch]) -> list[BranchCount]:
    """The BranchCount of each branch the oracle counted at its width bound:
    F's variables that tau neither assigned nor left alive have vanished."""
    return [
        BranchCount(tau, bound, len(f.variables - tau.domain - alive), count)
        for tau, alive, (_, bound, count) in branches
    ]


def _weighted_sum(branches: list[BranchCount]) -> int:
    """Sum 2^vanished * count over the branches: each vanished variable is free."""
    return sum((1 << br.vanished) * br.count for br in branches)


def count_via_backdoor(f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Sum 2^vanished * count(F[tau]) over all assignments tau to the backdoor.

    The check of is_strong_backdoor counts the branches: an invalid b raises
    BackdoorInvalidError at its first failing assignment.
    """
    return _weighted_sum(backdoor_branch_counts(f, b, t, vertex_cap))


class SolveResult(_Record):
    __slots__ = _fields = ("outcome", "count", "mode", "t", "k", "backdoor", "branch_widths", "note")

    def __init__(
        self,
        outcome: str,  # counted / sb_exceeded / inconclusive
        count: int | None,
        mode: str | None,  # td / backdoor
        t: int,
        k: int,
        backdoor: tuple[int, ...] | None = None,
        branch_widths: tuple[int, ...] | None = None,
        note: str | None = None,
    ) -> None:
        self._set(outcome, count, mode, t, k, backdoor, branch_widths, note)


def _note(f: CnfFormula) -> str | None:
    if not all(c.lits for c in f.clauses):
        return "zero-literal clause present; formula unsatisfiable"
    return None


def solve(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = _backdoor.DEFAULT_TW_THRESHOLD,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SolveResult:
    """Count satisfying assignments, or conclude no small strong backdoor exists.

    Small incidence treewidth (at most tw_threshold) is counted directly by
    the decomposition DP. Otherwise, and also when the caps leave that width
    undecided or its elimination is too wide for the DP's table budget,
    solve_by_backdoor searches and counts.
    Raises FormulaError unless t >= 0 and 0 <= k <= EXACT_SEARCH_CAP. The
    oracle counts every AtMost verdict at t at once, so for t >= 22 an
    elimination too wide for the table budget there raises
    TableBudgetExceeded instead of going to the search.
    """
    _backdoor._check_parameters(t, k)
    oracle = _backdoor._Oracle(f, vertex_cap, t, _run_dp)
    kind, _, count = oracle.verdict(oracle.root, max(tw_threshold, t))
    if kind == AT_MOST:
        if count is None:  # decided above t, so not counted
            elimination = oracle.root_verdict.elimination
            if 1 << (elimination.width + 1) <= DP_TABLE_CAP:
                count = _run_dp(f, elimination)
        if count is not None:
            return SolveResult("counted", count, "td", t, k, note=_note(f))
    return _solve_by_backdoor(f, t, k, tw_threshold, oracle)


def solve_by_backdoor(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = _backdoor.DEFAULT_TW_THRESHOLD,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SolveResult:
    """solve without the direct-DP shortcut: search a strong backdoor, count its leaf branches.

    Finding none of size at most 2^k - 1 is the machine-readable 'sb_exceeded'
    outcome, meaning every strong backdoor into width t has size above k. A
    width query left undecided in the search ends 'inconclusive'.
    Raises FormulaError unless t >= 0 and 0 <= k <= EXACT_SEARCH_CAP.
    """
    _backdoor._check_parameters(t, k)
    return _solve_by_backdoor(f, t, k, tw_threshold, _backdoor._Oracle(f, vertex_cap, t, _run_dp))


def _solve_by_backdoor(
    f: CnfFormula, t: int, k: int, tw_threshold: int, oracle: _backdoor._Oracle
) -> SolveResult:
    """solve_by_backdoor on the given oracle, summing the search's counted leaf branches."""
    note = _note(f)
    try:
        leaves = _backdoor._approx(oracle.root, t, k, tw_threshold, oracle)
    except _backdoor.InconclusiveTreewidth:
        return SolveResult("inconclusive", None, None, t, k, note=note)
    if leaves is None:
        return SolveResult("sb_exceeded", None, "backdoor", t, k, note=note)
    branches = _counted(f, leaves)
    return SolveResult(
        "counted",
        _weighted_sum(branches),
        "backdoor",
        t,
        k,
        backdoor=_backdoor._leaf_union(leaves),
        branch_widths=tuple(br.width for br in branches),
        note=note,
    )
