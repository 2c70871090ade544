"""#SAT engines: brute-force oracle, tree-decomposition DP, backdoor-driven counting.

Counts are Python ints, so they are arbitrary precision by construction.
The decomposition DP keeps one dense table per bag of the incidence graph's
tree decomposition, with clause bits in the "still unsatisfied" form of
Slivovsky & Szeider (SAT 2020), and walks the bags iteratively, so deep
decompositions are fine. Each child's table is folded to a message over the
vertices it shares with its bag and applied to the bag's table in place: a
message over a few vertices, such as a clause leaf's "c is satisfied",
scales or zeroes the sub-cubes its entries select, and a wider one is
spread to the bag and multiplied in. A bag wider than the table budget
(DP_TABLE_CAP entries) raises TableBudgetExceeded before any table is
allocated.
The DP reads the formula, not a graph: a bag vertex is a clause when its id
says so (`is_clause_vertex`), and the clause's literals, with their polarity,
come from the formula. Free variables of a formula appear as isolated
vertices of its incidence graph; the decomposition DP therefore doubles the
count once per free variable without special handling.

`solve` creates one width oracle (`backdoor._Oracle`) per call, hands it
t and `_run_dp`, and asks it every width query of the call: the root query
and the backdoor search. It keeps (kind, bound, count) keyed by the reduced
formula and t, and builds inc(F) only when it has to run the ladder, so no
reduction is decided twice and no graph is built for a verdict it already
holds. It runs the DP on a miss at t that comes back AtMost, on the
decomposition the ladder just returned, and counts no verdict at any other
width. `solve` counts an AtMost root at the threshold on the decomposition
of that first miss. The search (`backdoor._approx`) returns its leaf
branches with the counts its own checks made, and `solve` sums them; it
reduces nothing and asks the oracle nothing of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from . import backdoor as _backdoor
from .formula import Assignment, CnfFormula, FormulaError
from .graphs import build_incidence, clause_id, is_clause_vertex
from .treewidth import AT_MOST, DEFAULT_VERTEX_CAP, EXCEEDS, TreeDecomposition, validate_decomposition

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
        for lit in c.literals:
            if lit.positive:
                pos |= 1 << idx[lit.var]
            else:
                neg |= 1 << idx[lit.var]
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
# decomposition DP
#
# A table holds one exact int per assignment to the bits of a bag, bit i
# standing for the i-th vertex of the bag in id order. A variable bit is the
# variable's value. A clause bit of 1 means "this clause must still be
# unsatisfied": entry (alpha, U) counts the assignments to the variables
# forgotten below the bag that extend alpha, satisfy every clause forgotten
# below, and satisfy no clause of U by any variable of the subtree. In this
# form a variable is forgotten by adding its two halves, a clause by
# subtracting its "unsatisfied" half from the other, and the tables of two
# subtrees multiply entry by entry (they share only the bag's vertices).
#
# Bags are sorted and indexed once. A child's table is folded down to the
# vertices it shares with its bag; this message depends on the shared bits
# only, and applying it multiplies every bag entry, in place, by the message
# entry that its shared bits select:
#
# - A small message, over at most SMALL_MESSAGE_BITS vertices into a wider
#   bag, is applied entry by entry: an entry of 1 is skipped, any other
#   scales (and 0 zeroes) the sub-cube of bag entries whose shared bits
#   match it. Every clause leaf {c} + vars(c) of a 3-CNF gives one: once c
#   is forgotten it says only "c is satisfied", a single zero entry. The
#   bound is 4 because such a leaf shares at most 4 vertices with its
#   parent, while a message over more vertices has more entries than
#   slicing them one by one pays for. A bag of at most 4 vertices has at
#   most 16 entries, where one multiplication pass beats any slicing.
# - Any other message is spread to all the bag's bits, one pass per run of
#   missing positions, and multiplied in; the first becomes the bag's table.
#
# A bag that gets only small messages starts from all ones. Then every edge
# between a variable x and a clause c is zeroed once, in the highest bag
# holding both (the bags holding both form a subtree): the sub-cube in which
# x takes the value its literal in c makes true while c must stay
# unsatisfied. Each factor of the count is multiplied in exactly once, so
# where it lands in the tree does not matter.
#
# Every operation is a loop of slice or strided-slice operations along the
# longest run of index bits it leaves free, so its Python-level steps are
# few and the elementwise work runs in C.

DP_TABLE_CAP = 1 << 22  # entries of one table; a few live tables stay well under 2 GB
SMALL_MESSAGE_BITS = 4  # widest message applied sub-cube by sub-cube (see above)


class TableBudgetExceeded(RuntimeError):
    """A decomposition bag is too wide for the DP's table budget."""

    def __init__(self, bag_size: int):
        self.bag_size = bag_size
        super().__init__(
            f"a bag of {bag_size} vertices needs a DP table of 2^{bag_size} entries, "
            f"above the budget of {DP_TABLE_CAP} entries"
        )


def _fold(t: list[int], p: int, op) -> list[int]:
    """Remove bit p, combining each pair of entries as op(bit 0, bit 1)."""
    lo = 1 << p
    step = lo << 1
    if lo * lo <= len(t):
        res = [0] * (len(t) >> 1)
        for j in range(lo):
            res[j::lo] = map(op, t[j::step], t[j + lo :: step])
        return res
    res = []
    for h in range(0, len(t), step):
        res += map(op, t[h : h + lo], t[h + lo : h + step])
    return res


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


def _scale(t: list[int], n: int, at: list[int], off: int, v: int) -> None:
    """Multiply by v, in place, the entries of t (over n bits) whose bits at
    the sorted positions `at` equal those of off (which has no other bits).

    They form a sub-cube, cut into slices along its longest run of free bits.
    """
    lo = run_lo = run = 0
    for p in (*at, n):
        if p - lo > run:
            run_lo, run = lo, p - lo
        lo = p + 1
    starts = [off]
    lo = 0
    for p in (*at, n):
        if p > lo and lo != run_lo:
            starts = [s + k for k in range(0, 1 << p, 1 << lo) for s in starts]
        lo = p + 1
    step = 1 << run_lo
    span = step << run
    if v == 0:
        z = [0] * (1 << run)
        for s in starts:
            t[s : s + span : step] = z
    else:
        for s in starts:
            t[s : s + span : step] = [v * x for x in t[s : s + span : step]]


def _message(t: list[int], bag: list[int], keep: dict[int, int]) -> tuple[list[int], list[int]]:
    """Fold a table over the sorted `bag` down to the vertices `keep` indexes;
    returns the message and the positions in `keep` that its bits stand for."""
    at = []
    for p in reversed(range(len(bag))):
        v = bag[p]
        if v in keep:
            at.append(keep[v])
        else:
            t = _fold(t, p, sub if is_clause_vertex(v) else add)
    at.reverse()
    return t, at


def _run_dp(f: CnfFormula, td: TreeDecomposition) -> int:
    """Count the satisfying assignments of f over the variables td covers.

    td decomposes inc(f). Walks its bags children first. Each child's table
    is folded to a message over the vertices it shares with the bag and
    applied to the bag's table in place, and each edge is zeroed in the
    highest bag holding both its ends. Forgetting the root bag leaves the count.
    """
    if not td.bags:
        return 1
    widest = max(len(bag) for bag in td.bags.values())
    if 1 << widest > DP_TABLE_CAP:
        raise TableBudgetExceeded(widest)
    nbrs: dict[int, list[int]] = {i: [] for i in td.bags}
    for i, j in td.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    root = min(td.bags)
    order = []
    children: dict[int, list[int]] = {}
    parent: dict[int, int | None] = {root: None}
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        children[i] = kids = [j for j in nbrs[i] if j not in parent]
        parent.update(dict.fromkeys(kids, i))
        stack.extend(kids)
    bags = {i: sorted(bag) for i, bag in td.bags.items()}
    index = {i: {v: p for p, v in enumerate(bag)} for i, bag in bags.items()}
    tables: dict[int, list[int]] = {}
    for i in reversed(order):
        bag, pos = bags[i], index[i]
        up = index.get(parent[i], {})  # the root has no parent bag
        n = len(bag)
        t = None
        small = []
        for j in children[i]:
            m, at = _message(tables.pop(j), bags[j], pos)
            if len(at) <= SMALL_MESSAGE_BITS < n:
                small.append((m, at))
                continue
            if len(at) < n:
                m = _spread_to(m, at, n)
            t = m if t is None else list(map(mul, t, m))
        if t is None:
            t = [1] * (1 << n)
        for m, at in small:
            offs = [0]  # offs[e]: the bits of entry e of m, at their bag positions
            for p in at:
                offs += [o | 1 << p for o in offs]
            for off, v in zip(offs, m):
                if v != 1:
                    _scale(t, n, at, off, v)
        for c in bag:
            if not is_clause_vertex(c):
                continue
            c_up = c in up
            for lit in f.clauses_by_id[clause_id(c)].literals:
                x = lit.var
                if x in pos and not (c_up and x in up):
                    px, pc = pos[x], pos[c]
                    edge = [px, pc] if px < pc else [pc, px]
                    _scale(t, n, edge, lit.positive << px | 1 << pc, 0)
        tables[i] = t
    count, _ = _message(tables.pop(root), bags[root], {})
    return count[0]


def count_td(f: CnfFormula, td: TreeDecomposition) -> int:
    """Exact model count via dynamic programming over a decomposition of inc(F)."""
    g = build_incidence(f)
    report = validate_decomposition(g, td)
    if not report.ok:
        raise ValueError(f"invalid decomposition: {report.violations[0]}")
    vertices = set(g.vertices())
    for i, bag in td.bags.items():
        if not bag <= vertices:
            raise ValueError(f"bag {i} contains vertices outside inc(F)")
    return _run_dp(f, td)


# ---------------------------------------------------------------------------
# backdoor-driven counting


@dataclass(frozen=True)
class BranchCount:
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
    oracle = _backdoor._Oracle(vertex_cap, t, _run_dp)
    branches = _backdoor._branches(f, frozenset(b), t, oracle)
    tau, _, (kind, bound, _) = branches[-1]
    if kind == EXCEEDS:
        raise BackdoorInvalidError(tau, bound)
    return _counted(f, branches)


def _counted(f: CnfFormula, branches: list[_backdoor._Branch]) -> list[BranchCount]:
    """The BranchCount of each branch the oracle counted at its width bound."""
    return [
        BranchCount(tau, bound, len(f.variables - tau.domain - fr.variables), count)
        for tau, fr, (_, bound, count) in branches
    ]


def count_via_backdoor(f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Sum 2^vanished * count(F[tau]) over all assignments tau to the backdoor.

    The check of is_strong_backdoor counts the branches: an invalid b raises
    BackdoorInvalidError at its first failing assignment.
    """
    return sum((1 << br.vanished) * br.count for br in backdoor_branch_counts(f, b, t, vertex_cap))


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # counted / sb_exceeded / inconclusive
    count: int | None
    mode: str | None  # td / backdoor
    t: int
    k: int
    backdoor: tuple[int, ...] | None = None
    branch_widths: tuple[int, ...] | None = None
    note: str | None = None


def _note(f: CnfFormula) -> str | None:
    if any(len(c) == 0 for c in f.clauses):
        return "zero-literal clause present; formula unsatisfiable"
    return None


def _check_parameters(t: int, k: int) -> None:
    if t < 0:
        raise FormulaError(f"t must be at least 0, got {t}")
    if not 0 <= k <= _backdoor.EXACT_SEARCH_CAP:
        raise FormulaError(f"k must be between 0 and {_backdoor.EXACT_SEARCH_CAP}, got {k}")


def solve(
    f: CnfFormula,
    t: int,
    k: int,
    tw_threshold: int = 8,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SolveResult:
    """Count satisfying assignments, or conclude no small strong backdoor exists.

    Small incidence treewidth (at most tw_threshold) is counted directly by
    the decomposition DP. Otherwise solve_by_backdoor searches and counts.
    Raises FormulaError unless t >= 0 and 0 <= k <= EXACT_SEARCH_CAP.
    """
    _check_parameters(t, k)
    oracle = _backdoor._Oracle(vertex_cap, t, _run_dp)
    kind, _, count = oracle.verdict(f, max(tw_threshold, t))
    if kind == AT_MOST:
        if count is None:  # decided above t, so not counted; the root is the first miss
            count = _run_dp(f, oracle.last[2].decomposition)
        return SolveResult("counted", count, "td", t, k, note=_note(f))
    if kind != EXCEEDS:
        return SolveResult("inconclusive", None, None, t, k, note=_note(f))
    return _solve_by_backdoor(f, t, k, tw_threshold, oracle)


def solve_by_backdoor(
    f: CnfFormula, t: int, k: int, tw_threshold: int = 8, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> SolveResult:
    """solve without the direct-DP shortcut: search a strong backdoor, count its leaf branches.

    Finding none of size at most 2^k - 1 is the machine-readable 'sb_exceeded'
    outcome, meaning every strong backdoor into width t has size above k. A
    width query left undecided in the search ends 'inconclusive'.
    Raises FormulaError unless t >= 0 and 0 <= k <= EXACT_SEARCH_CAP.
    """
    _check_parameters(t, k)
    return _solve_by_backdoor(f, t, k, tw_threshold, _backdoor._Oracle(vertex_cap, t, _run_dp))


def _solve_by_backdoor(
    f: CnfFormula, t: int, k: int, tw_threshold: int, oracle: _backdoor._Oracle
) -> SolveResult:
    """solve_by_backdoor on the given oracle, summing the search's counted leaf branches."""
    note = _note(f)
    try:
        leaves = _backdoor._approx(f, t, k, tw_threshold, oracle)
    except _backdoor.InconclusiveTreewidth:
        return SolveResult("inconclusive", None, None, t, k, note=note)
    if leaves is None:
        return SolveResult("sb_exceeded", None, "backdoor", t, k, note=note)
    branches = _counted(f, leaves)
    return SolveResult(
        "counted",
        sum((1 << br.vanished) * br.count for br in branches),
        "backdoor",
        t,
        k,
        backdoor=_backdoor._leaf_union(leaves),
        branch_widths=tuple(br.width for br in branches),
        note=note,
    )
