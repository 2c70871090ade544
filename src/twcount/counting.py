"""#SAT engines: brute-force oracle, tree-decomposition DP, backdoor-driven counting.

Counts are Python ints, so they are arbitrary precision by construction.
The decomposition DP keeps one dense table per bag of the incidence graph's
tree decomposition, with clause bits in the "still unsatisfied" form of
Slivovsky & Szeider (SAT 2020), and walks the bags iteratively, so deep
decompositions are fine. A bag wider than the table budget (DP_TABLE_CAP
entries) raises TableBudgetExceeded before any table is allocated.
The DP reads the formula, not a graph: a bag vertex is a clause when its id
says so (`is_clause_vertex`), and the clause's literals, with their polarity,
come from the formula. Free variables of a formula appear as isolated
vertices of its incidence graph; the decomposition DP therefore doubles the
count once per free variable without special handling.

`solve` creates one width oracle (`backdoor._Oracle`) per call and asks it
every width query of the call: the root query, the backdoor search and the
branch pass. It keeps verdicts only, keyed by the reduced formula and t, and
builds inc(F) only when it has to run the ladder, so no reduction is decided
twice and no graph is built for a verdict it already holds. The root query
and the branch pass, whose decompositions go to the DP, reach the ladder
through this module's `treewidth_at_most`; the search reaches it through
`backdoor`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from . import backdoor as _backdoor
from .formula import Assignment, CnfFormula, FormulaError, assignments, reduce
from .graphs import build_incidence, clause_id, is_clause_vertex
from .treewidth import (
    AT_MOST,
    DEFAULT_VERTEX_CAP,
    EXCEEDS,
    TreeDecomposition,
    treewidth_at_most,
    validate_decomposition,
)

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
# form the tables of two subtrees multiply pointwise (they share only the bag
# variables), a variable is forgotten by adding its two halves, and a clause
# by subtracting its "unsatisfied" half from the other. Introducing a vertex
# copies the table into both halves of the new bit; an edge between a
# variable x and a clause c then zeroes the entries in which x takes the
# value its literal in c makes true while c must stay unsatisfied. Zeroing
# twice changes nothing, so an edge seen in several bags needs no bookkeeping.
#
# Each bit operation below is a loop of slice or strided-slice operations
# over whichever index dimensions are shortest, so its Python-level steps are
# O(sqrt(table)) and the elementwise work runs in C.

DP_TABLE_CAP = 1 << 22  # entries of one table; a few live tables stay well under 2 GB


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


def _spread(t: list[int], p: int) -> list[int]:
    """Insert bit p, copying every entry to both of its values."""
    lo = 1 << p
    step = lo << 1
    if lo * lo <= len(t):
        res = [0] * (len(t) << 1)
        for j in range(lo):
            res[j::step] = res[j + lo :: step] = t[j::lo]
        return res
    res = []
    for h in range(0, len(t), lo):
        res += t[h : h + lo] * 2
    return res


def _zero(t: list[int], a: int, va: int, b: int, vb: int) -> None:
    """Zero, in place, the entries with bit a equal to va and bit b to vb (a < b)."""
    # index = high * 2^(b+1) + vb * 2^b + mid * 2^(a+1) + va * 2^a + low
    n_low, n_mid, n_high = 1 << a, 1 << (b - a - 1), len(t) >> (b + 1)
    a_step, b_step = 2 << a, 2 << b
    off = (vb << b) + (va << a)
    if n_low >= n_mid and n_low >= n_high:
        z = [0] * n_low
        for h in range(off, len(t), b_step):
            for m in range(h, h + (1 << b), a_step):
                t[m : m + n_low] = z
    elif n_mid >= n_high:
        z = [0] * n_mid
        for h in range(off, len(t), b_step):
            for l in range(h, h + n_low):
                t[l : l + (1 << b) : a_step] = z
    else:
        z = [0] * n_high
        for m in range(off, off + (1 << b), a_step):
            for l in range(m, m + n_low):
                t[l::b_step] = z


def _to_bag(t: list[int], have: list[int], bag: list[int]) -> list[int]:
    """Bring a table over the sorted vertices `have` to the sorted `bag`."""
    keep = set(bag)
    for p in reversed(range(len(have))):
        if have[p] not in keep:
            t = _fold(t, p, sub if is_clause_vertex(have[p]) else add)
    kept = set(have)
    for p, v in enumerate(bag):
        if v not in kept:
            t = _spread(t, p)
    return t


def _run_dp(f: CnfFormula, td: TreeDecomposition) -> int:
    """Count the satisfying assignments of f over the variables td covers.

    td decomposes inc(f). Walks its bags children first. Each child table is
    brought to the bag by forgetting the vertices the bag lacks and
    introducing those the child lacks (a leaf starts from [1]); the children
    are multiplied, and the edges of the bag that no child bag holds are
    zeroed. Forgetting the root bag leaves the count.
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
    stack = [root]
    seen = {root}
    while stack:
        i = stack.pop()
        order.append(i)
        children[i] = kids = [j for j in nbrs[i] if j not in seen]
        seen.update(kids)
        stack.extend(kids)
    tables: dict[int, list[int]] = {}
    for i in reversed(order):
        bag = sorted(td.bags[i])
        kid_bags = [td.bags[j] for j in children[i]]
        t = None
        for j in children[i]:
            ct = _to_bag(tables.pop(j), sorted(td.bags[j]), bag)
            t = ct if t is None else list(map(mul, t, ct))
        if t is None:
            t = [1] * (1 << len(bag))
        pos = {v: p for p, v in enumerate(bag)}
        for c in bag:
            if not is_clause_vertex(c):
                continue
            for lit in f.clauses_by_id[clause_id(c)].literals:
                x = lit.var
                if x in pos and not any(x in kb and c in kb for kb in kid_bags):
                    px, pc, vx = pos[x], pos[c], int(lit.positive)
                    if px < pc:
                        _zero(t, px, vx, pc, 1)
                    else:
                        _zero(t, pc, 1, px, vx)
        tables[i] = t
    return _to_bag(tables.pop(root), sorted(td.bags[root]), [])[0]


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

    One width query per branch gives the decomposition the DP runs on; the first
    branch above t raises BackdoorInvalidError, an undecided one InconclusiveTreewidth.
    """
    return _branch_counts(f, frozenset(b), t, _backdoor._Oracle(vertex_cap))


def _branch_counts(
    f: CnfFormula, bset: frozenset[int], t: int, oracle: _backdoor._Oracle
) -> list[BranchCount]:
    """backdoor_branch_counts, asking the oracle for every verdict."""
    out = []
    for tau in assignments(bset, cap=_backdoor.STRONG_CHECK_CAP):
        fr = reduce(f, tau)
        verdict = oracle.verdict(fr, t, treewidth_at_most)
        if verdict.kind == EXCEEDS:
            raise BackdoorInvalidError(tau, verdict.bound)
        if verdict.kind != AT_MOST:
            raise _backdoor.InconclusiveTreewidth(f"treewidth undecided for reduction under {tau}")
        vanished = len(f.variables - bset - fr.variables)
        out.append(
            BranchCount(tau, verdict.decomposition.width, vanished, _run_dp(fr, verdict.decomposition))
        )
    return out


def count_via_backdoor(f: CnfFormula, b, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Sum 2^vanished * count(F[tau]) over all assignments tau to the backdoor.

    The branch pass is the verifier: an invalid b raises BackdoorInvalidError.
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
    oracle = _backdoor._Oracle(vertex_cap)
    verdict = oracle.verdict(f, max(tw_threshold, t), treewidth_at_most)
    if verdict.kind == AT_MOST:
        return SolveResult("counted", _run_dp(f, verdict.decomposition), "td", t, k, note=_note(f))
    if verdict.kind != EXCEEDS:
        return SolveResult("inconclusive", None, None, t, k, note=_note(f))
    return _solve_by_backdoor(f, t, k, tw_threshold, oracle)


def solve_by_backdoor(
    f: CnfFormula, t: int, k: int, tw_threshold: int = 8, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> SolveResult:
    """solve without the direct-DP shortcut: search a strong backdoor, count its branches.

    Finding none of size at most 2^k - 1 is the machine-readable 'sb_exceeded'
    outcome, meaning every strong backdoor into width t has size above k. A
    width query left undecided, in the search or the branch pass, ends 'inconclusive'.
    Raises FormulaError unless t >= 0 and 0 <= k <= EXACT_SEARCH_CAP.
    """
    _check_parameters(t, k)
    return _solve_by_backdoor(f, t, k, tw_threshold, _backdoor._Oracle(vertex_cap))


def _solve_by_backdoor(
    f: CnfFormula, t: int, k: int, tw_threshold: int, oracle: _backdoor._Oracle
) -> SolveResult:
    """solve_by_backdoor, with the search and the branch pass sharing the oracle."""
    note = _note(f)
    try:
        report = _backdoor._approx(f, t, k, tw_threshold, oracle)
        if report is None:
            return SolveResult("sb_exceeded", None, "backdoor", t, k, note=note)
        branches = _branch_counts(f, frozenset(report.variables), t, oracle)
    except _backdoor.InconclusiveTreewidth:
        return SolveResult("inconclusive", None, None, t, k, note=note)
    return SolveResult(
        "counted",
        sum((1 << br.vanished) * br.count for br in branches),
        "backdoor",
        t,
        k,
        backdoor=report.variables,
        branch_widths=tuple(br.width for br in branches),
        note=note,
    )
