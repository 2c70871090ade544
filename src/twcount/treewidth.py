"""Treewidth: bounds, the decision ladder, exact solving, witnesses.

`treewidth_at_most(g, t)` climbs a ladder of rungs, cheapest first, and
stops at the first that decides (n vertices, m edges, d the degree at
elimination). An AtMost verdict carries an elimination: the vertices in the
order they were eliminated, each with its neighbours at that moment. Every
rung that decides AtMost hands over the elimination its own game built, and
that is what the counting DP reads. The tree decomposition an elimination
describes (`Elimination.decomposition`) is built only when asked for: for
PACE output or for validation. Both live in `pace`, with
`TreeDecomposition`, and stay importable from here (`__getattr__`).
`counting.count_td`, whose input is a decomposition, plays the min-fill
game on the graph with each bag made a clique: a chordal graph, which the
game eliminates with no fill, at the decomposition's width
(`_elimination_of`).

1. for t <= 2, first the edge bound: a graph of width at most t on n > t
   vertices is a subgraph of a t-tree, so it has at most t*n - t(t+1)/2
   edges (Bodlaender, 1998), and one with more is Exceeds with bound t + 1,
   in O(1) and without reading its adjacency. Otherwise the reduction that
   eliminates vertices of degree at most t, degree at most 1 first: AtMost
   with its own elimination if it empties the graph, otherwise Exceeds with
   bound t + 1; two worklists, O(n+m). This is exact: eliminating a vertex
   of degree at most 2 leaves a minor of the graph, so the reduction
   empties every graph of width at most t, and a graph it cannot empty has
   a minor of minimum degree above t (the reduction rules for partial
   2-trees; Arnborg & Proskurowski, 1986; Wald & Colbourn, 1983). Its width
   is then the treewidth. The rungs below, and the vertex cap, only matter
   for t >= 3;
2. degeneracy above t: Exceeds; a smallest-degree-first peel, O(n+m);
3. min-fill width at most t: AtMost, with the min-fill game's elimination;
   a lazy heap whose scores follow each elimination by exact deltas, at one
   set intersection per neighbour and one per fill edge, plus a heap push
   per vertex within distance 2;
4. contraction bound (minor-min-width) above t: Exceeds; a lazy heap,
   O(m log n) heap work plus the merged neighbourhoods;
5. if no connected component exceeds the vertex cap, exact search per
   component, which stops once width above t is proven; the components are
   read off rung 3's game, whose restriction to a component bounds its
   search; exponential in the worst case;
6. otherwise Unknown.

The exact solver runs a depth-first search over elimination orderings per
target width, with memoized dead states. At every node one safe rule comes
first: an almost-simplicial vertex of degree at most the width (which every
simplicial vertex and every vertex of degree at most 2 is) is eliminated
without branching (Bodlaender, Koster & van den Eijkhof, 2005; at every
node, as in QuickBB, Gogate & Dechter, 2004). The journal it undoes its
moves by is the elimination it hands over; a component it cannot beat keeps
rung 3's game. This is practical to roughly fifty vertices, larger for
structured graphs.

An Exceeds verdict carries only a bound. `witness(g, t)` finds, for a graph
of width above t, a small vertex set whose induced subgraph still has width
above t. It seeds from a cycle for t = 1, the tree path that the first
back edge of a depth-first search closes; otherwise from the (t+1)-core,
the vertices whose core number the degeneracy peel puts above t, which is
nonempty exactly when degeneracy rules t out, or from all of g.
It then shrinks the seed by greedy vertex deletion, each trial decided by
the rung that decides t. A t = 1 seed that induces just its cycle is the
witness as it stands: deleting any vertex of a chordless cycle leaves a
path, so every trial would keep it. For t <= 2 a stuck reduction names a
certificate, a vertex subset of width above t, and a vertex outside the
last one is deleted without a trial. The width oracle hands each witness
a subgraph induced for it; the t = 1 witness reads it only through
`neighbors`, so it builds no adjacency.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, AbstractSet, Mapping, NamedTuple

from .graphs import Graph, _moved_names

if TYPE_CHECKING:
    from .pace import TreeDecomposition

DEFAULT_VERTEX_CAP = 48

AT_MOST = "at_most"
EXCEEDS = "exceeds"
UNKNOWN = "unknown"


class VertexCapExceeded(RuntimeError):
    """Exact treewidth was asked for a graph with a connected component
    above the configured cap."""


class Elimination(NamedTuple):
    """The elimination game along `order`: nbrs[i] holds order[i]'s
    neighbours when it was eliminated, fill edges included. The min-fill
    game and the t <= 2 reduction hand over the sets they built; sets read
    off a journal of `_eliminate` moves (`_journal_elimination`) are copies.
    For a decomposition (`_elimination_of`), it is the min-fill game on the
    graph with each bag made a clique."""

    order: list[int]
    nbrs: list[AbstractSet[int]]

    @property
    def width(self) -> int:
        return max(map(len, self.nbrs), default=-1)

    def decomposition(self) -> TreeDecomposition:
        """The tree decomposition this elimination describes (`pace._decomposition`)."""
        from .pace import _decomposition

        return _decomposition(self.order, self.nbrs)


class TwVerdict(NamedTuple):
    """Outcome of a treewidth-at-most query.

    kind 'at_most' carries a witnessing elimination and its width as bound.
    'exceeds' carries, as bound, a proven lower bound above the target, not
    the width: each rung reports what it proved, so the reduction for
    t <= 2 says t + 1 where the contraction bound or the exact search may
    say more; 'unknown' means the caps prevented a decision.
    """

    kind: str
    bound: int
    elimination: Elimination | None = None


# ---------------------------------------------------------------------------
# bounds


def _core_numbers(adj: Mapping[int, AbstractSet[int]]) -> dict[int, int]:
    """Each vertex's core number, the largest k whose k-core holds it, from
    one smallest-degree-first peel (Batagelj & Zaversnik, 2003); O(n+m). The
    degeneracy is the largest.

    Level k starts at the least degree left and peels every vertex of degree
    at most k, those whose degree the removals bring down to k included;
    each gets core number k. The scan that starts a level reads each vertex
    left, and a vertex is left at most once per level up to its core number,
    which is at most its degree.
    """
    deg = {v: len(s) for v, s in adj.items()}  # of the vertices not yet peeled
    core: dict[int, int] = {}
    while deg:
        k = min(deg.values())
        stack = [v for v, d in deg.items() if d == k]
        while stack:
            v = stack.pop()
            core[v] = k
            del deg[v]
            for u in adj[v]:
                du = deg.get(u)
                if du is not None:
                    deg[u] = du - 1
                    if du == k + 1:
                        stack.append(u)
    return core


def degeneracy(g: Graph) -> int:
    """Max over peeling steps of the min degree; a valid treewidth lower bound."""
    return max(_core_numbers(g.adjacency_view()).values(), default=-1)


def lower_bound(g: Graph) -> int:
    """The larger of degeneracy and the contraction bound; -1 on the empty graph."""
    adj = g.adjacency_view()
    return max(max(_core_numbers(adj).values()), _mmw_adj(adj)) if adj else -1


def minor_min_width(g: Graph) -> int:
    return _mmw_adj(g.adjacency_view())


def _mmw_adj(adj: Mapping[int, AbstractSet[int]]) -> int:
    """Contraction-based lower bound: contract a min-degree vertex into its
    least-degree neighbor, tracking the largest min degree seen.

    Ties go to the smaller vertex id. A lazy heap of (degree, vertex) picks
    the next vertex: a contraction changes only the degrees of the contracted
    vertex's neighbours, which get fresh entries, and stale entries are
    skipped when popped.
    """
    work = {v: set(s) for v, s in adj.items()}
    heap = [(len(s), v) for v, s in work.items()]
    heapq.heapify(heap)
    best = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v not in work or len(work[v]) != d:
            continue
        best = max(best, d)
        nbrs = work.pop(v)
        if d == 0:
            continue
        u = min(nbrs, key=lambda x: (len(work[x]), x))
        for w in nbrs:
            work[w].discard(v)
        merged = (work[u] | nbrs) - {u}
        work[u] = merged
        for w in merged:
            work[w].add(u)
        for w in nbrs:
            heapq.heappush(heap, (len(work[w]), w))
    return best


# ---------------------------------------------------------------------------
# elimination orderings


def _eliminate(adj: dict[int, set[int]], v: int, journal: list) -> None:
    """Remove v and clique its neighborhood; journals v, its neighbours
    (sorted) and the fill edges added, for `_undo`."""
    nbrs = sorted(adj.pop(v))
    added = []
    for i, a in enumerate(nbrs):
        adj[a].discard(v)
        for b in nbrs[i + 1:]:
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                added.append((a, b))
    journal.append((v, nbrs, added))


def _journal_elimination(journal: list) -> Elimination:
    """The elimination a journal of `_eliminate` moves records."""
    return Elimination([v for v, _, _ in journal], [set(nbrs) for _, nbrs, _ in journal])


def _undo(adj: dict[int, set[int]], journal: list, mark: int) -> None:
    while len(journal) > mark:
        v, nbrs, added = journal.pop()
        for a, b in added:
            adj[a].discard(b)
            adj[b].discard(a)
        adj[v] = set(nbrs)
        for a in nbrs:
            adj[a].add(v)


def _fill_in(adj: dict[int, set[int]], v: int) -> int:
    """Number of non-adjacent pairs among v's neighbours."""
    nbrs = adj[v]
    d = len(nbrs)
    if d < 2:
        return 0
    return (d * (d - 1) - sum(len(nbrs & adj[a]) for a in nbrs)) // 2


def _is_simplicial(adj: dict[int, set[int]], v: int) -> bool:
    """Whether v's neighbours are pairwise adjacent; stops at the first
    neighbour that misses one of the others."""
    nbrs = adj[v]
    others = len(nbrs) - 1
    return all(len(nbrs & adj[a]) == others for a in nbrs)


def _almost_simplicial(adj: dict[int, set[int]], v: int) -> bool:
    """Whether all of v's neighbours but at most one are pairwise adjacent.
    If a misses b, the one left out is a or b."""
    nbrs = adj[v]
    others = len(nbrs) - 1
    for a in nbrs:
        if len(nbrs & adj[a]) < others:
            b = next(iter(nbrs - adj[a] - {a}))
            return any(
                all(len(rest & adj[c]) == others - 1 for c in rest)
                for rest in (nbrs - {a}, nbrs - {b})
            )
    return True


def _greedy_order(adj: Mapping[int, AbstractSet[int]]) -> Elimination:
    """The min-fill game: eliminate the vertex of least (fill-in, vertex id) first.

    Returns the game's elimination; adj is copied, not changed. A lazy heap
    of (score, vertex) picks the next vertex. Eliminating v with neighbours
    N changes only the scores within distance 2 of v, and each by an exact
    delta, so no vertex is re-scored from scratch:
    - dropping v, each x in N loses the pairs of v with its neighbours
      outside N: one intersection per neighbour;
    - a fill edge a-b, added one at a time, gives a the pairs of b with a's
      neighbours that miss b, and b likewise, and takes one pair from each
      common neighbour of a and b: one intersection per fill edge.
    Changed vertices get fresh entries; stale entries are skipped when
    popped. Scores are the fill-in (`_fill_in`) at every step.
    """
    work = {v: set(s) for v, s in adj.items()}
    score = {v: _fill_in(work, v) for v in work}
    heap = [(s, v) for v, s in score.items()]
    heapq.heapify(heap)
    order: list[int] = []
    bags: list[set[int]] = []
    while heap:
        s, v = heapq.heappop(heap)
        if score.get(v) != s:
            continue
        del score[v]
        nbrs = work.pop(v)
        order.append(v)
        bags.append(nbrs)
        for a in nbrs:
            wa = work[a]
            wa.discard(v)
            score[a] -= len(wa) - len(wa & nbrs)
        touched = set(nbrs)
        nlist = list(nbrs)
        for i, a in enumerate(nlist):
            wa = work[a]
            for b in nlist[i + 1:]:
                if b not in wa:
                    wb = work[b]
                    common = wa & wb
                    score[a] += len(wa) - len(common)
                    score[b] += len(wb) - len(common)
                    wa.add(b)
                    wb.add(a)
                    for x in common:
                        score[x] -= 1
                    touched |= common
        for x in touched:
            heapq.heappush(heap, (score[x], x))
    return Elimination(order, bags)


def _reduce_low_width(
    adj: dict[int, set[int]], t: int
) -> tuple[list[int], list[set[int]], dict[tuple[int, int], int]]:
    """The reduction that decides tw <= t for t <= 2 (the partial 2-tree
    rules; Arnborg & Proskurowski, 1986; Wald & Colbourn, 1983); O(n+m).

    Eliminates vertices of degree at most t, one of degree at most 1 before
    one of degree 2, from two worklists. Consumes adj: what is left in it is
    the stuck core, empty exactly when tw <= t. Returns the order, each
    vertex's neighbours at its elimination, and `via`: for each edge a-b
    that the degree-2 elimination of v added, via[(a, b)] = v, with a < b.

    This is the elimination game on the graph, so when adj empties,
    _decomposition(order, bags) is a decomposition, and its width is the
    treewidth: a forest only ever has vertices of degree at most 1 to take.
    Every remaining edge is realised in the input graph by a path whose
    interior vertices were eliminated, and these paths are internally
    disjoint, so a stuck core, of minimum degree above t, comes with a
    subdivision of it in the input graph (see `_certificate`).
    """
    low = min(t, 1)
    ones = [v for v, s in adj.items() if len(s) <= low]
    twos = [v for v, s in adj.items() if len(s) == 2] if t >= 2 else []
    order: list[int] = []
    bags: list[set[int]] = []
    via: dict[tuple[int, int], int] = {}
    while ones or twos:
        # Degrees never grow, so a listed vertex still in adj is still
        # eligible; and a vertex in twos has degree 2 once ones is empty.
        v = (ones or twos).pop()
        if v not in adj:
            continue
        nbrs = adj.pop(v)
        order.append(v)
        bags.append(nbrs)
        for a in nbrs:
            adj[a].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                via[(a, b) if a < b else (b, a)] = v
                continue
        for a in nbrs:
            d = len(adj[a])
            if d <= low:
                ones.append(a)
            elif d == 2 and t >= 2:
                twos.append(a)
    return order, bags, via


def _certificate(core: dict[int, set[int]], via: dict[tuple[int, int], int]) -> frozenset[int]:
    """The stuck core of `_reduce_low_width` plus the interior vertices of
    the paths realising its edges: a vertex set whose induced subgraph holds
    a subdivision of the core, so of width above t when the core's degrees
    all exceed t."""
    cert = set(core)
    stack = [(a, b) for a, s in core.items() for b in s if a < b] if via else []
    while stack:
        a, b = stack.pop()
        v = via.get((a, b))
        if v is not None:
            cert.add(v)
            stack.append((a, v) if a < v else (v, a))
            stack.append((v, b) if v < b else (b, v))
    return frozenset(cert)


def _elimination_of(td: TreeDecomposition) -> Elimination:
    """The elimination `counting.count_td` runs on: the min-fill game on the
    graph in which every bag of td is a clique.

    td must be valid. Two vertices are adjacent in that graph when their
    subtrees of td (the bags holding each) meet, so it is chordal (Gavril,
    1974), and by the Helly property of subtrees each of its cliques lies in
    a bag: its largest has td.width + 1 vertices. A chordal graph has a
    simplicial vertex, of fill-in 0, and removing one leaves a chordal
    graph, so the game adds no fill and plays a perfect elimination ordering
    (Rose, Tarjan & Lueker, 1976): each vertex's neighbours at elimination
    are a clique, and the width is td.width.
    """
    adj: dict[int, set[int]] = {}
    for bag in td.bags.values():
        for v in bag:
            adj.setdefault(v, set()).update(bag)
    for v, s in adj.items():
        s.discard(v)
    return _greedy_order(adj)


def upper_bound_heuristic(g: Graph) -> tuple[int, Elimination]:
    """The min-fill elimination and its width."""
    elimination = _greedy_order(g.adjacency_view())
    return elimination.width, elimination


# ---------------------------------------------------------------------------
# exact search


def _decide(adj: dict[int, set[int]], w: int) -> Elimination | None:
    """Is there an elimination ordering of width <= w? If so, empties adj
    and returns the search's journal as an elimination; if not, restores adj.

    A depth-first search with one forced move at every node: the first
    vertex, in vertex order, of degree at most w that is almost simplicial
    is eliminated without branching. That leaves the graph with the edge
    to its special neighbour contracted, a minor, so the width stays at most
    w exactly when it was (Bodlaender, Koster & van den Eijkhof, 2005). A
    simplicial vertex of degree above w lies in a clique too large and ends
    the branch. The rest is branched on, least (fill-in, degree, vertex)
    first; vertex sets that failed, or whose minimum degree exceeds w, are
    remembered: what an elimination leaves depends only on the set eliminated.
    The last w + 1 vertices go in vertex order.
    """
    journal: list = []
    dead: set[frozenset[int]] = set()

    def forced_moves() -> bool:
        """Make the forced moves; False if the branch ends."""
        while True:
            for v in sorted(adj):
                if len(adj[v]) <= w:
                    if _almost_simplicial(adj, v):
                        _eliminate(adj, v, journal)
                        break
                elif _is_simplicial(adj, v):
                    return False
            else:
                return True

    def dfs() -> bool:
        mark = len(journal)
        if forced_moves():
            if len(adj) <= w + 1:
                for v in sorted(adj):
                    _eliminate(adj, v, journal)
                return True
            key = frozenset(adj)
            if key not in dead and min(len(s) for s in adj.values()) <= w:
                cands = sorted(
                    (v for v in adj if len(adj[v]) <= w),
                    key=lambda v: (_fill_in(adj, v), len(adj[v]), v),
                )
                for v in cands:
                    vmark = len(journal)
                    _eliminate(adj, v, journal)
                    if dfs():
                        return True
                    _undo(adj, journal, vmark)
            dead.add(key)
        _undo(adj, journal, mark)
        return False

    return _journal_elimination(journal) if dfs() else None


def exact_treewidth(
    g: Graph,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    limit: int | None = None,
    *,
    min_fill: Elimination | None = None,
) -> tuple[int, Elimination | None]:
    """Optimal width and a witnessing elimination, per-component.

    vertex_cap bounds each connected component, not the graph: isolated
    vertices and other small components cost the search next to nothing.
    Raises VertexCapExceeded, before any search, if a component exceeds it.
    With a limit, the search stops as soon as width above the limit is
    proven, and returns a lower bound above the limit with no elimination.
    Widths up to the limit come back exactly as without one.

    The components, taken by smallest vertex id, are read off the min-fill
    game on g: a vertex's neighbours at its elimination are in its component
    and eliminated after it, and a component's last vertex has none. The
    game restricted to a component is its own game: fill edges never leave
    a component, and the (score, vertex id) heap pops its vertices in the
    order its own game would. Each component runs `_decide` at each width
    from its lower bound (degeneracy or the contraction bound) that is below
    its game's width and at most the limit, and keeps its game if nothing
    beats it. A caller that has just played the game on g (`upper_bound_heuristic`)
    passes it as min_fill.
    """
    if min_fill is None:
        min_fill = _greedy_order(g.adjacency_view())
    order, nbrs = min_fill
    part_of: dict[int, list[int]] = {}
    parts: list[list[int]] = []  # each component's positions in the game, last first
    for i in range(len(order) - 1, -1, -1):
        part = part_of[next(iter(nbrs[i]))] if nbrs[i] else []
        if not part:
            parts.append(part)
        part_of[order[i]] = part
        part.append(i)
    largest = max(map(len, parts), default=0)
    if largest > vertex_cap:
        raise VertexCapExceeded(
            f"a component of {largest} vertices exceeds the exact-solver cap {vertex_cap}"
        )
    width, out = -1, Elimination([], [])
    for part in sorted(parts, key=lambda ps: min(order[i] for i in ps)):
        game = Elimination([order[i] for i in part[::-1]], [nbrs[i] for i in part[::-1]])
        adj = {v: set(g.neighbors(v)) for v in game.order}
        lb = max(max(_core_numbers(adj).values()), _mmw_adj(adj))
        top = game.width if limit is None else min(game.width, limit + 1)
        for w in range(lb, top):
            found = _decide(adj, w)
            if found is not None:
                game = found
                break
        else:
            w = max(lb, top)
        if limit is not None and w > limit:
            return w, None
        width = max(width, w)
        out.order.extend(game.order)
        out.nbrs.extend(game.nbrs)
    return width, out


def treewidth_at_most(g: Graph, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> TwVerdict:
    """Decide tw(g) <= t; always decisive for t <= 2, and for larger t
    decisive at or below the cap and best-effort above.

    For t <= 2 a graph on n > t vertices with more than t*n - t(t+1)/2
    edges is Exceeds with bound t + 1, read off its vertex and edge counts
    before its adjacency is copied. Otherwise the O(n+m) reduction that
    eliminates vertices of degree at most t (`_reduce_low_width`) decides
    alone and exactly: AtMost with its elimination, whose width is the
    treewidth, when it empties the graph, else Exceeds with bound t + 1.
    The edge bound only answers early what the reduction would. For t >= 3
    the rungs run cheapest first: degeneracy above t (O(n+m)) is Exceeds;
    min-fill width at most t is AtMost with the min-fill elimination; the
    contraction bound above t is Exceeds; if no connected component exceeds
    the vertex cap, exact search decides, stopping once width above t is
    proven, and AtMost carries its elimination; otherwise the answer is
    Unknown. vertex_cap therefore only matters for t >= 3, and isolated
    vertices do not count towards it.
    """
    if t <= 2:
        n = g.num_vertices()
        if n > t and g.num_edges() > t * n - t * (t + 1) // 2:
            return TwVerdict(EXCEEDS, t + 1)
        adj = g.adjacency()
        order, bags, _ = _reduce_low_width(adj, t)
        if adj:
            return TwVerdict(EXCEEDS, t + 1)
        elimination = Elimination(order, bags)
        return TwVerdict(AT_MOST, elimination.width, elimination)
    deg = degeneracy(g)
    if deg > t:
        return TwVerdict(EXCEEDS, deg)
    ub, elimination = upper_bound_heuristic(g)
    if ub <= t:
        return TwVerdict(AT_MOST, ub, elimination)
    mmw = minor_min_width(g)
    if mmw > t:
        return TwVerdict(EXCEEDS, mmw)
    try:
        w, elimination = exact_treewidth(g, vertex_cap, limit=t, min_fill=elimination)
    except VertexCapExceeded:
        return TwVerdict(UNKNOWN, ub)
    if w <= t:
        return TwVerdict(AT_MOST, w, elimination)
    return TwVerdict(EXCEEDS, w)


# ---------------------------------------------------------------------------
# witnesses


def _find_cycle(g: Graph) -> frozenset[int] | None:
    """Vertex set of some cycle, or None for a forest. A depth-first search,
    smallest vertex and smallest neighbour first, stops at the first edge to
    a reached vertex other than the parent: in an undirected search that
    vertex is an ancestor (Tarjan, 1972), and the cycle is the tree path up
    to it."""
    parent: dict[int, int | None] = {}
    for start in g.sorted_vertices():
        if start in parent:
            continue
        stack: list[tuple[int, int | None]] = [(start, None)]
        while stack:
            u, p = stack.pop()
            parent[u] = p
            for x in sorted(g.neighbors(u)):
                if x == p:
                    continue
                if x in parent:
                    cycle = [u]
                    while cycle[-1] != x:
                        cycle.append(parent[cycle[-1]])
                    return frozenset(cycle)
                stack.append((x, u))
    return None


def witness(g: Graph, t: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> frozenset[int]:
    """A small vertex set of g whose induced subgraph has width above t; g's
    own width must be above t.

    Seeded from a cycle for t = 1, otherwise from the (t+1)-core, or all of g
    when that core is empty; then shrunk by greedy vertex deletion, in vertex
    order, while the width stays above t. A t = 1 seed in which every vertex
    has exactly two neighbours is a chordless cycle, which loses no vertex
    to the shrink, so it is returned without a trial. For t <= 2 each
    deletion trial runs the ladder's reduction on g's neighbourhoods
    restricted to the trial set, without building a subgraph. A trial that
    sticks leaves a certificate inside the trial set (`_certificate`), and
    a later vertex outside it is deleted without a trial: what remains
    still holds the certificate, so its width stays above t (the reuse of a
    model across the deletion-based extraction of a minimal set for a
    monotone predicate; Marques-Silva, Janota & Belov, 2013). The answers
    are the trials' own, so the witness is the same as with a trial per
    vertex. For t >= 3 each trial asks treewidth_at_most about the induced
    subgraph.
    """
    if t == 1:
        seed = _find_cycle(g) or frozenset(g.vertices())
        if all(len(g.neighbors(v) & seed) == 2 for v in seed):
            return seed
    else:
        core = _core_numbers(g.adjacency_view())
        seed = frozenset(v for v, c in core.items() if c > t) or frozenset(core)
    w = set(seed)
    cert: frozenset[int] | None = None  # t <= 2: a subset of w of width above t
    for u in sorted(seed):
        if cert is not None and u not in cert:
            w.discard(u)
            continue
        trial = w - {u}
        if t <= 2:
            core = {v: g.neighbors(v) & trial for v in trial}
            _, _, via = _reduce_low_width(core, t)
            if core:
                w = trial
                cert = _certificate(core, via)
        elif treewidth_at_most(g.subgraph(trial), t, vertex_cap).kind == EXCEEDS:
            w = trial
    return frozenset(w)


# The tree decomposition, its validator and .td I/O live in pace; they are
# still importable from here, and a solve never loads pace.
__getattr__ = _moved_names(
    globals(),
    dict.fromkeys(
        ("TreeDecomposition", "ValidationReport", "_decomposition", "read_td", "validate_decomposition", "write_td"),
        "pace",
    ),
)
