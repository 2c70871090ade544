import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount.formula import Assignment, reduce
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
)
from twcount.graphs import Graph, InducedSubgraph, build_incidence, make_wall
from twcount import treewidth as tw
from twcount.treewidth import (
    AT_MOST,
    EXCEEDS,
    UNKNOWN,
    TreeDecomposition,
    VertexCapExceeded,
    degeneracy,
    exact_treewidth,
    lower_bound,
    minor_min_width,
    read_td,
    treewidth_at_most,
    upper_bound_heuristic,
    validate_decomposition,
    write_td,
)
from test_graphs import ref_subgraph


def complete_graph(n):
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            g.add_edge(a, b)
    return g


def complete_bipartite(a, b):
    g = Graph()
    for v in range(1, a + b + 1):
        g.add_vertex(v)
    for u in range(1, a + 1):
        for v in range(a + 1, a + b + 1):
            g.add_edge(u, v)
    return g


def cycle_graph(n):
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for i in range(1, n + 1):
        g.add_edge(i, i % n + 1)
    return g


def random_gnm(n, m, seed):
    rng = DetRng(seed)
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    for (a, b) in rng.sample(pairs, min(m, len(pairs))):
        g.add_edge(a, b)
    return g


def ref_components(g):
    """Connected components by breadth-first search, by smallest vertex."""
    seen, comps = set(), []
    for s in g.sorted_vertices():
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for u in comp:  # comp grows as the search reaches new vertices
            for x in g.neighbors(u):
                if x not in seen:
                    seen.add(x)
                    comp.append(x)
        comps.append(set(comp))
    return comps


def test_validate_single_bag():
    g = complete_graph(5)
    td = TreeDecomposition({1: frozenset(range(1, 6))}, ())
    assert validate_decomposition(g, td).ok
    assert td.width == 4


def test_validate_path():
    g = Graph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({2, 3})}, ((1, 2),))
    rep = validate_decomposition(g, td)
    assert rep.ok and td.width == 1


def test_validate_connectivity_violation():
    g = Graph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    td = TreeDecomposition(
        {1: frozenset({1, 2}), 2: frozenset({3}), 3: frozenset({2})},
        ((1, 2), (2, 3)),
    )
    rep = validate_decomposition(g, td)
    assert not rep.ok
    assert ("connectivity", 2) in rep.violations


def test_validate_edge_coverage_violation():
    g = Graph()
    for v in (1, 2):
        g.add_vertex(v)
    g.add_edge(1, 2)
    td = TreeDecomposition({1: frozenset({1}), 2: frozenset({2})}, ((1, 2),))
    rep = validate_decomposition(g, td)
    assert ("edge-coverage", (1, 2)) in rep.violations


def test_validate_tree_violation():
    g = Graph()
    g.add_vertex(1)
    td = TreeDecomposition({1: frozenset({1}), 2: frozenset({1})}, ())
    assert not validate_decomposition(g, td).ok  # two bags, no edge: disconnected


def test_lower_bound_anchors():
    assert lower_bound(complete_graph(5)) == 4
    assert lower_bound(complete_bipartite(4, 4)) == 4
    tree = Graph()
    for v in range(1, 6):
        tree.add_vertex(v)
    for v in range(2, 6):
        tree.add_edge(1, v)
    assert lower_bound(tree) == 1
    assert degeneracy(Graph()) == -1


def test_upper_bound_heuristic():
    w, elimination = upper_bound_heuristic(Graph())
    assert w == -1 and elimination == ([], [])
    assert elimination.decomposition() == TreeDecomposition({}, ())
    w, elimination = upper_bound_heuristic(cycle_graph(5))
    assert w == 2
    assert validate_decomposition(cycle_graph(5), elimination.decomposition()).ok
    w, _ = upper_bound_heuristic(complete_graph(5))
    assert w == 4


def test_exact_anchors():
    assert exact_treewidth(complete_bipartite(4, 4))[0] == 4
    assert exact_treewidth(complete_graph(5))[0] == 4
    f = reduce(gen_grid_formula_x(3), Assignment({10: 1}))
    assert exact_treewidth(build_incidence(f))[0] == 1


def test_exact_wall8():
    g, _ = make_wall(8)
    w, elimination = exact_treewidth(g, vertex_cap=64)
    assert w >= 4
    td = elimination.decomposition()
    assert validate_decomposition(g, td).ok
    assert td.width == w


def test_exact_cap():
    g, _ = make_wall(8)
    with pytest.raises(VertexCapExceeded):
        exact_treewidth(g, vertex_cap=48)


@pytest.mark.parametrize("n, m, seed, kind", [(9, 18, 49, AT_MOST), (8, 19, 12, EXCEEDS)])
def test_at_most_cap_ignores_isolated_vertices(n, m, seed, kind):
    # A connected graph on as many vertices as the cap, of min-fill width 5
    # and lower bounds at most 4, so that only the exact search decides
    # t = 4; isolated vertices beside it leave that so.
    t = 4
    g = random_gnm(n, m, seed)
    assert len(ref_components(g)) == 1
    assert max(degeneracy(g), minor_min_width(g)) <= t < upper_bound_heuristic(g)[0] == 5
    for v in range(n + 1, n + 4):
        g.add_vertex(v)
    verdict = treewidth_at_most(g, t, vertex_cap=n)
    assert verdict.kind == kind
    if kind == AT_MOST:
        td = verdict.elimination.decomposition()
        assert verdict.bound == t and validate_decomposition(g, td).ok
    assert treewidth_at_most(g, t, vertex_cap=n - 1).kind == UNKNOWN


def test_exact_rung_plays_the_game_once(monkeypatch):
    # The exact search starts from the ladder's own min-fill game, restricted
    # to each component, rather than playing the game again per component,
    # and hands over the elimination its search built rather than replaying
    # its order on g. Only the exact rung decides t = 4 on this graph (see
    # test_at_most_cap_ignores_isolated_vertices).
    g = random_gnm(9, 18, 49)
    for v in range(10, 13):
        g.add_vertex(v)
    expected = exact_treewidth(g)
    games = []
    greedy_order = tw._greedy_order
    monkeypatch.setattr(tw, "_greedy_order", lambda adj: games.append(adj) or greedy_order(adj))
    verdict = treewidth_at_most(g, 4, vertex_cap=9)
    assert (verdict.kind, verdict.bound, len(games)) == (AT_MOST, 4, 1)
    assert verdict.elimination == elimination_from_order(g, verdict.elimination.order)
    assert exact_treewidth(g) == expected and len(games) == 2


def test_exact_isolated_vertices():
    g = Graph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    w, elimination = exact_treewidth(g)
    assert w == 0
    assert validate_decomposition(g, elimination.decomposition()).ok


def test_decide_on_a_graph_with_no_almost_simplicial_vertex():
    # The octahedron K_{2,2,2} has treewidth 4, and no vertex is almost
    # simplicial: each neighbourhood is a 4-cycle. At w = 5 no forced move
    # applies and all 6 <= w + 1 vertices go in vertex order; at w = 4 the
    # search branches; at w = 3 it fails and restores the graph.
    g = Graph()
    for v in range(1, 7):
        g.add_vertex(v)
    for a in range(1, 7):
        for b in range(a + 1, 7):
            if (a + 1) // 2 != (b + 1) // 2:  # antipodes are 1-2, 3-4, 5-6
                g.add_edge(a, b)
    assert not any(tw._almost_simplicial(g.adjacency(), v) for v in g.vertices())
    for w in (5, 4):
        adj = g.adjacency()
        elimination = tw._decide(adj, w)
        assert not adj and elimination.width == 4
        assert validate_decomposition(g, elimination.decomposition()).ok
        if w == 5:
            assert elimination.order == [1, 2, 3, 4, 5, 6]
    adj = g.adjacency()
    assert tw._decide(adj, 3) is None and adj == g.adjacency()


def test_at_most_verdicts():
    forest = Graph()
    for v in range(1, 7):
        forest.add_vertex(v)
    for v in range(2, 7):
        forest.add_edge(v // 2, v)
    assert treewidth_at_most(forest, 1).kind == AT_MOST
    v = treewidth_at_most(complete_graph(5), 3)
    assert v.kind == EXCEEDS
    assert v.bound >= 4
    v = treewidth_at_most(build_incidence(gen_grid_formula(3)), 2)
    assert v.kind == EXCEEDS


def test_at_most_above_cap():
    g, _ = make_wall(8)
    v = treewidth_at_most(g, 1, vertex_cap=10)
    assert v.kind == EXCEEDS  # degeneracy 2 already rules out t=1
    v = treewidth_at_most(g, 4, vertex_cap=10)
    assert v.kind == AT_MOST  # heuristic width 4 certifies
    v = treewidth_at_most(g, 3, vertex_cap=10)
    assert v.kind == EXCEEDS and v.bound == 4  # contraction bound 4 rules out t=3
    g = build_incidence(gen_random_cnf(40, 55, 3, 0))  # 95 vertices
    assert (minor_min_width(g), upper_bound_heuristic(g)[0]) == (8, 15)
    v = treewidth_at_most(g, 10)
    assert v.kind == UNKNOWN and v.bound == 15


def test_empty_graph_verdict():
    # Both the t <= 2 reduction and the min-fill rung decide the empty graph.
    for t in range(5):
        v = treewidth_at_most(Graph(), t)
        assert v.kind == AT_MOST and v.bound == -1 and v.elimination == ([], [])


@given(st.integers(0, 400))
@settings(max_examples=50, deadline=None)
def test_bound_sandwich(seed):
    rng = DetRng(seed)
    n = rng.randint(3, 11)
    m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
    g = random_gnm(n, m, seed)
    lb = max(lower_bound(g), minor_min_width(g))
    exact, elimination = exact_treewidth(g)
    ub, min_fill = upper_bound_heuristic(g)
    assert lb <= exact <= ub
    td = elimination.decomposition()
    assert validate_decomposition(g, td).ok
    assert validate_decomposition(g, min_fill.decomposition()).ok
    assert td.width == exact


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_at_most_matches_exact(seed):
    rng = DetRng(seed)
    n = rng.randint(3, 10)
    g = random_gnm(n, rng.randint(n, 2 * n), seed + 7)
    exact, _ = exact_treewidth(g)
    for t in range(0, exact + 2):
        verdict = treewidth_at_most(g, t)
        assert (verdict.kind == AT_MOST) == (exact <= t)
        if verdict.kind == AT_MOST:
            td = verdict.elimination.decomposition()
            assert td.width <= t and validate_decomposition(g, td).ok


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_subgraph_monotonicity(seed):
    rng = DetRng(seed)
    n = rng.randint(4, 10)
    g = random_gnm(n, rng.randint(n, 2 * n), seed + 13)
    keep = set(rng.sample(g.sorted_vertices(), rng.randint(2, n - 1)))
    sub = g.subgraph(keep)
    assert exact_treewidth(sub)[0] <= exact_treewidth(g)[0]


def test_decomposition_from_order_validates():
    g = random_gnm(8, 14, 99)
    order = g.sorted_vertices()
    td = elimination_from_order(g, order).decomposition()
    assert validate_decomposition(g, td).ok


def test_td_roundtrip():
    g = cycle_graph(5)
    w, elimination = exact_treewidth(g)
    td = elimination.decomposition()
    id_map = {v: v for v in g.sorted_vertices()}
    text = write_td(td, id_map)
    assert text.startswith(f"s td {len(td.bags)} {w + 1} 5")
    back = read_td(text)
    assert validate_decomposition(g, back).ok
    assert back.width == td.width


@pytest.mark.parametrize("line", ["b", "1 2 3", "b x 1", "s td 1"])
def test_read_td_rejects_malformed_lines(line):
    # A bag line with no index, an edge of three ids, a non-integer id and a
    # header of three fields each raise ValueError naming the line.
    with pytest.raises(ValueError, match="^line 3: "):
        read_td(f"s td 1 2 2\nb 1 1 2\n{line}\n")


# ---------------------------------------------------------------------------
# Reference oracles: the O(n^2) bound and heuristic rungs, kept verbatim in
# behaviour, that the bucket-queue and lazy-heap versions must reproduce
# exactly (values, elimination orders and decompositions).


def ref_degeneracy_adj(adj):
    if not adj:
        return -1
    work = {v: set(s) for v, s in adj.items()}
    best = 0
    while work:
        v = min(work, key=lambda u: (len(work[u]), u))
        best = max(best, len(work[v]))
        for u in work[v]:
            work[u].discard(v)
        del work[v]
    return best


def ref_core_vertices(g, k):
    adj = g.adjacency()
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if len(adj[v]) < k:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    return frozenset(adj)


def ref_mmw_adj(adj):
    work = {v: set(s) for v, s in adj.items()}
    best = 0
    while work:
        v = min(work, key=lambda u: (len(work[u]), u))
        d = len(work[v])
        best = max(best, d)
        if d == 0:
            del work[v]
            continue
        u = min(work[v], key=lambda x: (len(work[x]), x))
        nbrs = work.pop(v)
        for w in nbrs:
            work[w].discard(v)
        merged = (work[u] | nbrs) - {u, v}
        work[u] = merged
        for w in merged:
            work[w].add(u)
    return best


def ref_eliminate(adj, v):
    nbrs = sorted(adj.pop(v))
    for i, a in enumerate(nbrs):
        adj[a].discard(v)
        for b in nbrs[i + 1:]:
            adj[a].add(b)
            adj[b].add(a)
    return len(nbrs)


def ref_fill_in(adj, v):
    nbrs = list(adj[v])
    missing = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in adj[a]:
                missing += 1
    return missing


def ref_greedy_order(adj, key):
    """The elimination game taking the least key first: the order and each
    vertex's neighbours at its elimination."""
    work = {v: set(s) for v, s in adj.items()}
    order, nbrs = [], []
    while work:
        v = min(work, key=lambda u: key(work, u))
        order.append(v)
        nbrs.append(set(work[v]))
        ref_eliminate(work, v)
    return order, nbrs


def ref_min_fill_order(adj):
    return ref_greedy_order(adj, lambda w, u: (ref_fill_in(w, u), u))


def ref_min_degree_rung(adj, t):
    """The t <= 2 rung as it was: the min-degree elimination game on a lazy
    heap, stopped once the least degree exceeds t. tw <= t exactly when the
    order covers the graph. Returns the order, its width and the bags."""
    work = {v: set(s) for v, s in adj.items()}
    heap = [(len(s), v) for v, s in work.items()]
    heapq.heapify(heap)
    order, bags = [], []
    width = -1 if not work else 0
    while heap:
        d, v = heapq.heappop(heap)
        if v not in work or len(work[v]) != d:
            continue
        if d > t:
            break
        nbrs = work.pop(v)
        order.append(v)
        bags.append(nbrs)
        width = max(width, d)
        for a in nbrs:
            work[a].discard(v)
        nlist = list(nbrs)
        for i, a in enumerate(nlist):
            for b in nlist[i + 1:]:
                work[a].add(b)
                work[b].add(a)
        for x in nbrs:
            heapq.heappush(heap, (len(work[x]), x))
    return order, width, bags


def ref_decomposition_from_order(g, order):
    adj = g.adjacency()
    pos = {v: i for i, v in enumerate(order)}
    bags, edges, roots = {}, [], []
    for v in order:
        nbrs = set(adj[v])
        bags[pos[v] + 1] = frozenset(nbrs | {v})
        if nbrs:
            parent = min(nbrs, key=lambda u: pos[u])
            edges.append((pos[v] + 1, pos[parent] + 1))
        else:
            roots.append(pos[v] + 1)
        ref_eliminate(adj, v)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(bags, tuple(edges))


def elimination_from_order(g, order):
    """The elimination game on g along order: each vertex's neighbours when
    it is eliminated, fill edges included. The replay the exact rung's own
    eliminations must equal."""
    adj = g.adjacency()
    assert set(order) == set(adj)
    nbrs = []
    for v in order:
        nbrs.append(set(adj[v]))
        ref_eliminate(adj, v)
    return tw.Elimination(list(order), nbrs)


def ref_validate_decomposition(g, td):
    violations = []
    idx = set(td.bags)
    for (i, j) in td.edges:
        if i not in idx or j not in idx:
            violations.append(("tree", (i, j)))
    if not violations and idx:
        seen = set()
        adj = {i: set() for i in idx}
        for (i, j) in td.edges:
            adj[i].add(j)
            adj[j].add(i)
        root = min(idx)
        stack = [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(idx) or len(td.edges) != len(idx) - 1:
            violations.append(("tree", "not a connected acyclic index set"))
    covered = set()
    for b in td.bags.values():
        covered |= b
    for v in g.sorted_vertices():
        if v not in covered:
            violations.append(("vertex-coverage", v))
    for (u, v) in g.edges():
        if not any(u in b and v in b for b in td.bags.values()):
            violations.append(("edge-coverage", (u, v)))
    if not any(code == "tree" for code, _ in violations):
        adj = {i: set() for i in idx}
        for (i, j) in td.edges:
            adj[i].add(j)
            adj[j].add(i)
        for v in g.sorted_vertices():
            holding = {i for i, b in td.bags.items() if v in b}
            if not holding:
                continue
            start = min(holding)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w in holding and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != holding:
                violations.append(("connectivity", v))
    return tw.ValidationReport(not violations, tuple(violations))


def _family_graph(family, a, b, seed):
    if family == "gnm":
        n = 2 + a % 30
        return random_gnm(n, b % (n * (n - 1) // 2 + 1), seed)
    if family == "wall":
        return make_wall(2 + a % 6)[0]
    if family == "planted":
        t = 1 + b % 3
        return build_incidence(gen_planted(4 + a % 24, t, 1 + seed % 3, seed)[0])
    n = 3 + a % 30
    return build_incidence(gen_random_cnf(n, 1 + b % (2 * n), 1 + seed % 3, seed))


graph_cases = st.builds(
    _family_graph,
    st.sampled_from(("gnm", "wall", "planted", "random")),
    st.integers(0, 200),
    st.integers(0, 400),
    st.integers(0, 1000),
)


@given(graph_cases)
@settings(max_examples=120, deadline=None)
def test_bounds_match_reference(g):
    adj = g.adjacency()
    core = tw._core_numbers(adj)
    assert degeneracy(g) == max(core.values(), default=-1) == ref_degeneracy_adj(adj)
    assert minor_min_width(g) == ref_mmw_adj(adj)
    for k in range(max(core.values(), default=0) + 2):
        assert frozenset(v for v, c in core.items() if c >= k) == ref_core_vertices(g, k)


def _fill_heavy_graph(n, extra, seed):
    return build_incidence(gen_random_cnf(n, 3 * n // 2 + extra, 3, seed))


# Incidence graphs of random 3-CNF at min-fill width 8-15, whose games add
# many fill edges per elimination, most between vertices that already share
# neighbours.
fill_heavy_cases = st.builds(
    _fill_heavy_graph, st.integers(20, 30), st.integers(0, 10), st.integers(0, 1000)
).filter(lambda g: 8 <= tw._greedy_order(g.adjacency_view()).width <= 15)


@given(st.one_of(graph_cases, fill_heavy_cases))
@settings(max_examples=160, deadline=None)
def test_orders_match_reference(g):
    adj = g.adjacency()
    elimination = tw._greedy_order(adj)
    order, nbrs = ref_min_fill_order(adj)
    assert elimination.order == order
    assert elimination.nbrs == nbrs
    assert adj == g.adjacency()  # the ordering works on a copy
    width, elimination = upper_bound_heuristic(g)
    assert width == max(map(len, nbrs), default=-1)
    if g.num_vertices():
        ref_td = ref_decomposition_from_order(g, order)
        td = elimination.decomposition()
        assert td == ref_td and list(td.bags) == list(ref_td.bags)
        assert elimination_from_order(g, order).decomposition() == ref_td


def _interleaved_union(graphs):
    """The graphs side by side, each renumbered 1..n and then interleaved
    (vertex i of part p becomes k * i + p + 1), so that ties between parts
    in the min-fill game fall either way."""
    k = len(graphs)
    g = Graph()
    for p, h in enumerate(graphs):
        ids = {v: k * i + p + 1 for i, v in enumerate(h.sorted_vertices())}
        for v in ids.values():
            g.add_vertex(v)
        for u, v in h.edges():
            g.add_edge(ids[u], ids[v])
    return g


@given(st.lists(graph_cases, min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_game_restricted_to_a_component_is_its_own_game(graphs):
    g = _interleaved_union(graphs)
    game = tw._greedy_order(g.adjacency_view())
    for comp in ref_components(g):
        alone = tw._greedy_order({v: g.neighbors(v) for v in comp})
        kept = [i for i, v in enumerate(game.order) if v in comp]
        assert [game.order[i] for i in kept] == alone.order
        assert [game.nbrs[i] for i in kept] == alone.nbrs


@given(graph_cases)
@settings(max_examples=60, deadline=None)
def test_is_simplicial_matches_fill_in(g):
    # On the graph and at every step of its min-fill elimination game, whose
    # fill makes ever more vertices simplicial and almost simplicial.
    adj = g.adjacency()
    for v in tw._greedy_order(adj).order:
        for u in adj:
            assert tw._is_simplicial(adj, u) == (tw._fill_in(adj, u) == 0)
            assert tw._almost_simplicial(adj, u) == ref_almost_simplicial(adj, u)
        tw._eliminate(adj, v, [])


def ref_almost_simplicial(adj, v):
    """For some neighbour, or for none, the other neighbours are pairwise adjacent."""
    nbrs = adj[v]
    return any(
        all(b in adj[a] for a in rest for b in rest if a != b)
        for rest in [nbrs] + [nbrs - {x} for x in nbrs]
    )


def ref_treewidth(g):
    """Treewidth by the subset recurrence TW(S) = min over v in S of
    max(TW(S - v), |Q(S - v, v)|), where Q(S, v) is the set of vertices
    outside S + v reachable from v through S (Bodlaender, Fomin, Koster,
    Kratsch & Thilikos, ESA 2006); exponential, for small graphs only."""
    verts = g.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(verts)}
    at = {b: v for v, b in bit.items()}
    nbr = {v: sum(bit[u] for u in g.neighbors(v)) for v in verts}

    def q(s, v):
        seen = bit[v] | nbr[v]
        frontier = nbr[v] & s
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[at[low]] & ~seen
            seen |= new
            frontier |= new & s
        return (seen & ~s & ~bit[v]).bit_count()

    tw_of = [-1] * (1 << len(verts))
    for s in range(1, 1 << len(verts)):
        tw_of[s] = min(
            max(tw_of[s & ~bit[v]], q(s & ~bit[v], v)) for v in verts if s & bit[v]
        )
    return tw_of[-1]


small_graphs = st.builds(
    random_gnm, st.integers(0, 10), st.integers(0, 45), st.integers(0, 10_000)
)


@given(small_graphs)
@settings(max_examples=150, deadline=None)
def test_exact_matches_subset_reference(g):
    ref = ref_treewidth(g)
    assert exact_treewidth(g)[0] == ref
    for t in range(-1, 5):
        w, elimination = exact_treewidth(g, limit=t)
        if ref <= t:
            assert w == ref and elimination.width == ref
        else:
            assert t < w <= ref and elimination is None
        verdict = treewidth_at_most(g, t, vertex_cap=10)
        assert verdict.kind == (AT_MOST if ref <= t else EXCEEDS)


def _with_isolated(g, isolated):
    top = max(g.vertices(), default=0)
    for v in range(top + 1, top + 1 + isolated):
        g.add_vertex(v)
    return g


# Disjoint unions of small random graphs, beside 0-3 isolated vertices.
small_unions = st.builds(
    _with_isolated, st.lists(small_graphs, min_size=1, max_size=3).map(_interleaved_union),
    st.integers(0, 3),
)


@given(st.one_of(small_graphs, small_unions))
@settings(max_examples=100, deadline=None)
def test_exact_rung_hands_back_its_own_game(g):
    # The elimination is the search's own journal, or the min-fill game
    # restricted to a component: the elimination game along its order.
    for limit in (None, -1, 0, 1, 2, 3, 4):
        w, elimination = exact_treewidth(g, limit=limit)
        assert (elimination is None) == (limit is not None and w > limit)
        if elimination is not None:
            assert elimination == elimination_from_order(g, elimination.order)
            assert elimination.width == w


@given(small_unions.filter(lambda g: g.num_vertices() > 0))
@settings(max_examples=60, deadline=None)
def test_exact_cap_bounds_each_component(g):
    # The cap bounds the largest component, as an independent search finds
    # it, not the graph; the width is the largest of the components'.
    comps = ref_components(g)
    largest = max(map(len, comps))
    ref = max(ref_treewidth(g.subgraph(comp)) for comp in comps)
    for limit in (None, 1):
        w, elimination = exact_treewidth(g, vertex_cap=largest, limit=limit)
        if elimination is not None:
            assert w == ref and validate_decomposition(g, elimination.decomposition()).ok
        else:
            assert limit < w <= ref
        with pytest.raises(VertexCapExceeded):
            exact_treewidth(g, vertex_cap=largest - 1, limit=limit)


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_exact_limit_stops_above_t(seed):
    rng = DetRng(seed)
    n = rng.randint(3, 12)
    g = random_gnm(n, rng.randint(n, 3 * n), seed + 3)
    exact, elimination = exact_treewidth(g)
    for t in range(-1, exact + 2):
        w, limited = exact_treewidth(g, limit=t)
        if exact <= t:
            assert (w, limited) == (exact, elimination)
        else:
            assert t < w <= exact and limited is None


def _broken(td, g, how, pick):
    """td damaged in one way: a vertex dropped from every bag, an edge of g
    left uncovered, a vertex added to one more bag, or a tree edge dropped,
    added or pointed at a missing bag."""
    bags = {i: set(b) for i, b in td.bags.items()}
    edges = list(td.edges)
    ids = sorted(bags)
    verts = g.sorted_vertices()
    g_edges = sorted(g.edges())
    if how == "vertex" and verts:
        for b in bags.values():
            b.discard(verts[pick % len(verts)])
    elif how == "edge" and g_edges:
        u, v = g_edges[pick % len(g_edges)]
        for b in bags.values():
            if u in b:
                b.discard(v)
    elif how == "occurrence" and verts:
        bags[ids[pick % len(ids)]].add(verts[(pick // len(ids)) % len(verts)])
    elif how == "drop-tree-edge" and edges:
        del edges[pick % len(edges)]
    elif how == "add-tree-edge":
        edges.append((ids[pick % len(ids)], ids[(pick // 7) % len(ids)]))
    elif how == "missing-bag":
        edges.append((ids[pick % len(ids)], max(ids) + 1))
    return TreeDecomposition({i: frozenset(b) for i, b in bags.items()}, tuple(edges))


@given(
    graph_cases,
    st.sampled_from(
        ("none", "vertex", "edge", "occurrence", "drop-tree-edge", "add-tree-edge", "missing-bag")
    ),
    st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_validate_matches_reference(g, how, pick):
    td = upper_bound_heuristic(g)[1].decomposition()
    bad = _broken(td, g, how, pick)
    assert validate_decomposition(g, bad) == ref_validate_decomposition(g, bad)
    if how == "none":
        assert validate_decomposition(g, bad).ok


# ---------------------------------------------------------------------------
# the min-degree rung for t <= 2


def _low_width_graph(family, a, b, seed):
    """A random graph or incidence graph of at most 40 vertices."""
    if family == "gnm":
        n = 2 + a % 39
        return random_gnm(n, b % (3 * n // 2 + 1), seed)
    if family == "planted":
        return build_incidence(gen_planted(4 + a % 9, 1 + b % 2, 1 + seed % 3, seed)[0])
    n = 3 + a % 13
    return build_incidence(gen_random_cnf(n, 1 + b % (n + 10), 1 + seed % 3, seed))


low_width_cases = st.builds(
    _low_width_graph,
    st.sampled_from(("gnm", "planted", "random")),
    st.integers(0, 200),
    st.integers(0, 400),
    st.integers(0, 1000),
)


@given(low_width_cases)
@settings(max_examples=150, deadline=None)
def test_min_degree_rung_matches_exact(g):
    n = g.num_vertices()
    assert n <= 40
    for t in (0, 1, 2):
        ref_order, ref_width, _ = ref_min_degree_rung(g.adjacency(), t)
        core = g.adjacency()
        order, bags, _ = tw._reduce_low_width(core, t)
        exact, _ = exact_treewidth(g, vertex_cap=40, limit=t)
        assert (len(ref_order) == n) == (len(order) == n) == (not core) == (exact <= t)
        verdict = treewidth_at_most(g, t, vertex_cap=0)
        if exact <= t:
            assert ref_width == exact
            assert verdict.kind == AT_MOST and verdict.bound == exact
            td = verdict.elimination.decomposition()
            assert td == tw._decomposition(order, bags) and td.width == exact
            assert validate_decomposition(g, td).ok
        else:
            assert verdict.kind == EXCEEDS and verdict.bound > t


def _subdivided_graph(a, b, seed):
    """A random graph on 4-9 vertices with each edge subdivided 0-2 times and
    pendant vertices hung on it, at most 40 vertices in all: where the
    reduction sticks, its certificate runs through eliminated paths."""
    rng = DetRng(seed)
    base = random_gnm(4 + a % 6, 4 + b % 16, seed)
    g = Graph()
    for v in base.vertices():
        g.add_vertex(v)
    nxt = base.num_vertices() + 1
    for u, v in base.edges():
        chain = [u]
        for _ in range(rng.randint(0, 2)):
            if nxt > 34:
                break
            g.add_vertex(nxt)
            chain.append(nxt)
            nxt += 1
        chain.append(v)
        for x, y in zip(chain, chain[1:]):
            g.add_edge(x, y)
    while nxt <= 40 and rng.bit():
        g.add_vertex(nxt)
        g.add_edge(rng.randint(1, nxt - 1), nxt)
        nxt += 1
    return g


subdivided_cases = st.builds(
    _subdivided_graph, st.integers(0, 200), st.integers(0, 400), st.integers(0, 1000)
)


@given(st.one_of(low_width_cases, subdivided_cases))
@settings(max_examples=150, deadline=None)
def test_low_width_reduction_certifies(g):
    assert g.num_vertices() <= 40
    for t in (0, 1, 2):
        core = g.adjacency()
        order, bags, via = tw._reduce_low_width(core, t)
        exact, _ = exact_treewidth(g, vertex_cap=40, limit=t)
        assert (not core) == (exact <= t)
        if not core:
            td = tw._decomposition(order, bags)
            assert td.width == exact
            assert validate_decomposition(g, td).ok
        else:
            assert all(len(s) > t for s in core.values())
            cert = tw._certificate(core, via)
            assert core.keys() <= cert <= set(g.vertices())
            assert exact_treewidth(g.subgraph(cert), vertex_cap=40, limit=t)[0] > t


def series_parallel_graph(n, seed):
    """A random simple series-parallel graph on n >= 2 vertices, grown from one
    edge: a series step subdivides an edge, a parallel step joins a new vertex
    to both ends of an edge. Both steps keep the treewidth at most 2."""
    rng = DetRng(seed)
    edges = [(1, 2)]
    for v in range(3, n + 1):
        i = rng.randrange(len(edges))
        a, b = edges[i]
        if rng.bit():
            edges[i] = (a, v)
            edges.append((v, b))
        else:
            edges.extend([(a, v), (v, b)])
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    for a, b in edges:
        g.add_edge(a, b)
    return g


def test_low_width_rung_decides_above_cap(monkeypatch):
    def later_rung(*args, **kwargs):
        raise AssertionError("a rung other than the min-degree game ran for t <= 2")

    for name in ("degeneracy", "upper_bound_heuristic", "minor_min_width", "exact_treewidth"):
        monkeypatch.setattr(tw, name, later_rung)
    v = treewidth_at_most(make_wall(10)[0], 2, vertex_cap=8)
    assert v.kind == EXCEEDS and v.bound == 3
    tree = Graph()
    for v in range(1, 301):
        tree.add_vertex(v)
    for v in range(2, 301):
        tree.add_edge(DetRng(v).randint(1, v - 1), v)
    sp = series_parallel_graph(240, 5)
    for g, t, width in ((tree, 1, 1), (cycle_graph(300), 2, 2), (sp, 2, 2)):
        v = treewidth_at_most(g, t, vertex_cap=8)
        td = v.elimination.decomposition()
        assert v.kind == AT_MOST and v.bound == width == td.width
        assert validate_decomposition(g, td).ok
        v = treewidth_at_most(g, t - 1, vertex_cap=8)
        assert v.kind == EXCEEDS and v.bound == t


def random_tree(n, seed):
    """A random tree on n vertices: n - 1 edges, the most a graph of
    treewidth 1 has."""
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
        if v > 1:
            g.add_edge(DetRng(seed + v).randint(1, v - 1), v)
    return g


def two_tree(n, seed):
    """A random 2-tree on n >= 2 vertices, grown from one edge by joining
    each new vertex to both ends of an edge: 2n - 3 edges, the most a graph
    of treewidth 2 has."""
    rng = DetRng(seed)
    g = Graph()
    for v in range(1, n + 1):
        g.add_vertex(v)
    g.add_edge(1, 2)
    edges = [(1, 2)]
    for v in range(3, n + 1):
        a, b = edges[rng.randrange(len(edges))]
        g.add_edge(a, v)
        g.add_edge(b, v)
        edges += [(a, v), (b, v)]
    return g


def _edge_bound_graph(family, n, b, seed):
    """A graph on 0-12 vertices: random, or a tree or 2-tree, which sit
    exactly at the edge bound of their width."""
    if family == "tree":
        return random_tree(n, seed)
    if family == "2-tree":
        return two_tree(max(n, 2), seed)
    return random_gnm(n, b % (n * (n - 1) // 2 + 1), seed)


edge_bound_cases = st.builds(
    _edge_bound_graph,
    st.sampled_from(("gnm", "tree", "2-tree")),
    st.integers(0, 12),
    st.integers(0, 100),
    st.integers(0, 1000),
)


class CountedInduced(InducedSubgraph):
    """An induced subgraph that logs each adjacency it builds."""

    __slots__ = ("copies",)

    def _induce(self):
        self.copies.append(self._keep)
        return super()._induce()


def counted_induced(g):
    """g as the unbuilt subgraph of itself that all its vertices induce."""
    h = CountedInduced(g.adjacency_view(), frozenset(g.vertices()), g.num_edges())
    h.copies = []
    return h


@given(edge_bound_cases)
@settings(max_examples=200, deadline=None)
def test_edge_bound_agrees_with_the_reduction(g):
    # A graph of treewidth at most t on n > t vertices has at most
    # t*n - t(t+1)/2 edges. The t <= 2 rung rules out a graph above that
    # before it runs the reduction, and its verdict is still the
    # reduction's: on trees and 2-trees, which sit at the bound, and on
    # graphs of at most t vertices, where the bound says nothing. Asked
    # through an unbuilt induced subgraph, a graph above it costs no copy.
    n, m = g.num_vertices(), g.num_edges()
    for t in (0, 1, 2):
        core = g.adjacency()
        order, bags, _ = tw._reduce_low_width(core, t)
        expected = (EXCEEDS, t + 1) if core else (AT_MOST, tw.Elimination(order, bags).width)
        h = counted_induced(g)
        for verdict in (treewidth_at_most(g, t), treewidth_at_most(h, t)):
            assert (verdict.kind, verdict.bound) == expected
        if n > t and m > t * n - t * (t + 1) // 2:
            assert core and not h.copies


def ref_find_cycle(g):
    """_find_cycle as it was: a depth-first search, smallest vertex and
    smallest neighbour first, that records each vertex's depth and closes
    a cycle at the first non-tree edge by climbing from both of its ends to
    their meeting point."""
    seen = set()
    for start in g.sorted_vertices():
        if start in seen:
            continue
        parent, depth = {}, {}
        stack = [(start, None, 0)]
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


def _cycle_case_graph(family, sizes, extra, seed):
    """A disjoint union of random trees, one per size, each with up to
    extra more edges unless family is "forest", on scattered vertex ids;
    "connected" keeps only the first tree."""
    rng = DetRng(seed)
    if family == "connected":
        sizes = sizes[:1]
    ids = rng.sample(range(1, 10 * sum(sizes) + 1), sum(sizes))
    g = Graph()
    for v in ids:
        g.add_vertex(v)
    offset = 0
    for n in sizes:
        part = ids[offset:offset + n]
        offset += n
        for i in range(1, n):
            g.add_edge(part[rng.randrange(i)], part[i])
        if family != "forest":
            for _ in range(extra):
                a, b = rng.sample(part, 2) if n > 1 else (part[0], part[0])
                if a != b:
                    g.add_edge(a, b)
    return g


cycle_cases = st.builds(
    _cycle_case_graph,
    st.sampled_from(("connected", "disconnected", "forest")),
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
    st.integers(0, 4),
    st.integers(0, 10_000),
)


@given(cycle_cases, st.integers(0, 1000))
@settings(max_examples=300, deadline=None)
def test_find_cycle_matches_reference(g, seed):
    # The one-dict search returns the reference's cycle, on g and on
    # unbuilt induced subgraphs, which it reads only through neighbors and
    # never builds; it returns None exactly on forests.
    expected = ref_find_cycle(g)
    forest = g.num_edges() == g.num_vertices() - len(ref_components(g))
    assert (expected is None) == forest
    h = counted_induced(g)
    assert tw._find_cycle(g) == tw._find_cycle(h) == expected
    rng = DetRng(seed)
    keep = frozenset(rng.sample(g.sorted_vertices(), rng.randint(0, g.num_vertices())))
    ref = ref_subgraph(g, keep)
    sub = CountedInduced(g.adjacency_view(), keep, ref.num_edges())
    sub.copies = []
    assert tw._find_cycle(sub) == ref_find_cycle(ref)
    assert not h.copies and not sub.copies


def test_witness_returns_a_chordless_cycle_without_trials(monkeypatch):
    from test_backdoor import ref_witness

    trials = []
    reduce_low_width = tw._reduce_low_width
    monkeypatch.setattr(tw, "_reduce_low_width", lambda adj, t: trials.append(t) or reduce_low_width(adj, t))
    # A chordless cycle with a tree hung on it: the DFS cycle is the
    # witness, and greedy deletion would keep every vertex of it.
    g = cycle_graph(6)
    for v in range(7, 10):
        g.add_vertex(v)
        g.add_edge(v - 5, v)
    h = counted_induced(g)
    assert tw._find_cycle(g) == tw.witness(h, 1) == ref_witness(g, 1) == frozenset(range(1, 7))
    assert not trials and not h.copies
    # The DFS from 1 closes the cycle 1-2-3-4-5 through the edge 2-1, and
    # 2-4 is a chord of it: the shrink runs, still on no copy, down to the
    # triangle 2-3-4.
    g = cycle_graph(5)
    g.add_edge(2, 4)
    h = counted_induced(g)
    assert tw._find_cycle(g) == frozenset(range(1, 6))
    assert tw.witness(h, 1) == ref_witness(g, 1) == {2, 3, 4}
    assert trials and not h.copies


@given(low_width_cases)
@settings(max_examples=100, deadline=None)
def test_t1_witness_matches_reference(g):
    # At t = 1 the witness is the reference shrink's, it runs no trial
    # exactly when the DFS cycle has no chord, and it builds no induced
    # adjacency.
    from test_backdoor import ref_witness

    if treewidth_at_most(g, 1).kind != EXCEEDS:
        return
    trials = []
    reduce_low_width = tw._reduce_low_width
    tw._reduce_low_width = lambda adj, t: trials.append(t) or reduce_low_width(adj, t)
    try:
        h = counted_induced(g)
        w = tw.witness(h, 1)
    finally:
        tw._reduce_low_width = reduce_low_width
    seed = tw._find_cycle(g)
    chordless = all(len(g.neighbors(v) & seed) == 2 for v in seed)
    assert w == ref_witness(g, 1)
    assert (not trials) == chordless and (w == seed) == chordless
    assert not h.copies
