"""Undirected graphs, incidence graphs, walls, and subdivision checks.

Graphs are built once and then treated as immutable; every public operation
returns a new graph. The incidence graph inc(F) is unsigned: a variable is
adjacent to the clauses it occurs in, and literal polarity stays in F. Clause
vertices live at a fixed id offset from variable vertices, so a vertex's id
says which it is and both stay stable across reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Mapping

from .formula import CLAUSE_VERTEX_STRIDE, CnfFormula


def clause_vertex(cid: int) -> int:
    return CLAUSE_VERTEX_STRIDE + cid


def is_clause_vertex(v: int) -> bool:
    return v >= CLAUSE_VERTEX_STRIDE


def clause_id(v: int) -> int:
    if not is_clause_vertex(v):
        raise ValueError(f"{v} is not a clause vertex")
    return v - CLAUSE_VERTEX_STRIDE


class Graph:
    """Simple undirected graph on int vertices."""

    __slots__ = ("_adj", "_num_edges")

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._num_edges = 0

    def add_vertex(self, v: int) -> None:
        if v not in self._adj:
            self._adj[v] = set()

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise ValueError("both endpoints must be added first")
        if v in self._adj[u]:
            return
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1

    def remove_vertex(self, v: int) -> None:
        for u in self._adj.pop(v):
            self._adj[u].discard(v)
            self._num_edges -= 1

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def sorted_vertices(self) -> list[int]:
        return sorted(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return self._num_edges

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(s) for v, s in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """The subgraph keep induces, on this graph's adjacency (see
        `InducedSubgraph`); ValueError for a vertex outside the graph."""
        adj, kset = self._adj, frozenset(keep)
        missing = kset - adj.keys()
        if missing:
            raise ValueError(f"vertex {min(missing)} not in graph")
        return InducedSubgraph(adj, kset, sum(len(adj[v] & kset) for v in kset) // 2)

    def adjacency(self) -> dict[int, set[int]]:
        """Mutable adjacency copy for elimination-style algorithms."""
        return {v: set(s) for v, s in self._adj.items()}

    def adjacency_view(self) -> Mapping[int, AbstractSet[int]]:
        """The graph's own adjacency, without a copy; callers only read it."""
        return self._adj


class InducedSubgraph(Graph):
    """The subgraph of the graph with adjacency `parent` induced by the
    vertex set `keep`, which has `num_edges` edges, built when first read.
    `Graph.subgraph` and the width oracle's reductions make these.

    `num_vertices`, `num_edges`, `sorted_vertices` and `neighbors(v)` (as
    `parent[v] & keep`) answer without building it, so the t <= 2 rung of
    `treewidth_at_most` can rule a dense graph out, and the t = 1 witness
    find its cycle, on the parent's adjacency. Any other read builds
    `{v: parent[v] & keep for v in parent if v in keep}`, in the parent's
    order, and keeps it. `adjacency()` asked before that builds the same
    dict for its caller and keeps nothing, so a graph that is only
    eliminated costs one copy, not two.
    """

    __slots__ = ("_parent", "_keep", "_built")

    def __init__(
        self, parent: Mapping[int, AbstractSet[int]], keep: AbstractSet[int], num_edges: int
    ) -> None:
        self._parent = parent
        self._keep = keep
        self._built: dict[int, set[int]] | None = None
        self._num_edges = num_edges

    def _induce(self) -> dict[int, set[int]]:
        keep = self._keep
        return {v: s & keep for v, s in self._parent.items() if v in keep}

    @property
    def _adj(self) -> dict[int, set[int]]:
        if self._built is None:
            self._built = self._induce()
        return self._built

    def num_vertices(self) -> int:
        return len(self._keep)

    def sorted_vertices(self) -> list[int]:
        return sorted(self._keep)

    def neighbors(self, v: int) -> AbstractSet[int]:
        if self._built is None:
            return self._parent[v] & self._keep
        return self._built[v]

    def adjacency(self) -> dict[int, set[int]]:
        return self._induce() if self._built is None else super().adjacency()


def build_incidence(f: CnfFormula) -> Graph:
    """Bipartite incidence graph; free variables become isolated vertices.

    Fills the adjacency directly, in the order add_vertex / add_edge would:
    variables by id, then each clause vertex followed by its edges. A
    clause's literals are over distinct variables and clause ids are unique,
    so no edge repeats; only a clause vertex that lands on a variable id
    needs checking.
    """
    g = Graph()
    adj = g._adj
    for v in sorted(f.variables | f.free_vars):
        adj[v] = set()
    edges = 0
    for c in f.clauses:
        cv = clause_vertex(c.id)
        if cv in adj:
            raise ValueError(f"clause {c.id} has vertex {cv}, already a variable vertex")
        nbrs = adj[cv] = set()
        for x in c.lits:
            v = abs(x)
            adj[v].add(cv)
            nbrs.add(v)
        edges += len(c.lits)
    g._num_edges = edges
    return g


@dataclass(frozen=True, eq=False)
class WallCoordinates:
    """Positions of (some) vertices of a wall, 1-based (i, j) with i horizontal."""

    r: int
    positions: Mapping[int, tuple[int, int]]

    def vertex_at(self, i: int, j: int) -> int:
        for v, pos in self.positions.items():
            if pos == (i, j):
                return v
        raise KeyError((i, j))


def wall_vertex_id(r: int, i: int, j: int) -> int:
    return (i - 1) * r + j


def wall_edges(r: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Wall edges as coordinate pairs: all horizontal, alternating vertical."""
    out = []
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i < r:
                out.append(((i, j), (i + 1, j)))
            if (i + j) % 2 == 0 and j < r:
                out.append(((i, j), (i, j + 1)))
    return out


def make_wall(r: int) -> tuple[Graph, WallCoordinates]:
    """The r-wall on r*r vertices: grid rows plus every other vertical edge."""
    if r < 2:
        raise ValueError("walls need r >= 2")
    g = Graph()
    pos = {}
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            v = wall_vertex_id(r, i, j)
            g.add_vertex(v)
            pos[v] = (i, j)
    for (a, b) in wall_edges(r):
        g.add_edge(wall_vertex_id(r, *a), wall_vertex_id(r, *b))
    return g, WallCoordinates(r, pos)


def dissolve_degree_two(g: Graph, protected: Iterable[int] = ()) -> Graph:
    """Repeatedly contract an edge at an unprotected degree-2 vertex.

    A contraction that would create a parallel edge merges it instead, so the
    result stays simple. Smallest-id vertex first, for determinism.
    """
    keep = set(protected)
    h = g.copy()
    while True:
        v = min((u for u in h.vertices() if u not in keep and h.degree(u) == 2), default=None)
        if v is None:
            return h
        a, b = sorted(h.neighbors(v))
        h.remove_vertex(v)
        if not h.has_edge(a, b):
            h.add_edge(a, b)


def _joint_refine(adj_g: Mapping[int, AbstractSet[int]], adj_h: Mapping[int, AbstractSet[int]]):
    """Iterated neighborhood-color refinement from one color, with a palette
    shared by both graphs."""
    cg, ch = dict.fromkeys(adj_g, 0), dict.fromkeys(adj_h, 0)
    while True:
        palette: dict[object, int] = {}

        def recolor(adj, colors):
            new = {}
            for v in sorted(adj):
                sig = (colors[v], tuple(sorted(colors[u] for u in adj[v])))
                new[v] = palette.setdefault(sig, len(palette))
            return new

        ng, nh = recolor(adj_g, cg), recolor(adj_h, ch)
        if len(set(ng.values())) == len(set(cg.values())) and len(set(nh.values())) == len(
            set(ch.values())
        ):
            return ng, nh
        cg, ch = ng, nh


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An isomorphism g -> h, or None.

    Color refinement narrows candidates to the vertex's refined color, which
    implies its degree; ties are resolved by backtracking.
    """
    if g.num_vertices() != h.num_vertices() or g.num_edges() != h.num_edges():
        return None
    adj_g, adj_h = g.adjacency_view(), h.adjacency_view()
    cg, ch = _joint_refine(adj_g, adj_h)
    from collections import Counter

    if Counter(cg.values()) != Counter(ch.values()):
        return None
    by_color_h: dict[int, list[int]] = {}
    for v, c in ch.items():
        by_color_h.setdefault(c, []).append(v)

    mapping: dict[int, int] = {}
    used: set[int] = set()
    order = sorted(adj_g)

    def pick_next() -> int | None:
        best, best_key = None, None
        for v in order:
            if v in mapping:
                continue
            anchored = sum(1 for u in adj_g[v] if u in mapping)
            key = (-anchored, len(by_color_h[cg[v]]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def backtrack() -> bool:
        v = pick_next()
        if v is None:
            return True
        mapped_nbrs = [mapping[u] for u in adj_g[v] if u in mapping]
        for cand in sorted(by_color_h[cg[v]]):
            if cand in used:
                continue
            if any(m not in adj_h[cand] for m in mapped_nbrs):
                continue
            if sum(1 for u in adj_h[cand] if u in used) != len(mapped_nbrs):
                continue
            mapping[v] = cand
            used.add(cand)
            if backtrack():
                return True
            del mapping[v]
            used.discard(cand)
        return False

    return mapping if backtrack() else None


def _degree2_chains(g: Graph, core: set[int]):
    """Maximal paths whose interior vertices all have degree 2 and sit outside core.

    Yields (endpoint_a, endpoint_b, interior tuple ordered from a to b).
    """
    seen_edges: set[frozenset[int]] = set()
    for a in sorted(core):
        for first in sorted(g.neighbors(a)):
            if frozenset((a, first)) in seen_edges:
                continue
            path = [a]
            prev, cur = a, first
            while cur not in core:
                path.append(cur)
                nxt = [u for u in g.neighbors(cur) if u != prev]
                if len(nxt) != 1:
                    break  # dangling or branching outside core; not a chain
                prev, cur = cur, nxt[0]
            else:
                path.append(cur)
                for x, y in zip(path, path[1:]):
                    seen_edges.add(frozenset((x, y)))
                yield a, cur, tuple(path[1:-1])


def is_wall_subdivision(h: Graph, r: int) -> tuple[bool, WallCoordinates | None]:
    """Whether dissolving degree-2 vertices of h matches the dissolved r-wall.

    On success the returned coordinates cover every matched branch vertex; when
    h subdivides the wall edge-for-edge they cover all r*r wall positions.
    """
    wall, coords = make_wall(r)
    core_w = dissolve_degree_two(wall)
    core_h = dissolve_degree_two(h)
    phi = find_isomorphism(core_h, core_w)
    if phi is None:
        return False, None
    positions = {hv: coords.positions[wv] for hv, wv in phi.items()}

    core_w_set = set(core_w.vertices())
    core_h_set = set(core_h.vertices())
    wall_chains: dict[frozenset[int], list[tuple[int, int, tuple[int, ...]]]] = {}
    for a, b, interior in _degree2_chains(wall, core_w_set):
        wall_chains.setdefault(frozenset((a, b)), []).append((a, b, interior))
    h_chains: dict[frozenset[int], list[tuple[int, int, tuple[int, ...]]]] = {}
    for a, b, interior in _degree2_chains(h, core_h_set):
        key = frozenset((phi[a], phi[b]))
        h_chains.setdefault(key, []).append((a, b, interior))
    for key, wlist in wall_chains.items():
        hlist = h_chains.get(key, [])
        wlist = sorted(wlist, key=lambda t: (len(t[2]), t[2]))
        hlist = sorted(hlist, key=lambda t: (len(t[2]), t[2]))
        for (wa, wb, wint), (ha, hb, hint) in zip(wlist, hlist):
            if len(hint) < len(wint):
                continue
            if phi[ha] != wa:
                ha, hb, hint = hb, ha, tuple(reversed(hint))
            if phi[ha] != wa:
                continue
            for wv, hv in zip(wint, hint):
                positions[hv] = coords.positions[wv]
    return True, WallCoordinates(r, positions)


@dataclass(frozen=True, eq=False)
class WallModel:
    """A topological model of an r-wall inside a host graph.

    branch_vertices maps wall coordinates to host vertices; paths maps each
    wall edge (coordinate pair, smaller first) to the host path realizing it,
    endpoints included. Paths are independent: no path contains an interior
    vertex of another.
    """

    host: Graph
    r: int
    branch_vertices: Mapping[tuple[int, int], int]
    paths: Mapping[tuple[tuple[int, int], tuple[int, int]], tuple[int, ...]]


def identity_wall_model(r: int) -> WallModel:
    """The r-wall as a model of itself."""
    g, coords = make_wall(r)
    branch = {pos: v for v, pos in coords.positions.items()}
    paths = {}
    for (a, b) in wall_edges(r):
        key = (min(a, b), max(a, b))
        paths[key] = (branch[key[0]], branch[key[1]])
    return WallModel(g, r, branch, paths)


def subdivided_wall_model(r: int, extra: int = 1) -> WallModel:
    """An r-wall with every edge subdivided `extra` times, plus its model."""
    g, coords = make_wall(r)
    host = Graph()
    for v in g.sorted_vertices():
        host.add_vertex(v)
    branch = {pos: v for v, pos in coords.positions.items()}
    next_id = r * r + 1
    paths = {}
    for (a, b) in wall_edges(r):
        key = (min(a, b), max(a, b))
        u, v = branch[key[0]], branch[key[1]]
        chain = [u]
        for _ in range(extra):
            host.add_vertex(next_id)
            chain.append(next_id)
            next_id += 1
        chain.append(v)
        for x, y in zip(chain, chain[1:]):
            host.add_edge(x, y)
        paths[key] = tuple(chain)
    return WallModel(host, r, branch, paths)


def write_gr(g: Graph) -> tuple[str, dict[int, int]]:
    """PACE .gr text plus the original-id -> contiguous-id mapping."""
    verts = g.sorted_vertices()
    id_map = {v: i + 1 for i, v in enumerate(verts)}
    lines = [f"p tw {len(verts)} {g.num_edges()}"]
    for u, v in g.edges():
        lines.append(f"{id_map[u]} {id_map[v]}")
    return "\n".join(lines) + "\n", id_map


def read_gr(text: str) -> Graph:
    """Parse PACE .gr text into a plain graph on vertices 1..n."""
    g = Graph()
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if line.startswith("p"):
            if len(parts) != 4 or parts[1] != "tw" or not parts[2].isdecimal():
                raise ValueError(f"line {lineno}: malformed .gr header")
            n = int(parts[2])
            for v in range(1, n + 1):
                g.add_vertex(v)
            continue
        if n is None:
            raise ValueError(f"line {lineno}: edge before header")
        try:
            u, v = map(int, parts)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed .gr edge line {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: vertex id outside 1..{n} in {line!r}")
        if u == v:
            raise ValueError(f"line {lineno}: loop {line!r}")
        g.add_edge(u, v)
    if n is None:
        raise ValueError("missing 'p tw' header")
    return g
