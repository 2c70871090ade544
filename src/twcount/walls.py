"""Walls, their subdivisions and models, graph isomorphism.

The r-wall (`make_wall`) is the grid-like graph whose subdivisions are the
obstructions behind large treewidth; `is_wall_subdivision` recognises one
by dissolving degree-2 vertices and matching what is left against the
dissolved wall (`find_isomorphism`), and `WallModel` records a topological
model of a wall inside a host graph. None of this runs on the solve path:
obstruction templates and the wall generators use it, and no solve loads
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

from .graphs import Graph


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
