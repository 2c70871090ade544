"""PACE formats and tree decompositions: .gr graphs, .td decompositions,
and the validator.

The solve path counts on eliminations (`treewidth.Elimination`) and never
builds a tree decomposition. This module is imported on first use, by
`Elimination.decomposition`, `counting.count_td` and the CLI's .gr input
and .td output, so its records can stay dataclasses: no solve pays for
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .graphs import Graph


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by int, plus tree edges between bag indices."""

    bags: Mapping[int, frozenset[int]]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, object], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_decomposition(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """Check tree-ness, that every bag vertex is a vertex of g, vertex
    coverage, edge coverage, and occurrence connectivity.

    Near-linear: each vertex's bags are indexed once. In a tree, the bags holding
    v are connected iff one fewer tree edge than bags has v at both ends.
    """
    violations: list[tuple[str, object]] = []
    idx = set(td.bags)
    for (i, j) in td.edges:
        if i not in idx or j not in idx:
            violations.append(("tree", (i, j)))
    if not violations and idx:
        adj: dict[int, set[int]] = {i: set() for i in idx}
        for (i, j) in td.edges:
            adj[i].add(j)
            adj[j].add(i)
        root = min(idx)
        stack = [root]
        seen = {root}
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(idx) or len(td.edges) != len(idx) - 1:
            violations.append(("tree", "not a connected acyclic index set"))
    holding: dict[int, set[int]] = {v: set() for v in g.vertices()}
    foreign: set[int] = set()
    for i, b in td.bags.items():
        for v in b:
            if v in holding:
                holding[v].add(i)
            else:
                foreign.add(v)
    violations.extend(("vertex-foreign", v) for v in sorted(foreign))
    for v in g.sorted_vertices():
        if not holding[v]:
            violations.append(("vertex-coverage", v))
    for (u, v) in g.edges():
        if holding[u].isdisjoint(holding[v]):
            violations.append(("edge-coverage", (u, v)))
    if not any(code == "tree" for code, _ in violations):
        shared = dict.fromkeys(holding, 0)
        for (i, j) in td.edges:
            for v in td.bags[i] & td.bags[j]:
                if v in shared:
                    shared[v] += 1
        for v in g.sorted_vertices():
            if holding[v] and shared[v] != len(holding[v]) - 1:
                violations.append(("connectivity", v))
    return ValidationReport(not violations, tuple(violations))


def _decomposition(order: list[int], bags: list[AbstractSet[int]]) -> TreeDecomposition:
    """Tree decomposition from an elimination order and each vertex's
    neighbours at its elimination.

    Bag i is order[i-1] plus those neighbours; the bag attaches to the bag of
    its earliest-eliminated such neighbor. Roots of separate components get
    chained so the index set forms one tree. So rooted at the highest-numbered
    bag, bag i's parent has a higher number and holds all of it but order[i-1].
    """
    pos = {v: i for i, v in enumerate(order)}
    out: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for i, (v, nbrs) in enumerate(zip(order, bags), start=1):
        out[i] = frozenset(nbrs) | {v}
        if nbrs:
            edges.append((i, pos[min(nbrs, key=pos.__getitem__)] + 1))
        else:
            roots.append(i)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(out, tuple(edges))


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


def write_td(td: TreeDecomposition, id_map: Mapping[int, int]) -> str:
    """PACE .td text; vertex ids are translated through id_map (1-based, contiguous)."""
    n = len(id_map)
    keys = sorted(td.bags)
    renum = {k: i + 1 for i, k in enumerate(keys)}
    lines = [f"s td {len(keys)} {max((len(td.bags[k]) for k in keys), default=0)} {n}"]
    for k in keys:
        body = " ".join(str(id_map[v]) for v in sorted(td.bags[k]))
        lines.append(f"b {renum[k]} {body}".rstrip())
    for (i, j) in td.edges:
        a, b = renum[i], renum[j]
        lines.append(f"{min(a, b)} {max(a, b)}")
    return "\n".join(lines) + "\n"


def read_td(text: str) -> TreeDecomposition:
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if line.startswith("s"):
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"line {lineno}: malformed .td header")
            header_seen = True
            continue
        try:
            if line.startswith("b"):
                bags[int(parts[1])] = frozenset(int(x) for x in parts[2:])
            else:
                i, j = map(int, parts)
                edges.append((i, j))
        except (IndexError, ValueError):
            raise ValueError(f"line {lineno}: malformed .td line {line!r}") from None
    if not header_seen:
        raise ValueError("missing 's td' header")
    return TreeDecomposition(bags, tuple(edges))
