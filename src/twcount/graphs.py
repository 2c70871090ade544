"""Undirected graphs and incidence graphs.

Graphs are built once and then treated as immutable; every public operation
returns a new graph. The incidence graph inc(F) is unsigned: a variable is
adjacent to the clauses it occurs in, and literal polarity stays in F. Clause
vertices live at a fixed id offset from variable vertices, so a vertex's id
says which it is and both stay stable across reductions.

Walls, subdivision checks and isomorphism live in `walls`, and .gr I/O in
`pace`; a solve loads neither. Their names are still importable from here,
through a module `__getattr__` (`_moved_names`).
"""

from __future__ import annotations

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
        adj[cv] = set(c.variables)
        for v in c.variables:
            adj[v].add(cv)
        edges += len(c.lits)
    g._num_edges = edges
    return g


def _moved_names(namespace: dict, homes: Mapping[str, str]):
    """A module `__getattr__` (PEP 562) for the module whose globals are
    namespace: each name in homes is imported from the sibling module
    homes[name], where it now lives, on first use, and then cached in
    namespace; any other name raises AttributeError."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(__import__(f"{namespace['__package__']}.{home}", fromlist=[name]), name)
        return value

    return __getattr__


# The wall, isomorphism and .gr names live in walls and pace; they are still
# importable from here, and a solve loads neither module.
__getattr__ = _moved_names(
    globals(),
    {
        **dict.fromkeys(
            (
                "WallCoordinates", "WallModel", "dissolve_degree_two", "find_isomorphism", "identity_wall_model",
                "is_wall_subdivision", "make_wall", "subdivided_wall_model", "wall_edges", "wall_vertex_id",
            ),
            "walls",
        ),
        **dict.fromkeys(("read_gr", "write_gr"), "pace"),
    },
)
