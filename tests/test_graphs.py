import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount.formula import Assignment, Clause, CnfFormula, Literal, clause_of, formula_size, reduce
from twcount.generators import DetRng, gen_grid_formula, gen_random_cnf
from twcount.graphs import (
    Graph,
    InducedSubgraph,
    build_incidence,
    clause_vertex,
    dissolve_degree_two,
    find_isomorphism,
    is_clause_vertex,
    is_wall_subdivision,
    make_wall,
    read_gr,
    subdivided_wall_model,
    wall_vertex_id,
    write_gr,
)
from twcount.pace import read_td


def test_incidence_small():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    g = build_incidence(f)
    assert g.num_vertices() == 4
    assert g.num_edges() == 4
    assert g.has_edge(1, clause_vertex(2)) and g.has_edge(2, clause_vertex(1))
    # The graph is unsigned; polarity stays in the formula.
    assert Literal(1, False) in f.clauses_by_id[2].literals
    assert Literal(2, True) in f.clauses_by_id[1].literals


def test_incidence_size_identity():
    f = gen_grid_formula(3)
    g = build_incidence(f)
    assert g.num_vertices() == 21
    assert g.num_edges() == 24
    assert g.num_vertices() + g.num_edges() == formula_size(f) == 45


def test_incidence_empty():
    g = build_incidence(CnfFormula(()))
    assert g.num_vertices() == 0 and g.num_edges() == 0


def test_incidence_free_vars_isolated():
    f = CnfFormula((clause_of(1, 1),), free_vars=frozenset({5}))
    g = build_incidence(f)
    assert g.has_vertex(5) and g.degree(5) == 0


def ref_build_incidence(f):
    """The incidence graph built through add_vertex / add_edge and their checks."""
    g = Graph()
    for v in sorted(f.variables | f.free_vars):
        g.add_vertex(v)
    for c in f.clauses:
        cv = clause_vertex(c.id)
        if g.has_vertex(cv):
            raise ValueError(f"clause vertex {cv} is a variable vertex")
        g.add_vertex(cv)
        for lit in c.literals:
            g.add_edge(lit.var, cv)
    return g


@st.composite
def formulas_with_free_vars(draw):
    """Clauses over 1..n, some empty, ids in any order; unused ids up to n are free."""
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(1, 60), unique=True, max_size=14))
    clauses = []
    for cid in ids:
        vs = draw(st.lists(st.integers(1, n), unique=True, max_size=min(n, 5))) if n else []
        clauses.append(Clause(cid, tuple(Literal(v, draw(st.booleans())) for v in vs)))
    used = frozenset().union(*(c.variables for c in clauses))
    free = frozenset(range(1, n + 1)) - used
    return CnfFormula(tuple(clauses), frozenset(v for v in free if draw(st.booleans())))


@given(formulas_with_free_vars())
@settings(max_examples=200, deadline=None)
def test_build_incidence_matches_reference(f):
    g, ref = build_incidence(f), ref_build_incidence(f)
    # Same tables in the same insertion order, so every iteration order agrees.
    assert list(g._adj) == list(ref._adj)
    assert all(list(g._adj[v]) == list(ref._adj[v]) for v in ref._adj)
    assert g.num_edges() == ref.num_edges() == sum(len(c) for c in f.clauses)


def test_build_incidence_rejects_clause_vertex_on_a_variable():
    f = CnfFormula((clause_of(1 - clause_vertex(0), 1, 2),))  # clause vertex id 1
    for build in (build_incidence, ref_build_incidence):
        with pytest.raises(ValueError):
            build(f)


def test_make_wall_2():
    g, coords = make_wall(2)
    assert g.num_vertices() == 4
    assert g.num_edges() == 3
    assert len(coords.positions) == 4


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8])
def test_make_wall_shape(r):
    g, coords = make_wall(r)
    assert g.num_vertices() == r * r
    assert max(g.degree(v) for v in g.vertices()) <= 3
    assert g.degree(coords.vertex_at(1, 1)) == 2
    # adjacency matches the wall rule exactly
    for v in g.vertices():
        i, j = coords.positions[v]
        expected = set()
        for (i2, j2) in ((i - 1, j), (i + 1, j), (i, j + (-1) ** (i + j))):
            if 1 <= i2 <= r and 1 <= j2 <= r:
                expected.add(wall_vertex_id(r, i2, j2))
        assert g.neighbors(v) == expected


def test_make_wall_rejects_small():
    with pytest.raises(ValueError):
        make_wall(1)


def test_dissolve_path():
    g = Graph()
    for v in (1, 2, 3):
        g.add_vertex(v)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    h = dissolve_degree_two(g, protected={1, 3})
    assert set(h.vertices()) == {1, 3}
    assert h.has_edge(1, 3)


def test_dissolve_all_protected_is_identity():
    g, _ = make_wall(8)
    h = dissolve_degree_two(g, protected=set(g.vertices()))
    assert set(h.vertices()) == set(g.vertices())
    assert list(h.edges()) == list(g.edges())


def test_dissolve_subdivided_wall_restores_wall():
    model = subdivided_wall_model(4, extra=1)
    wall, _ = make_wall(4)
    h = dissolve_degree_two(model.host, protected=set(model.branch_vertices.values()))
    assert find_isomorphism(h, wall) is not None


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_dissolve_confluent_under_vertex_relabeling(seed):
    # relabeling changes the dissolution order; cores must stay isomorphic
    rng = DetRng(seed)
    model = subdivided_wall_model(3, extra=rng.randint(1, 3))
    g = model.host
    verts = g.sorted_vertices()
    shuffled = rng.sample(verts, len(verts))
    relabel = {v: 1000 + i for v, i in zip(shuffled, range(len(verts)))}
    h = Graph()
    for v in verts:
        h.add_vertex(relabel[v])
    for (u, v) in g.edges():
        h.add_edge(relabel[u], relabel[v])
    a = dissolve_degree_two(g)
    b = dissolve_degree_two(h)
    assert find_isomorphism(a, b) is not None


def test_is_wall_subdivision_identity():
    w4, _ = make_wall(4)
    ok, coords = is_wall_subdivision(w4, 4)
    assert ok
    assert len(coords.positions) == 16


def test_is_wall_subdivision_subdivided():
    model = subdivided_wall_model(4, extra=1)
    ok, coords = is_wall_subdivision(model.host, 4)
    assert ok
    assert len(coords.positions) == 16


def test_is_wall_subdivision_negative():
    k5 = Graph()
    for v in range(1, 6):
        k5.add_vertex(v)
    for a in range(1, 6):
        for b in range(a + 1, 6):
            k5.add_edge(a, b)
    assert is_wall_subdivision(k5, 2)[0] is False
    w4, _ = make_wall(4)
    assert is_wall_subdivision(w4, 5)[0] is False


def test_incidence_of_reduction_is_induced_subgraph():
    f = gen_random_cnf(8, 14, 3, 3)
    g = build_incidence(f)
    tau = Assignment({2: 1, 5: 0})
    gr = build_incidence(reduce(f, tau))
    for v in gr.vertices():
        assert g.has_vertex(v)
        assert v not in tau.domain
    for (u, v) in gr.edges():
        assert g.has_edge(u, v)
    # induced: every surviving pair adjacent in g stays adjacent
    vs = list(gr.vertices())
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.has_edge(u, v):
                assert gr.has_edge(u, v)


def ref_subgraph(g, keep):
    """Graph.subgraph as it was: a new Graph built edge by edge through
    add_vertex / add_edge and their checks."""
    kset = set(keep)
    h = Graph()
    for v in sorted(kset):
        if not g.has_vertex(v):
            raise ValueError(f"vertex {v} not in graph")
        h.add_vertex(v)
    for u, v in g.edges():
        if u in kset and v in kset:
            h.add_edge(u, v)
    return h


def sparse_random_graph(n, m, seed):
    """A random graph with n vertices on ids scattered over 1..5n and up to
    m edges."""
    rng = DetRng(seed)
    ids = rng.sample(range(1, 5 * n + 1), n)
    g = Graph()
    for v in ids:
        g.add_vertex(v)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    for a, b in rng.sample(pairs, min(m, len(pairs))):
        g.add_edge(a, b)
    return g


@given(st.integers(0, 25), st.integers(0, 80), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_subgraph_matches_reference(n, m, seed):
    # The induced subgraph on the parent's adjacency answers as the one
    # built edge by edge: vertices, edges, edge count, and a copy that is a
    # plain Graph. A subgraph of a subgraph, which builds its parent's
    # adjacency first, does too.
    g = sparse_random_graph(n, m, seed)
    rng = DetRng(seed + 1)
    keep = rng.sample(g.sorted_vertices(), rng.randint(0, n))
    sub, ref = g.subgraph(keep), ref_subgraph(g, keep)
    assert isinstance(sub, InducedSubgraph)
    for h in (sub, sub.copy()):
        assert set(h.vertices()) == set(ref.vertices())
        assert h.sorted_vertices() == ref.sorted_vertices()
        assert list(h.edges()) == list(ref.edges())
        assert h.num_vertices() == ref.num_vertices() and h.num_edges() == ref.num_edges()
    assert type(sub.copy()) is Graph
    inner = rng.sample(keep, rng.randint(0, len(keep)))
    assert list(sub.subgraph(inner).edges()) == list(ref_subgraph(ref, inner).edges())
    assert sub.subgraph(inner).num_edges() == ref_subgraph(ref, inner).num_edges()


def test_subgraph_rejects_a_vertex_outside_the_graph():
    g, _ = make_wall(3)
    for keep in ([1, 2, 10], [0], [5, 99, 100]):
        with pytest.raises(ValueError, match="not in graph"):
            g.subgraph(keep)
        with pytest.raises(ValueError, match="not in graph"):
            ref_subgraph(g, keep)
    with pytest.raises(ValueError, match="vertex 99 not in graph"):
        g.subgraph([1, 2]).subgraph([1, 99])


def petersen():
    """The Petersen graph: outer 5-cycle 0-4, inner pentagram 5-9, spokes."""
    g = Graph()
    for v in range(10):
        g.add_vertex(v)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
        g.add_edge(i, 5 + i)
    return g


def test_isomorphism_backtracks_where_refinement_cannot_tell():
    # Two triangles and a 6-cycle are both 2-regular on 6 vertices, so
    # colour refinement gives every vertex one colour and only the search
    # can tell them apart: it must try candidates, undo them and give up.
    two_triangles = read_gr("p tw 6 6\n1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n")
    c6 = read_gr("p tw 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")
    assert find_isomorphism(two_triangles, c6) is None
    assert find_isomorphism(c6, two_triangles) is None
    # The Petersen graph is vertex-transitive: refinement splits nothing,
    # and the search must map a seeded relabelling of it back edge for edge.
    g = petersen()
    for seed in range(5):
        rng = DetRng(seed)
        relabel = dict(zip(range(10), rng.sample(range(100, 200), 10)))
        h = Graph()
        for v in rng.sample(range(10), 10):
            h.add_vertex(relabel[v])
        for u, v in g.edges():
            h.add_edge(relabel[u], relabel[v])
        phi = find_isomorphism(g, h)
        assert phi is not None and sorted(phi.values()) == h.sorted_vertices()
        assert all(h.has_edge(phi[u], phi[v]) for u, v in g.edges())


def test_isomorphism_rejects_unequal_colour_classes():
    # Equal vertex and edge counts, but refinement splits the two graphs
    # into different colour classes (degrees 2, 2, 2, 0 against 3, 1, 1, 1).
    triangle_and_point = read_gr("p tw 4 3\n1 2\n2 3\n3 1\n")
    star = read_gr("p tw 4 3\n1 2\n1 3\n1 4\n")
    assert find_isomorphism(triangle_and_point, star) is None
    assert find_isomorphism(star, triangle_and_point) is None


def test_gr_roundtrip():
    g, _ = make_wall(4)
    text, id_map = write_gr(g)
    assert text.startswith("p tw 16 ")
    back = read_gr(text)
    assert back.num_vertices() == 16
    assert back.num_edges() == g.num_edges()
    assert find_isomorphism(back, g) is not None
    assert sorted(id_map.values()) == list(range(1, 17))


@pytest.mark.parametrize(
    "text",
    [
        "p tw 3 1\n1 2 3\n",
        "p tw 3 1\n1\n",
        "p tw 3 1\n1 x\n",
        "p tw x 1\n",
        "p tw 3 1\n1 4\n",
        "p tw 3 1\n1 1\n",
        "1 2\n",
    ],
    ids=["three-ids", "one-id", "non-integer-id", "non-integer-count", "id-above-n", "loop", "edge-before-header"],
)
def test_read_gr_rejects_malformed_lines(text):
    # Each raises ValueError naming the line, not a message from Python's
    # unpacking or Graph.add_edge.
    line = 1 + text.count("\n")
    with pytest.raises(ValueError, match=f"^line {line}: "):
        read_gr("c comment\n" + text)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_gr, "", "missing 'p tw' header"),
        (read_gr, "c a comment\n", "missing 'p tw' header"),
        (read_td, "", "missing 's td' header"),
        (read_td, "b 1 1 2\n", "missing 's td' header"),
    ],
    ids=["gr-empty", "gr-comment", "td-empty", "td-bag"],
)
def test_pace_readers_need_a_header(read, text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(text)


def test_clause_vertex_helpers():
    cv = clause_vertex(7)
    assert is_clause_vertex(cv)
    assert not is_clause_vertex(7)
