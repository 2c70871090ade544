import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount.backdoor import is_strong_backdoor
from twcount.counting import count_bruteforce, solve
from twcount.formula import Assignment, parse_dimacs, reduce, write_dimacs
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
    gen_wall_formula,
    grid_clause_orientations,
    wall_formula_model,
)
from twcount.graphs import build_incidence, is_wall_subdivision
from twcount.treewidth import degeneracy, exact_treewidth


def test_grid_counts():
    f3 = gen_grid_formula(3)
    assert len(f3.variables) == 9
    assert len(f3.clauses) == 12
    f2 = gen_grid_formula(2)
    assert len(f2.variables) == 4 and len(f2.clauses) == 4
    with pytest.raises(ValueError):
        gen_grid_formula(1)


def test_grid_orientations_cover_clauses():
    o = grid_clause_orientations(3)
    assert len(o) == 12
    assert sum(1 for v in o.values() if v == "horizontal") == 6


def test_grid_treewidth_lower():
    w, _ = exact_treewidth(build_incidence(gen_grid_formula(4)))
    assert w >= 4


def test_grid_x_reductions_acyclic():
    f = gen_grid_formula_x(3)
    for val in (0, 1):
        g = build_incidence(reduce(f, Assignment({10: val})))
        assert degeneracy(g) <= 1  # forest


def test_grid_x_strong_backdoor():
    for n in range(2, 6):
        f = gen_grid_formula_x(n)
        assert is_strong_backdoor(f, {n * n + 1}, 1).valid


def test_grid_x_contains_grid_incidence():
    for n in range(2, 7):
        g = build_incidence(gen_grid_formula(n))
        gx = build_incidence(gen_grid_formula_x(n))
        for v in g.vertices():
            assert gx.has_vertex(v)
        for (u, v) in g.edges():
            assert gx.has_edge(u, v)


def test_model_counts():
    assert count_bruteforce(gen_grid_formula(3)) == 63
    assert count_bruteforce(gen_grid_formula_x(3)) == 250


def test_random_cnf_shape():
    f = gen_random_cnf(10, 30, 3, 7)
    assert len(f.clauses) == 30
    assert all(len(c) == 3 for c in f.clauses)
    assert gen_random_cnf(0, 0, 0, 1).num_vars == 0
    with pytest.raises(ValueError):
        gen_random_cnf(2, 1, 3, 0)


def test_random_cnf_deterministic():
    a = gen_random_cnf(10, 30, 3, 7)
    b = gen_random_cnf(10, 30, 3, 7)
    assert a == b
    assert write_dimacs(a) == write_dimacs(b)
    assert a != gen_random_cnf(10, 30, 3, 8)


def test_planted_empty_plant():
    f, planted = gen_planted(6, 1, 0, 3)
    assert planted == frozenset()
    assert is_strong_backdoor(f, planted, 1).valid


@given(st.integers(0, 800))
@settings(max_examples=50, deadline=None)
def test_planted_is_valid_strong_backdoor(seed):
    rng = DetRng(seed)
    f, planted = gen_planted(rng.randint(4, 10), 1, rng.randint(1, 3), seed)
    assert is_strong_backdoor(f, planted, 1).valid


def test_planted_deterministic():
    assert gen_planted(8, 1, 2, 5) == gen_planted(8, 1, 2, 5)


def test_planted_window_construction():
    f, planted = gen_planted(8, 2, 1, 4)
    assert is_strong_backdoor(f, planted, 2).valid


def test_planted_declares_unused_base_variables_free():
    # Base variables 1 and 4 occur in no clause. The DIMACS header declares
    # them, so the in-memory formula has them free too, and both count 4320.
    f, planted = gen_planted(20, 2, 1, 2)
    assert f.free_vars == {1, 4} and planted == {21}
    text = write_dimacs(f)
    assert text.startswith("p cnf 21 ")
    assert solve(f, 2, 1, tw_threshold=2).count == 4320
    assert solve(parse_dimacs(text), 2, 1, tw_threshold=2).count == 4320
    assert count_bruteforce(f) == 4320


def test_wall_formula_is_subdivision():
    f = gen_wall_formula(4)
    g = build_incidence(f)
    ok, _ = is_wall_subdivision(g, 4)
    assert ok


def test_wall_formula_model_paths():
    f, model = wall_formula_model(4)
    assert model.r == 4
    for (a, b), path in model.paths.items():
        assert len(path) == 3  # var, clause, var
        g = model.host
        for x, y in zip(path, path[1:]):
            assert g.has_edge(x, y)


def test_rng_is_stable():
    a, b = DetRng(42), DetRng(42)
    assert [a.randint(0, 99) for _ in range(5)] == [b.randint(0, 99) for _ in range(5)]
    assert DetRng(42).randint(0, 99) != DetRng(43).randint(0, 99)
    with pytest.raises(ValueError):
        DetRng(0).sample([1, 2], 3)
