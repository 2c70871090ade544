import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount.counting import (
    BackdoorInvalidError,
    VariableCapExceeded,
    backdoor_branch_counts,
    count_bruteforce,
    count_td,
    count_via_backdoor,
    solve,
)
from twcount.formula import Assignment, Clause, CnfFormula, clause_of, reduce
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
)
from twcount.graphs import build_incidence
from twcount.treewidth import TreeDecomposition, upper_bound_heuristic


def td_of(f):
    return upper_bound_heuristic(build_incidence(f))[1]


def test_brute_empty():
    assert count_bruteforce(CnfFormula(())) == 1


def test_brute_small():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    assert count_bruteforce(f) == 2


def test_brute_grid():
    assert count_bruteforce(gen_grid_formula(3)) == 63
    assert count_bruteforce(gen_grid_formula_x(3)) == 250


def test_brute_cap():
    f = CnfFormula((), free_vars=frozenset(range(1, 40)))
    with pytest.raises(VariableCapExceeded):
        count_bruteforce(f)


def test_brute_zero_literal_clause():
    f = CnfFormula((Clause(1, ()), clause_of(2, 1)))
    assert count_bruteforce(f) == 0


def test_td_forced_unit():
    f = CnfFormula((clause_of(1, 1),))
    assert count_td(f, td_of(f)) == 1


def test_td_small():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    assert count_td(f, td_of(f)) == 2


def test_td_grid_x_reduction():
    f = reduce(gen_grid_formula_x(3), Assignment({10: 1}))
    td = td_of(f)
    assert td.width <= 1
    assert count_td(f, td) == 125


def test_td_rejects_invalid_decomposition():
    f = CnfFormula((clause_of(1, 1, 2),))
    bad = TreeDecomposition({1: frozenset({1})}, ())
    with pytest.raises(ValueError):
        count_td(f, bad)


def test_td_zero_literal_clause():
    f = CnfFormula((Clause(1, ()), clause_of(2, 1)))
    assert count_td(f, td_of(f)) == 0


def test_td_counts_free_vars():
    f = CnfFormula((clause_of(1, 1),), free_vars=frozenset({4, 5}))
    assert count_td(f, td_of(f)) == 4


def test_via_backdoor_d_factor():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 1, -2)))
    branches = backdoor_branch_counts(f, {1}, 1)
    by_val = {br.assignment[1]: br for br in branches}
    assert by_val[1].vanished == 1 and by_val[1].count == 1
    assert by_val[0].vanished == 0 and by_val[0].count == 0
    assert count_via_backdoor(f, {1}, 1) == 2


def test_via_backdoor_grid_x():
    assert count_via_backdoor(gen_grid_formula_x(3), {10}, 1) == 250


def test_via_backdoor_empty_set_in_class():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 2, 3)))  # path incidence
    assert count_via_backdoor(f, set(), 1) == count_bruteforce(f) == 5


def test_via_backdoor_rejects_invalid():
    f = gen_grid_formula(3)
    with pytest.raises(BackdoorInvalidError):
        count_via_backdoor(f, {1}, 1)


def test_via_backdoor_parallel_jobs():
    f = gen_grid_formula_x(3)
    assert count_via_backdoor(f, {10, 1}, 2, jobs=2) == 250


def test_branch_sum_order_independent():
    from twcount.generators import gen_planted

    f, planted = gen_planted(8, 1, 2, 11)
    branches = backdoor_branch_counts(f, planted, 1)
    total = sum((1 << b.vanished) * b.count for b in branches)
    rng = DetRng(5)
    shuffled = rng.sample(branches, len(branches))
    assert sum((1 << b.vanished) * b.count for b in shuffled) == total
    assert total == count_bruteforce(f)


def test_solve_paths():
    res = solve(gen_grid_formula_x(3), 1, 1, tw_threshold=1)
    assert res.outcome == "counted" and res.count == 250 and res.mode == "backdoor"
    assert res.backdoor == (10,)
    res = solve(gen_grid_formula(3), 1, 0, tw_threshold=1)
    assert res.outcome == "sb_exceeded"
    # forest incidence goes straight to the decomposition path
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 2, 3)))
    res = solve(f, 1, 0, tw_threshold=1)
    assert res.outcome == "counted" and res.mode == "td"
    assert res.count == count_bruteforce(f)


def test_solve_default_threshold_counts_directly():
    res = solve(gen_grid_formula(3), 1, 0)
    assert res.outcome == "counted" and res.mode == "td" and res.count == 63


def test_solve_notes_zero_literal_clause():
    f = CnfFormula((Clause(1, ()), clause_of(2, 1)))
    res = solve(f, 1, 1)
    assert res.count == 0
    assert res.note is not None


def test_solve_inconclusive_above_caps():
    from twcount.generators import gen_wall_formula

    f = gen_wall_formula(6)  # 78 incidence vertices, contraction bound above 2
    res = solve(f, 2, 1, tw_threshold=2, vertex_cap=10)
    assert res.outcome == "sb_exceeded"
    assert res.count is None
    # 95 incidence vertices, contraction bound 8, min-fill width 15: no rung
    # decides width <= 10 above the default cap.
    res = solve(gen_random_cnf(40, 55, 3, 0), 1, 1, tw_threshold=10)
    assert res.outcome == "inconclusive"
    assert res.count is None


@pytest.mark.parametrize("seed", [1, 2])
def test_planted_above_cap_counted(seed):
    f, planted = gen_planted(30, 2, 2, seed)  # 80 and 88 incidence vertices
    res = solve(f, 2, 2, tw_threshold=2, vertex_cap=64)
    assert res.outcome == "counted" and res.mode == "backdoor"
    direct = solve(f, 2, 2, tw_threshold=4, vertex_cap=64)
    assert direct.mode == "td"
    assert res.count == direct.count


def test_planted_t3_counted_quickly():
    f, _ = gen_planted(16, 3, 2, 2)
    start = time.perf_counter()
    res = solve(f, 3, 2, tw_threshold=3, vertex_cap=64)
    assert time.perf_counter() - start < 5
    assert res.outcome == "counted" and res.mode == "backdoor"
    direct = solve(f, 3, 2, tw_threshold=5, vertex_cap=64)
    assert direct.mode == "td"
    assert res.count == direct.count


@given(st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_td_equals_bruteforce(seed):
    rng = DetRng(seed)
    n = rng.randint(2, 10)
    m = rng.randint(1, 2 * n)
    width = rng.randint(1, min(3, n))
    f = gen_random_cnf(n, m, width, seed)
    assert count_td(f, td_of(f)) == count_bruteforce(f)


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_fresh_free_variable_doubles_counts(seed):
    f = gen_random_cnf(7, 10, 3, seed)
    fresh = f.num_vars + 1
    doubled = CnfFormula(f.clauses, f.free_vars | {fresh})
    assert count_bruteforce(doubled) == 2 * count_bruteforce(f)
    assert count_td(doubled, td_of(doubled)) == 2 * count_td(f, td_of(f))


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_fresh_free_variable_doubles_backdoor_count(seed):
    from twcount.generators import gen_planted

    f, planted = gen_planted(6, 1, 1, seed)
    fresh = f.num_vars + 1
    doubled = CnfFormula(f.clauses, f.free_vars | {fresh})
    assert count_via_backdoor(doubled, planted, 1) == 2 * count_via_backdoor(f, planted, 1)
