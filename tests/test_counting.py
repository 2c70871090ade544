import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twcount import backdoor, counting, formula, graphs, pace, treewidth
from twcount.backdoor import (
    InconclusiveTreewidth,
    approx_backdoor,
    find_smallest_strong_backdoor,
    is_strong_backdoor,
)
from twcount.cli import main
from twcount.counting import (
    BackdoorInvalidError,
    DP_TABLE_CAP,
    SMALL_MESSAGE_BITS,
    TableBudgetExceeded,
    VariableCapExceeded,
    _run_dp,
    _spread_to,
    backdoor_branch_counts,
    count_bruteforce,
    count_td,
    count_via_backdoor,
    solve,
    solve_by_backdoor,
)
from twcount.formula import Assignment, Clause, CnfFormula, assignments, clause_of, reduce, write_dimacs
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
)
from twcount.graphs import build_incidence, clause_id, clause_vertex, is_clause_vertex, write_gr
from twcount.treewidth import (
    AT_MOST,
    DEFAULT_VERTEX_CAP,
    UNKNOWN,
    Elimination,
    TreeDecomposition,
    TwVerdict,
    _elimination_of,
    exact_treewidth,
    read_td,
    upper_bound_heuristic,
    validate_decomposition,
    write_td,
)
from bench_copies import WORKLOADS, pass0, solve_copy
from test_treewidth import elimination_from_order


def td_of(f):
    return upper_bound_heuristic(build_incidence(f))[1].decomposition()


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
    # 2^23 pure-Python iterations would take minutes: the cap is 22.
    with pytest.raises(VariableCapExceeded):
        count_bruteforce(CnfFormula((), free_vars=frozenset(range(1, 24))))


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


def test_many_components_count_in_subquadratic_time():
    # 500000 free variables, each a component of its own whose factor is 2.
    # Multiplied into a running product, the count costs time quadratic in
    # its length (4.3 s on a 2-vCPU host); pairwise rounds take 0.2 s there.
    n = 500_000
    f = CnfFormula((), free_vars=frozenset(range(1, n + 1)))
    elimination = Elimination(list(range(1, n + 1)), [frozenset()] * n)
    start = time.perf_counter()
    count = _run_dp(f, elimination)
    assert time.perf_counter() - start < 2
    assert count == 1 << n


def test_td_counts_free_vars():
    f = CnfFormula((clause_of(1, 1),), free_vars=frozenset({4, 5}))
    assert count_td(f, td_of(f)) == 4


def test_td_table_budget_checked_before_allocation():
    n = DP_TABLE_CAP.bit_length()  # one vertex more than the widest table allowed
    f = CnfFormula((), free_vars=frozenset(range(1, n + 1)))
    with pytest.raises(TableBudgetExceeded):
        count_td(f, TreeDecomposition({1: frozenset(range(1, n + 1))}, ()))
    assert count_td(f, td_of(f)) == 1 << n


def test_td_table_budget_checked_before_the_bag_cliques():
    # One bag of 3000 free variables: count_td refuses it from td.width,
    # before the 3000-clique the min-fill game would be played on is built.
    n = 3000
    f = CnfFormula((), free_vars=frozenset(range(1, n + 1)))
    td = TreeDecomposition({1: frozenset(range(1, n + 1))}, ())
    tracemalloc.start()
    try:
        with pytest.raises(TableBudgetExceeded):
            count_td(f, td)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 24  # validation's; a 3000-clique's sets take hundreds of MB


@pytest.mark.parametrize("foreign", [3, clause_vertex(2)], ids=["variable", "clause"])
def test_td_rejects_a_vertex_outside_the_incidence_graph(foreign):
    # Counted as a bag vertex, a foreign variable would double the count and
    # a foreign clause would zero it.
    f = CnfFormula((clause_of(1, 1, 2),))
    td = td_of(f)
    bad = TreeDecomposition({**td.bags, 1: td.bags[1] | {foreign}}, td.edges)
    assert validate_decomposition(build_incidence(f), bad).violations == (("vertex-foreign", foreign),)
    with pytest.raises(ValueError, match="vertex-foreign"):
        count_td(f, bad)
    assert count_td(f, td) == 3


def test_td_table_budget_checked_before_any_bucket():
    f = gen_random_cnf(120, 300, 3, 0)
    elimination = upper_bound_heuristic(build_incidence(f))[1]
    assert elimination.width == 65
    tracemalloc.start()
    try:
        with pytest.raises(TableBudgetExceeded):
            _run_dp(f, elimination)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no bucket's table was built


def test_solve_searches_a_root_too_wide_for_the_table_budget():
    # At these thresholds the root is AtMost on an elimination whose tables
    # would need 2^29 and 2^66 entries: solve goes on to the search, as for
    # a root above the threshold, instead of raising TableBudgetExceeded.
    f = gen_grid_formula_x(18)
    width = upper_bound_heuristic(build_incidence(f))[1].width
    assert 1 << (width + 1) > DP_TABLE_CAP
    res = solve(f, 1, 1, tw_threshold=width)
    assert (res.outcome, res.mode, res.backdoor) == ("counted", "backdoor", (325,))
    assert res.count == solve(f, 1, 1, tw_threshold=1).count
    f = gen_random_cnf(120, 300, 3, 0)
    res = solve(f, 1, 1, tw_threshold=65)
    assert res.outcome == "sb_exceeded"
    assert res == solve_by_backdoor(f, 1, 1, tw_threshold=65)


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


def random_formula_and_set(seed):
    """A small random formula, a random subset of its variables and t = 1 or 2."""
    rng = DetRng(seed)
    n = rng.randint(3, 8)
    f = gen_random_cnf(n, rng.randint(2, 2 * n + 2), rng.randint(2, 3), seed)
    vs = sorted(f.variables)
    return f, frozenset(rng.sample(vs, rng.randint(0, min(4, len(vs))))), 1 + seed % 2


@given(st.integers(0, 10_000).map(random_formula_and_set))
@example((gen_grid_formula(3), {1}, 1))
# x4 = 0 satisfies the triangle, x4 = 1 leaves it: the second branch fails.
@example((CnfFormula((clause_of(1, 1, 2, -4), clause_of(2, 2, 3, -4), clause_of(3, 3, 1, -4))), {4}, 1))
@settings(max_examples=60, deadline=None)
def test_via_backdoor_rejects_invalid(case):
    # Both run the one branch enumerator; the counts verify the set just as
    # is_strong_backdoor does, and fail on the same assignment and bound.
    f, b, t = case
    report = is_strong_backdoor(f, b, t)
    try:
        branches = backdoor_branch_counts(f, b, t)
    except BackdoorInvalidError as exc:
        assert not report.valid
        assert exc.assignment == report.failing_assignment
        assert exc.bound == report.failing_bound
    else:
        assert report.valid
        assert [br.assignment for br in branches] == list(assignments(b))
        assert all(br.width <= t for br in branches)
        assert sum((1 << br.vanished) * br.count for br in branches) == count_bruteforce(f)


def test_undecided_branch_is_inconclusive(monkeypatch, capsys, tmp_path):
    f = gen_grid_formula_x(3)
    full = build_incidence(f).num_vertices()
    # Every width query reaches the ladder through the solve's oracle, which
    # calls it under backdoor's name.
    query = treewidth.treewidth_at_most

    def undecided_branches(g, t, vertex_cap=DEFAULT_VERTEX_CAP):
        # inc(F) itself is decided; every reduction of it is left Unknown.
        if g.num_vertices() == full:
            return query(g, t, vertex_cap)
        return TwVerdict(UNKNOWN, t)

    monkeypatch.setattr(backdoor, "treewidth_at_most", undecided_branches)
    with pytest.raises(InconclusiveTreewidth):
        count_via_backdoor(f, {10}, 1)
    res = solve(f, 1, 1, tw_threshold=1)
    assert res.outcome == "inconclusive" and res.count is None
    p = tmp_path / "f3x.cnf"
    p.write_text(write_dimacs(f))
    for mode in ("auto", "backdoor"):
        assert main(["count", str(p), "--t", "1", "--k", "1", "--tw-threshold", "1",
                     "--mode", mode]) == 4
        assert '"verdict": "inconclusive"' in capsys.readouterr().out


def test_via_backdoor_two_variables():
    f = gen_grid_formula_x(3)
    assert count_via_backdoor(f, {10, 1}, 2) == 250


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


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_solve_matches_bruteforce_and_backdoors_verify(seed):
    # approx_backdoor does not re-check the union it reports, and solve counts
    # only the search tree's branches: this property stands in for that check.
    rng = DetRng(seed)
    n, k = rng.randint(4, 9), rng.randint(1, 2)
    if seed % 2:
        f, _ = gen_planted(n, 1, k, seed)
    else:
        f = gen_random_cnf(n, rng.randint(n, 2 * n + 2), rng.randint(2, 3), seed)
    report = approx_backdoor(f, 1, k, tw_threshold=1)
    if report is not None:
        assert is_strong_backdoor(f, report.variables, 1).valid
    res = solve(f, 1, k, tw_threshold=1)
    if res.mode == "td":
        assert res.count == count_bruteforce(f)
    elif res.outcome == "sb_exceeded":
        # the paper's claim (1): no strong backdoor of size at most k exists
        assert find_smallest_strong_backdoor(f, 1, k) is None
    else:
        assert res.outcome == "counted" and res.backdoor == report.variables
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
    # decides width <= 10 above the default cap. The search then asks at t:
    # width above 1 is proven, and the search finds no strong backdoor of size 1.
    f = gen_random_cnf(40, 55, 3, 0)
    res = solve(f, 1, 1, tw_threshold=10)
    assert res.outcome == "sb_exceeded"
    assert res.count is None
    # At t = 8 no rung decides either, so the caps really bit.
    res = solve(f, 8, 1, tw_threshold=10)
    assert res.outcome == "inconclusive"
    assert res.count is None


@pytest.mark.parametrize("n", range(7, 13))
def test_solve_asks_at_t_when_the_threshold_is_undecided(n):
    # Above the exact cap the root's width <= 8 is undecided (min-fill width
    # above 8 on n >= 7), so the search asks at t = 1, where the width is
    # decided above 1, and branches on the switch variable.
    res = solve(gen_grid_formula_x(n), 1, 1, tw_threshold=8, vertex_cap=64)
    assert (res.outcome, res.mode, res.backdoor) == ("counted", "backdoor", (n * n + 1,))
    fib = [0, 1]
    while len(fib) < n + 3:
        fib.append(fib[-1] + fib[-2])
    assert res.count == 2 * fib[n + 2] ** n


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


# ---------------------------------------------------------------------------
# the per-solve width oracle


class LadderLog:
    """Wraps the width ladder, which the solve's oracle calls under backdoor's
    name, build_incidence and the witness shrink in the module that calls
    them, the oracle's reduction and induction of vertex sets,
    `formula.reduce`, the copies of the oracle's induced subgraphs and
    `Graph.adjacency`, and logs each (vertex set, t) the ladder is asked
    about and the graph it was asked on. Witness shrink trials for t >= 3
    ask `treewidth.treewidth_at_most` about subgraphs of their own from
    inside `treewidth.witness`, so they are neither logged nor counted."""

    def __init__(self, mp: pytest.MonkeyPatch):
        self.asked: list[tuple[frozenset[int], int]] = []
        self.graphs: list[graphs.Graph] = []  # the graph of each ladder call, with its edge count
        self.reduced = 0  # the oracle's reductions of a vertex set
        self.formula_reductions = 0  # calls of formula.reduce: none on the solve path
        self.roots: list[graphs.Graph] = []  # build_incidence, once per oracle
        self.induced: set[graphs.InducedSubgraph] = set()  # the oracle's
        self.copies = 0  # adjacencies of the oracle's induced subgraphs built
        self.adjacency_copies = 0  # Graph.adjacency copies, of any graph
        self.ladder_copies: list[int] = []  # copies of either kind made inside each ladder call
        self.witness_copies: list[int] = []  # copies of either kind made inside each witness shrink
        self.witness_graphs = 0  # witness shrinks on an induced subgraph, not on inc(F)
        induced_class = graphs.InducedSubgraph
        induce, adjacency = induced_class._induce, graphs.Graph.adjacency

        def copied():
            return self.copies + self.adjacency_copies

        def build(f):
            self.roots.append(graphs.build_incidence(f))
            return self.roots[-1]

        def vertex_set(g):
            return g._keep if isinstance(g, induced_class) else frozenset(g.vertices())

        def ladder(g, t, vertex_cap=DEFAULT_VERTEX_CAP):
            self.asked.append((vertex_set(g), t))
            self.graphs.append(g)
            before = copied()
            verdict = treewidth.treewidth_at_most(g, t, vertex_cap)
            self.ladder_copies.append(copied() - before)
            return verdict

        def counted_induced(oracle, alive):
            g = induced(oracle, alive)
            if isinstance(g, induced_class):
                self.induced.add(g)
            return g

        def counted_induce(g):
            self.copies += g in self.induced
            return induce(g)

        def counted_adjacency(g):
            self.adjacency_copies += 1
            return adjacency(g)

        def counted_reduced(oracle, alive, tau):
            self.reduced += 1
            return reduced(oracle, alive, tau)

        def counted_formula_reduce(f, tau):
            self.formula_reductions += 1
            return formula_reduce(f, tau)

        def counted_witness(g, t, vertex_cap):
            self.witness_graphs += isinstance(g, induced_class)
            before = copied()
            w = treewidth.witness(g, t, vertex_cap)
            self.witness_copies.append(copied() - before)
            return w

        reduced, induced, formula_reduce = backdoor._Oracle.reduced, backdoor._Oracle.induced, formula.reduce
        mp.setattr(backdoor, "build_incidence", build)
        mp.setattr(backdoor, "treewidth_at_most", ladder)
        mp.setattr(backdoor, "witness", counted_witness)
        mp.setattr(backdoor._Oracle, "reduced", counted_reduced)
        mp.setattr(backdoor._Oracle, "induced", counted_induced)
        mp.setattr(formula, "reduce", counted_formula_reduce)
        mp.setattr(induced_class, "_induce", counted_induce)
        mp.setattr(graphs.Graph, "adjacency", counted_adjacency)

    def repeats(self) -> list:
        seen: set = set()
        out = []
        for key in self.asked:
            if key in seen:
                out.append(key)
            seen.add(key)
        return out

    def assert_graphs_serve_the_ladder(self) -> None:
        """One root graph is built, and no formula is reduced. Every ladder
        call and every witness shrink but those on inc(F) gets a subgraph
        the oracle induced for it, which the call copies at most once; so
        the copies are at most the induced graphs plus the off-root ladder
        calls."""
        assert len(self.roots) == 1 and not self.formula_reductions
        root = frozenset(self.roots[0].vertices())
        off_root = sum(alive != root for alive, _ in self.asked)
        assert len(self.induced) == off_root + self.witness_graphs
        assert max(self.ladder_copies + self.witness_copies, default=0) <= 1
        assert self.copies <= len(self.induced) + off_root


def logged(run):
    """run() under a LadderLog: its result (None if a width query was left
    undecided) and the log."""
    with pytest.MonkeyPatch.context() as mp:
        log = LadderLog(mp)
        try:
            result = run()
        except InconclusiveTreewidth:
            result = None
    return result, log


def assert_each_query_once(f, t, k, tw_threshold):
    expected = solve(f, t, k, tw_threshold=tw_threshold)
    res, log = logged(lambda: solve(f, t, k, tw_threshold=tw_threshold))
    assert res == expected
    assert log.asked and not log.repeats()
    log.assert_graphs_serve_the_ladder()
    return log


def assert_count_is_the_search(f, t, k, tw_threshold):
    """solve_by_backdoor reduces, induces and asks the ladder exactly as
    often as approx_backdoor on the same arguments: the search's checks are
    the count. Returns the result and the count's log."""
    res, counted = logged(lambda: counting.solve_by_backdoor(f, t, k, tw_threshold=tw_threshold))
    report, searched = logged(lambda: approx_backdoor(f, t, k, tw_threshold=tw_threshold))
    assert res.backdoor == (None if report is None else report.variables)
    calls = [(log.reduced, len(log.induced), log.copies, len(log.asked)) for log in (counted, searched)]
    assert calls[0] == calls[1]
    counted.assert_graphs_serve_the_ladder()
    return res, counted


# The base instances of the benchmark's grid-switch and planted workloads
# (perfbench/suite.py), as (formula, t, k, tw_threshold).
def grid_switch_bases():
    return [(gen_grid_formula_x(n), 1, 1, 1) for n in range(6, 13)]


def planted_bases():
    return [
        (gen_planted(n, t, k, s)[0], t, k, t)
        for t, bases, ks in ((1, (40, 50, 60), (1, 2, 3, 4)), (2, (12, 16, 20), (1, 2, 3)))
        for n, s in zip(bases, (0, 1, 2))
        for k in ks
    ]


@pytest.mark.parametrize("bases", [grid_switch_bases, planted_bases])
def test_solve_decides_each_reduction_once_on_bench_bases(bases):
    for f, t, k, threshold in bases():
        assert_each_query_once(f, t, k, threshold)


@pytest.mark.parametrize("workload, misses", [("grid-switch", 23), ("planted", 270)])
def test_bench_pass_decides_each_reduction_once(workload, misses):
    # The benchmark's seed-1 pass-0 copies, solved as it solves them, under
    # one log. Each (vertex set, t) is a ladder miss once, on one graph:
    # inc(F) once per solve, and otherwise an induced subgraph of its own.
    copies = pass0(workload)
    with pytest.MonkeyPatch.context() as mp:
        log = LadderLog(mp)
        for spec, text in copies:
            solve_copy(spec, text)
    assert len(log.asked) == len(set(log.asked)) == misses
    off_root = [g for g in log.graphs if isinstance(g, graphs.InducedSubgraph)]
    assert len(log.roots) == len(copies) and len(log.asked) == len(off_root) + len(log.roots)
    assert len({id(g) for g in off_root}) == len(off_root) <= len(log.induced)
    assert not log.formula_reductions and not hasattr(CnfFormula, "packed")
    # A graph of width at most t on n > t vertices has at most
    # t*n - t(t+1)/2 edges; a t <= 2 miss above that copies no adjacency.
    dense = [
        made
        for (alive, t), g, made in zip(log.asked, log.graphs, log.ladder_copies)
        if t <= 2 and len(alive) > t and g.num_edges() > t * len(alive) - t * (t + 1) // 2
    ]
    assert dense and not any(dense)


def random_solve_instance(seed):
    """A planted or random formula with its t in 1..3 and k in 1..3, and the
    rng that drew them."""
    rng = DetRng(seed)
    t = 1 + seed % 3
    n, k = rng.randint(5, 8 if t == 3 else 10), rng.randint(1, 3)
    if seed % 2:
        f, _ = gen_planted(n, t, k, seed)
    else:
        f = gen_random_cnf(n, rng.randint(n, 2 * n + 2), rng.randint(2, 3), seed)
    return f, t, k, rng


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_solve_decides_each_reduction_once(seed):
    f, t, k, rng = random_solve_instance(seed)
    assert_each_query_once(f, t, k, t + rng.choice((0, 0, 1)))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_count_is_the_search(seed):
    f, t, k, _ = random_solve_instance(seed)
    for threshold in (t, t + 1):
        assert_count_is_the_search(f, t, k, threshold)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_shared_oracle_matches_unshared_composition(seed):
    # solve_by_backdoor sums the branches its search's checks counted on one
    # oracle; the public functions called one after the other share nothing.
    rng = DetRng(seed)
    t = 1 + seed % 3
    n, k = rng.randint(5, 8 if t == 3 else 10), rng.randint(1, 3)
    threshold = t + rng.choice((0, 0, 1))
    if seed % 2:
        f, _ = gen_planted(n, t, k, seed)
    else:
        f = gen_random_cnf(n, rng.randint(n, 2 * n + 2), rng.randint(2, 3), seed)
    res = counting.solve_by_backdoor(f, t, k, tw_threshold=threshold)
    report = approx_backdoor(f, t, k, tw_threshold=threshold)
    if report is None:
        assert res.outcome == "sb_exceeded"
        return
    branches = backdoor_branch_counts(f, report.variables, t)
    assert res.outcome == "counted"
    assert res.backdoor == report.variables
    assert res.count == sum((1 << br.vanished) * br.count for br in branches)
    assert all(w <= t for w in res.branch_widths)
    assert len(res.branch_widths) <= 2 ** len(res.backdoor)


def test_t0_solves_equal_bruteforce():
    # At t = 0 a leaf branch must leave no edge: every clause satisfied or
    # emptied. Whatever solve counts is the brute-force count, and both a
    # count and a conclusive negative occur.
    outcomes = Counter()
    for seed in range(180):
        rng = DetRng(seed)
        n = rng.randint(3, 9)
        f = gen_random_cnf(n, rng.randint(1, 2 * n), rng.randint(1, 3), seed)
        res = solve(f, 0, rng.randint(0, 3), tw_threshold=0)
        outcomes[res.outcome] += 1
        if res.outcome == "counted":
            assert res.count == count_bruteforce(f), seed
    assert outcomes["counted"] and outcomes["sb_exceeded"]
    assert outcomes["counted"] + outcomes["sb_exceeded"] == 180


def test_solve_counts_the_search_tree_leaves(monkeypatch):
    # The search tree has 15 leaf branches under a backdoor of 5 variables.
    # Counting them needs neither the 2^5 assignments of the union nor a
    # reduction or width query of the count's own: the search's checks
    # counted every branch, so solve_by_backdoor reduces, induces and runs
    # the ladder exactly as often as the search alone, and each t = 1
    # witness shrink finds its cycle on a subgraph induced for it without
    # building its adjacency.
    f, _ = gen_planted(60, 1, 4, 2)
    res = solve(f, 1, 4, tw_threshold=1)
    assert res.outcome == "counted" and res.mode == "backdoor"
    assert len(res.backdoor) == 5 and len(res.branch_widths) == 15
    assert res.count == count_via_backdoor(f, res.backdoor, 1)

    counted, log = assert_count_is_the_search(f, 1, 4, 1)
    assert counted == res
    assert log.asked and log.witness_graphs and not any(log.witness_copies)
    # The check cap bounds the search's own sets, not the union.
    monkeypatch.setattr(backdoor, "STRONG_CHECK_CAP", 4)
    assert counting.solve_by_backdoor(f, 1, 4, tw_threshold=1) == res


def assert_dp_runs_only_for_counts(f, t, k, tw_threshold):
    """Solve with the DP and the ladder wrapped: the DP runs on f, once per
    distinct AtMost miss at t and at most once more, for a root counted
    directly above t; no oracle entry keeps an elimination."""
    expected = solve(f, t, k, tw_threshold=tw_threshold)
    dp_runs: list[tuple[CnfFormula, frozenset[int], int]] = []
    at_most_misses = 0
    oracles = []
    oracle_class = backdoor._Oracle

    def dp(fr, elimination):
        dp_runs.append((fr, frozenset(elimination.order), elimination.width))
        return _run_dp(fr, elimination)

    def ladder(g, tq, vertex_cap=DEFAULT_VERTEX_CAP):
        verdict = treewidth.treewidth_at_most(g, tq, vertex_cap)
        nonlocal at_most_misses
        at_most_misses += tq == t and verdict.kind == AT_MOST
        return verdict

    def make_oracle(*args):
        oracles.append(oracle_class(*args))
        return oracles[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_run_dp", dp)
        mp.setattr(backdoor, "treewidth_at_most", ladder)
        mp.setattr(backdoor, "_Oracle", make_oracle)
        res = solve(f, t, k, tw_threshold=tw_threshold)
    assert res == expected
    root_above_t = res.mode == "td" and tw_threshold > t
    assert len(dp_runs) == at_most_misses + root_above_t
    (oracle,) = oracles
    assert all(fr is f for fr, _, _ in dp_runs)
    keys = [alive for _, alive, _ in dp_runs]
    assert len(set(keys)) == len(keys)
    assert all(width <= t for _, alive, width in dp_runs if not (root_above_t and alive == oracle.root))
    for (_, tq), (kind, bound, count) in oracle._verdicts.items():
        assert isinstance(kind, str) and isinstance(bound, int)
        assert (count is not None) == (kind == AT_MOST and tq == t)
        assert count is None or isinstance(count, int)
    return res


def test_dp_runs_only_for_counts_on_grid_switch_above_threshold():
    # inc(F) is wider than the threshold 4; the search leaves are decided at
    # the threshold and counted at t = 1, and the DP never sees width 4.
    res = assert_dp_runs_only_for_counts(gen_grid_formula_x(12), 1, 1, 4)
    assert (res.outcome, res.mode, res.backdoor) == ("counted", "backdoor", (145,))
    assert res.count == 16486413873426357287751077221442


@pytest.mark.parametrize(
    "make, t, k, tw_threshold",
    [
        (lambda: gen_grid_formula_x(8), 1, 1, 1),
        (lambda: gen_planted(40, 1, 2, 0)[0], 1, 2, 1),
    ],
    ids=["grid-x n=8", "planted 40 1 2 0"],
)
def test_oracle_keys_each_reduction_on_its_vertex_set(make, t, k, tw_threshold):
    # The oracle asks about some vertex sets more than once (the witness
    # re-ask, the size-0 branch check on the node itself), and runs the
    # ladder once per distinct (set, t). The set is the key: no formula is
    # reduced or packed on the way.
    expected = solve(make(), t, k, tw_threshold=tw_threshold)
    f = make()
    asked: list[tuple[frozenset[int], int]] = []
    verdict = backdoor._Oracle.verdict

    def recorded_verdict(oracle, alive, tq):
        asked.append((alive, tq))
        return verdict(oracle, alive, tq)

    with pytest.MonkeyPatch.context() as mp:
        log = LadderLog(mp)
        mp.setattr(backdoor._Oracle, "verdict", recorded_verdict)
        res = solve(f, t, k, tw_threshold=tw_threshold)
    assert res == expected and res.outcome == "counted"
    assert len(asked) > len(set(asked)) == len(log.asked)
    assert set(asked) == set(log.asked)
    assert not log.formula_reductions and not hasattr(CnfFormula, "packed")
    log.assert_graphs_serve_the_ladder()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dp_runs_only_for_counts(seed):
    f, t, k, _ = random_solve_instance(seed)
    assert_dp_runs_only_for_counts(f, t, k, t + 1)


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


# ---------------------------------------------------------------------------
# Reference oracle: the dict-keyed DP over a nice tree decomposition, with a
# clause bit meaning "already satisfied from below", kept verbatim in
# behaviour. The dense bag-level DP must give the same counts on every
# decomposition. The tree is built recursively, so keep inputs shallow.


@dataclass(eq=False)
class _NiceNode:
    kind: str  # leaf / introduce_var / introduce_cla / forget_var / forget_cla / join
    bag_vars: tuple[int, ...]
    bag_clas: tuple[int, ...]
    vertex: int | None = None
    children: tuple["_NiceNode", ...] = ()


def _split_bag(bag):
    vs = tuple(sorted(v for v in bag if not is_clause_vertex(v)))
    cs = tuple(sorted(v for v in bag if is_clause_vertex(v)))
    return vs, cs


def _chain(node, current, target):
    """Forget current-minus-target, then introduce target-minus-current."""
    cur = set(current)
    for v in sorted(cur - target):
        cur.remove(v)
        kind = "forget_cla" if is_clause_vertex(v) else "forget_var"
        node = _NiceNode(kind, *_split_bag(cur), vertex=v, children=(node,))
    for v in sorted(target - cur):
        cur.add(v)
        kind = "introduce_cla" if is_clause_vertex(v) else "introduce_var"
        node = _NiceNode(kind, *_split_bag(cur), vertex=v, children=(node,))
    return node


def _sign(f, x, cv):
    """Polarity of variable x in the clause of vertex cv, None if absent."""
    return next((lit.positive for lit in f.clauses_by_id[clause_id(cv)].literals if lit.var == x), None)


def _nice_tree(td):
    if not td.bags:
        return _NiceNode("leaf", (), ())
    nbrs = {i: [] for i in td.bags}
    for (i, j) in td.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    root_id = min(td.bags)

    def build(i, parent):
        bag = set(td.bags[i])
        kids = sorted(j for j in nbrs[i] if j != parent)
        if not kids:
            return _chain(_NiceNode("leaf", (), ()), set(), bag)
        subs = [_chain(build(j, i), set(td.bags[j]), bag) for j in kids]
        node = subs[0]
        for s in subs[1:]:
            node = _NiceNode("join", *_split_bag(bag), children=(node, s))
        return node

    top = build(root_id, None)
    return _chain(top, set(td.bags[root_id]), set())


def _insert_bit(mask, pos, bit):
    low = mask & ((1 << pos) - 1)
    return ((mask >> pos) << (pos + 1)) | (bit << pos) | low


def _remove_bit(mask, pos):
    low = mask & ((1 << pos) - 1)
    return ((mask >> (pos + 1)) << pos) | low


def ref_run_dp(f, td):
    root = _nice_tree(td)
    postorder = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            postorder.append(node)
        else:
            stack.append((node, True))
            for ch in node.children:
                stack.append((ch, False))
    tables = {}
    for node in postorder:
        if node.kind == "leaf":
            t = {(0, 0): 1}
        elif node.kind == "join":
            t1 = tables.pop(id(node.children[0]))
            t2 = tables.pop(id(node.children[1]))
            by_alpha = {}
            for (a, s), v in t2.items():
                by_alpha.setdefault(a, []).append((s, v))
            t = {}
            for (a, s1), v1 in t1.items():
                for s2, v2 in by_alpha.get(a, ()):
                    key = (a, s1 | s2)
                    t[key] = t.get(key, 0) + v1 * v2
        elif node.kind == "introduce_var":
            tc = tables.pop(id(node.children[0]))
            x = node.vertex
            xi = node.bag_vars.index(x)
            sat_true = sat_false = 0
            for ci, cv in enumerate(node.bag_clas):
                sign = _sign(f, x, cv)
                if sign is True:
                    sat_true |= 1 << ci
                elif sign is False:
                    sat_false |= 1 << ci
            t = {}
            for (a, s), v in tc.items():
                for val, extra in ((0, sat_false), (1, sat_true)):
                    key = (_insert_bit(a, xi, val), s | extra)
                    t[key] = t.get(key, 0) + v
        elif node.kind == "introduce_cla":
            tc = tables.pop(id(node.children[0]))
            c = node.vertex
            ci = node.bag_clas.index(c)
            pos_idx = []
            neg_idx = []
            for vi, x in enumerate(node.bag_vars):
                sign = _sign(f, x, c)
                if sign is True:
                    pos_idx.append(vi)
                elif sign is False:
                    neg_idx.append(vi)
            t = {}
            for (a, s), v in tc.items():
                sat = any((a >> i) & 1 for i in pos_idx) or any(
                    not ((a >> i) & 1) for i in neg_idx
                )
                key = (a, _insert_bit(s, ci, 1 if sat else 0))
                t[key] = t.get(key, 0) + v
        elif node.kind == "forget_var":
            child = node.children[0]
            tc = tables.pop(id(child))
            xi = child.bag_vars.index(node.vertex)
            t = {}
            for (a, s), v in tc.items():
                key = (_remove_bit(a, xi), s)
                t[key] = t.get(key, 0) + v
        else:  # forget_cla
            child = node.children[0]
            tc = tables.pop(id(child))
            ci = child.bag_clas.index(node.vertex)
            t = {}
            for (a, s), v in tc.items():
                if (s >> ci) & 1:
                    key = (a, _remove_bit(s, ci))
                    t[key] = t.get(key, 0) + v
        tables[id(node)] = t
    return tables[id(root)].get((0, 0), 0)


# ---------------------------------------------------------------------------
# Reference oracle: the dense bag-level DP that spread every child table to
# the whole bag, one bit at a time, and multiplied the tables pointwise. Same
# clause-bit form as counting._run_dp, but one table per bag, its bits in
# vertex-id order, and each child table folded at any bit position.


def _fold(t, p, op):
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


def _dense_spread(t, p):
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


def _dense_zero(t, a, va, b, vb):
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


def _dense_to_bag(t, have, bag):
    """Bring a table over the sorted vertices `have` to the sorted `bag`."""
    keep = set(bag)
    for p in reversed(range(len(have))):
        if have[p] not in keep:
            t = _fold(t, p, sub if is_clause_vertex(have[p]) else add)
    kept = set(have)
    for p, v in enumerate(bag):
        if v not in kept:
            t = _dense_spread(t, p)
    return t


def ref_dense_dp(f, td):
    """Each child table is brought to the bag by forgetting the vertices the
    bag lacks and introducing those the child lacks (a leaf starts from [1]);
    the children are multiplied, and the edges of the bag that no child bag
    holds are zeroed. Forgetting the root bag leaves the count."""
    if not td.bags:
        return 1
    nbrs = {i: [] for i in td.bags}
    for i, j in td.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    root = min(td.bags)
    order = []
    children = {}
    stack = [root]
    seen = {root}
    while stack:
        i = stack.pop()
        order.append(i)
        children[i] = kids = [j for j in nbrs[i] if j not in seen]
        seen.update(kids)
        stack.extend(kids)
    tables = {}
    for i in reversed(order):
        bag = sorted(td.bags[i])
        kid_bags = [td.bags[j] for j in children[i]]
        t = None
        for j in children[i]:
            ct = _dense_to_bag(tables.pop(j), sorted(td.bags[j]), bag)
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
                        _dense_zero(t, px, vx, pc, 1)
                    else:
                        _dense_zero(t, pc, 1, px, vx)
        tables[i] = t
    return _dense_to_bag(tables.pop(root), sorted(td.bags[root]), [])[0]


# ---------------------------------------------------------------------------
# Reference oracle: the tree-walk DP that bucket elimination replaced. It
# walks the bags children first, folds each child's table to a message over
# the vertices it shares with its bag, applies the message in place (sub-cube
# by sub-cube when small), and zeroes each edge in the highest bag holding
# both its ends. Same table layout as ref_dense_dp.


def _message(t, bag, keep):
    """Fold a table over the sorted `bag` down to the vertices `keep` indexes;
    returns the message and the positions in `keep` that its bits stand for."""
    at = []
    for p in reversed(range(len(bag))):
        v = bag[p]
        if v in keep:
            at.append(keep[v])
        else:
            t = _fold(t, p, sub if is_clause_vertex(v) else add)
    at.reverse()
    return t, at


def ref_tree_dp(f, td):
    if not td.bags:
        return 1
    nbrs = {i: [] for i in td.bags}
    for i, j in td.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    root = min(td.bags)
    order = []
    children = {}
    parent = {root: None}
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        children[i] = kids = [j for j in nbrs[i] if j not in parent]
        parent.update(dict.fromkeys(kids, i))
        stack.extend(kids)
    bags = {i: sorted(bag) for i, bag in td.bags.items()}
    index = {i: {v: p for p, v in enumerate(bag)} for i, bag in bags.items()}
    tables = {}
    for i in reversed(order):
        bag, pos = bags[i], index[i]
        up = index.get(parent[i], {})  # the root has no parent bag
        n = len(bag)
        t = None
        small = []
        for j in children[i]:
            m, at = _message(tables.pop(j), bags[j], pos)
            if len(at) <= SMALL_MESSAGE_BITS < n:
                small.append((m, at))
                continue
            if len(at) < n:
                m = _spread_to(m, at, n)
            t = m if t is None else list(map(mul, t, m))
        if t is None:
            t = [1] * (1 << n)
        for m, at in small:
            offs = [0]
            for p in at:
                offs += [o | 1 << p for o in offs]
            for off, v in zip(offs, m):
                if v != 1:
                    ref_scale(t, n, at, off, v)
        for c in bag:
            if not is_clause_vertex(c):
                continue
            c_up = c in up
            for lit in f.clauses_by_id[clause_id(c)].literals:
                x = lit.var
                if x in pos and not (c_up and x in up):
                    px, pc = pos[x], pos[c]
                    edge = [px, pc] if px < pc else [pc, px]
                    ref_scale(t, n, edge, lit.positive << px | 1 << pc, 0)
        tables[i] = t
    count, _ = _message(tables.pop(root), bags[root], {})
    return count[0]


# A reference bucket DP with the tables of `_run_dp`, written plainly: every
# bucket of at most SMALL_MESSAGE_BITS vertices, one or two included, read
# through index lists built here, one position dict per bucket, a keyed sort
# of every scope, and each sub-cube's slicing recomputed for every entry it
# scales.


def ref_pick(k, at):
    """For each entry of a table over k bits, the index of the entry of a
    message whose bits stand for the positions in the bitmask `at`."""
    ps = [p for p in range(k) if at >> p & 1]
    return [sum((e >> p & 1) << i for i, p in enumerate(ps)) for e in range(1 << k)]


REF_PICK = [[ref_pick(k, at) for at in range(1 << k)] for k in range(SMALL_MESSAGE_BITS + 1)]
REF_ZEROS = [
    {q: [[e for e in range(1 << k) if e & 1 == b & 1 and bool(e & q) == b >> 1] for b in range(4)]
     for q in (1 << p for p in range(1, k))}
    for k in range(SMALL_MESSAGE_BITS + 1)
]


def ref_scale(t, n, at, off, v):
    """Multiply by v, in place, the entries of t (over n bits) whose bits at
    the sorted positions `at` equal those of off (which has no other bits)."""
    lo = run_lo = run = 0
    for p in (*at, n):
        if p - lo > run:
            run_lo, run = lo, p - lo
        lo = p + 1
    starts = [off]
    lo = 0
    for p in (*at, n):
        if p > lo and lo != run_lo:
            starts = [s + k for k in range(0, 1 << p, 1 << lo) for s in starts]
        lo = p + 1
    step = 1 << run_lo
    span = step << run
    if v == 0:
        z = [0] * (1 << run)
        for s in starts:
            t[s : s + span : step] = z
    else:
        for s in starts:
            t[s : s + span : step] = [v * x for x in t[s : s + span : step]]


def ref_bucket_dp(f, elimination):
    # elimination covers the vertices of inc(F[tau]): a clause it does not
    # cover is satisfied, a variable it does not cover is assigned.
    rank = {v: r for r, v in enumerate(elimination.order)}
    edges = {}
    for c in f.clauses:
        cv = graphs.clause_vertex(c.id)
        if cv not in rank:
            continue
        rc = rank[cv]
        for lit in c.lits:
            x = abs(lit)
            if x not in rank:
                continue
            if rank[x] > rc:
                edges.setdefault(cv, []).append((x, lit > 0, 1))
            else:
                edges.setdefault(x, []).append((cv, 1, lit > 0))
    inbox = {}
    count = 1
    for v, nbrs in zip(*elimination):
        s = [v, *sorted(nbrs, key=rank.__getitem__)]
        n = len(s)
        got = inbox.pop(v, ())
        if n <= SMALL_MESSAGE_BITS:
            bit = {w: 1 << p for p, w in enumerate(s)}
            picks = REF_PICK[n]
            t = None
            for m, ws in got:
                col = map(m.__getitem__, picks[sum(map(bit.__getitem__, ws))])
                t = list(col) if t is None else list(map(mul, t, col))
            if t is None:
                t = [1] * (1 << n)
            zeros = REF_ZEROS[n]
            for w, bw, bv in edges.get(v, ()):
                for e in zeros[bit[w]][bv | bw << 1]:
                    t[e] = 0
        else:
            pos = {w: p for p, w in enumerate(s)}
            t = None
            small = []
            for m, ws in got:
                at = [pos[w] for w in ws]
                if len(at) <= SMALL_MESSAGE_BITS:
                    small.append((m, at))
                    continue
                if len(at) < n:
                    m = _spread_to(m, at, n)
                t = m if t is None else list(map(mul, t, m))
            if t is None:
                t = [1] * (1 << n)
            for m, at in small:
                offs = [0]
                for p in at:
                    offs += [o | 1 << p for o in offs]
                for off, x in zip(offs, m):
                    if x != 1:
                        ref_scale(t, n, at, off, x)
            for w, bw, bv in edges.get(v, ()):
                p = pos[w]
                ref_scale(t, n, [0, p], bv | bw << p, 0)
        m = list(map(sub if is_clause_vertex(v) else add, t[::2], t[1::2]))
        if n == 1:
            count *= m[0]
        else:
            inbox.setdefault(s[1], []).append((m, s[1:]))
    return count


# ---------------------------------------------------------------------------
# The DP against the reference oracles and brute force, on formulas with
# empty, unit and repeated clauses and free variables, and on decompositions
# min-fill does not produce.


@st.composite
def small_formulas(draw, n_max=7, max_len=3):
    n = draw(st.integers(1, n_max))
    clause_lits = st.lists(st.integers(1, n), max_size=max_len, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    raw = draw(st.lists(clause_lits, max_size=9))
    if raw:
        raw += draw(st.lists(st.sampled_from(raw), max_size=2))  # repeated clauses
    used = {abs(x) for lits in raw for x in lits}
    free = draw(st.sets(st.integers(1, n + 2))) - used
    clauses = tuple(clause_of(i, *lits) for i, lits in enumerate(raw, start=1))
    return CnfFormula(clauses, frozenset(free))


def clauses_first(g):
    """The elimination game on every clause vertex first, then on the
    variables by degree: clause leaves {c} + vars(c) hang off wider variable
    bags."""
    adj = g.adjacency()
    clauses = sorted(v for v in adj if is_clause_vertex(v))
    variables = sorted((v for v in adj if not is_clause_vertex(v)), key=lambda v: (len(adj[v]), v))
    return elimination_from_order(g, clauses + variables).decomposition()


def decompositions(g):
    """Min-fill, clauses first, exact, one bag, a PACE round trip, a
    duplicated leaf bag, and min-fill numbered backwards, which
    `ref_elimination_of` roots at the bag of min-fill's first vertex."""
    td = upper_bound_heuristic(g)[1].decomposition()
    yield td
    yield clauses_first(g)
    yield exact_treewidth(g)[1].decomposition()
    yield TreeDecomposition({1: frozenset(g.vertices())}, ())
    _, id_map = write_gr(g)
    back = {i: v for v, i in id_map.items()}
    pace = read_td(write_td(td, id_map))
    yield TreeDecomposition(
        {i: frozenset(back[v] for v in bag) for i, bag in pace.bags.items()}, pace.edges
    )
    if not td.bags:  # the empty graph: min-fill's elimination describes no bag
        return
    last = max(td.bags)
    yield TreeDecomposition({**td.bags, last + 1: td.bags[last]}, td.edges + ((last, last + 1),))
    yield TreeDecomposition(
        {last + 1 - i: bag for i, bag in td.bags.items()},
        tuple((last + 1 - i, last + 1 - j) for i, j in td.edges),
    )


def ref_elimination_of(td):
    """The elimination a decomposition describes, as `count_td` once read it:
    each vertex td covers, in forget order, with the vertices of its
    bucket's scope other than itself.

    td is rooted at its highest-numbered bag and walked children first. A
    vertex is forgotten at the bag nearest the root holding it, and its
    scope is that bag minus the vertices forgotten before it.
    """
    bags = td.bags
    if not bags:
        return Elimination([], [])
    adj = {i: [] for i in bags}
    for i, j in td.edges:
        adj[i].append(j)
        adj[j].append(i)
    root = max(bags)
    walk = []
    up = {}  # each bag's neighbour toward the root
    stack = [root]
    while stack:
        i = stack.pop()
        walk.append(i)
        kids = [j for j in adj[i] if j not in up and j != root]
        up.update(dict.fromkeys(kids, i))
        stack.extend(kids)
    walk.reverse()
    order, nbrs = [], []
    for i in walk:
        scope = bags[i]
        gone = scope - bags[up[i]] if i in up else scope
        for v in sorted(gone):
            scope = scope - {v}
            order.append(v)
            nbrs.append(scope)
    return Elimination(order, nbrs)


@given(small_formulas(n_max=8, max_len=4))
@settings(max_examples=150, deadline=None)
def test_elimination_of_matches_the_forget_order_walk(f):
    # The min-fill game on the bag cliques adds no fill: its width is the
    # decomposition's, which the walk's forget order also has, and the DP
    # counts the same on both, for every shape of decomposition.
    g = build_incidence(f)
    for td in decompositions(g):
        elimination, ref = _elimination_of(td), ref_elimination_of(td)
        assert elimination.width == ref.width == td.width
        assert sorted(elimination.order) == sorted(ref.order) == sorted(g.vertices())
        assert _run_dp(f, elimination) == _run_dp(f, ref) == ref_bucket_dp(f, ref)


@given(small_formulas())
@settings(max_examples=150, deadline=None)
def test_dense_dp_matches_reference(f):
    g = build_incidence(f)
    expected = count_bruteforce(f)
    for td in decompositions(g):
        assert ref_run_dp(f, td) == expected
        assert ref_dense_dp(f, td) == expected
        assert ref_tree_dp(f, td) == expected
        assert ref_bucket_dp(f, _elimination_of(td)) == expected
        assert _run_dp(f, _elimination_of(td)) == expected
        assert count_td(f, td) == expected


@given(small_formulas(n_max=8, max_len=5))
@example(CnfFormula((clause_of(1, 1, -2, 3, -4, 5), clause_of(2, -1, 6)), frozenset({9})))
@example(CnfFormula((clause_of(1, 1, 2, 3), clause_of(2, -3, 4, -5), Clause(3, ()))))
@settings(max_examples=150, deadline=None)
def test_small_bucket_boundary(f):
    # Clauses of up to 5 literals give buckets of 1 to 6 vertices, on both
    # sides of SMALL_MESSAGE_BITS. Empty clauses and free variables give
    # buckets of one vertex, whose message multiplies into the count. Both
    # decompositions come from an elimination order, so the forget-order walk
    # makes each nonempty bag the scope of exactly one bucket.
    g = build_incidence(f)
    expected = count_bruteforce(f)
    tds = [upper_bound_heuristic(g)[1].decomposition()]
    verdict = treewidth.treewidth_at_most(g, 2)
    if verdict.kind == AT_MOST:
        tds.append(verdict.elimination.decomposition())
    for td in tds:
        walked = ref_elimination_of(td)
        scopes = Counter(frozenset(nbrs) | {v} for v, nbrs in zip(*walked))
        assert scopes == Counter(filter(None, td.bags.values()))
        for elimination in (_elimination_of(td), walked):
            assert _run_dp(f, elimination) == ref_bucket_dp(f, elimination) == expected


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_dp_matches_dense_reference_beyond_brute_force(seed):
    # Widths 7-13 on min-fill and clauses-first decompositions, out of brute
    # force's reach: bags wide enough that small messages and edges are
    # applied sub-cube by sub-cube.
    n = DetRng(seed).randint(20, 35)
    f = gen_random_cnf(n, n + n // 4, 3, seed)
    g = build_incidence(f)
    for td in (upper_bound_heuristic(g)[1].decomposition(), clauses_first(g)):
        elimination = _elimination_of(td)
        expected = ref_dense_dp(f, td)
        assert _run_dp(f, elimination) == ref_bucket_dp(f, elimination) == expected == ref_tree_dp(f, td)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dp_equals_the_reference_on_the_bench_pass(monkeypatch, workload):
    # Every elimination the benchmark's seed-1 pass 0 counts, as the solve
    # hands it to the DP. grid-switch counts only forests: buckets of at
    # most 2 vertices.
    copies = pass0(workload)
    runs = []

    def recorded(f, elimination):
        count = _run_dp(f, elimination)
        runs.append((f, elimination, count))
        return count

    monkeypatch.setattr(counting, "_run_dp", recorded)
    for spec, text in copies:
        solve_copy(spec, text)
    assert runs
    for f, elimination, count in runs:
        assert count == ref_bucket_dp(f, elimination)
    buckets = max(len(nbrs) + 1 for _, elimination, _ in runs for nbrs in elimination.nbrs)
    assert workload != "grid-switch" or buckets <= 2


def test_one_sub_cube_plan_per_message(monkeypatch):
    # A wide bucket plans the slicing of a small message's sub-cubes once
    # for the message, and an edge's once for the edge, not once per entry.
    f = gen_random_cnf(30, 40, 3, 2)
    width, elimination = upper_bound_heuristic(build_incidence(f))
    assert width == 10
    rank = {v: r for r, v in enumerate(elimination.order)}
    edges = Counter()
    for c in f.clauses:
        cv = graphs.clause_vertex(c.id)
        for x in map(abs, c.lits):
            edges[min(cv, x, key=rank.__getitem__)] += 1
    received = {v: [] for v in elimination.order}
    for v, nbrs in zip(*elimination):
        if nbrs:
            received[min(nbrs, key=rank.__getitem__)].append(len(nbrs))
    expected = sum(
        sum(size <= SMALL_MESSAGE_BITS for size in received[v]) + edges[v]
        for v, nbrs in zip(*elimination)
        if len(nbrs) >= SMALL_MESSAGE_BITS
    )
    plans, scaled = [], []
    plan, scale = counting._plan, counting._scale
    monkeypatch.setattr(counting, "_plan", lambda n, at: plans.append(n) or plan(n, at))
    monkeypatch.setattr(counting, "_scale", lambda *args: scaled.append(args[2]) or scale(*args))
    assert _run_dp(f, elimination) == ref_bucket_dp(f, elimination)
    assert len(plans) == expected < len(scaled)


def formula_of(*clauses):
    return CnfFormula(tuple(clause_of(i, *lits) for i, lits in enumerate(clauses, start=1)))


@given(small_formulas(n_max=8, max_len=4), st.integers(0, 3))
# Four-int buckets {v, w} of the t <= 2 reduction's elimination, each
# zeroing its edge to w. At t = 1 they get messages over [v] alone, with v a
# clause and a variable and the edge negative, then positive. At t = 2 one
# gets a message over [v, w] from a three-vertex bucket, with v a clause and
# w negative, then positive in it, then v a variable positive, then
# negative in w.
@example(formula_of((-1, -2), (-1,)), 1)
@example(formula_of((1, 2), (2,)), 1)
@example(formula_of((-2,), (-3, -1, 2), (2, -3, -1)), 2)
@example(formula_of((3,), (1, 4, 3), (1, 3, -4)), 2)
@example(formula_of((1, 2), (1, 2), (-1,)), 2)
@example(formula_of((-1, -2), (-2, -1), (-1, -2), (2,)), 2)
@settings(max_examples=150, deadline=None)
def test_dp_on_the_ladder_elimination(f, t):
    # The ladder's AtMost verdict is counted on its elimination as it
    # stands; the decomposition derived from it validates and gives the
    # reference DPs the same count. t = 3 stands for the min-fill rung: at
    # the min-fill width (or 3) every query it reaches is decided there.
    g = build_incidence(f)
    if t == 3:
        t = max(3, upper_bound_heuristic(g)[0])
    verdict = treewidth.treewidth_at_most(g, t)
    if verdict.kind != AT_MOST:
        return
    td = verdict.elimination.decomposition()
    assert validate_decomposition(g, td).ok
    assert td.width == verdict.bound == verdict.elimination.width <= t
    count = _run_dp(f, verdict.elimination)
    assert count == count_bruteforce(f) == ref_tree_dp(f, td) == ref_bucket_dp(f, verdict.elimination)


def recorded_lookups(table, reads):
    """A copy of the index-list table that appends each key it is read at to reads."""

    class Recorded(type(table)):
        def __getitem__(self, k):
            reads.append(k)
            return super().__getitem__(k)

    return Recorded(table)


def test_width_one_elimination_reads_no_index_list(monkeypatch):
    # Every bucket of a width-1 elimination has at most two vertices and is
    # counted on scalars: the pick and zero lists of the wider buckets are
    # never read. The same recorders see a width-2 cycle's three-vertex
    # buckets read them.
    reads = []
    for name in ("_PICK", "_ZEROS"):
        monkeypatch.setattr(counting, name, recorded_lookups(getattr(counting, name), reads))
    f = gen_grid_formula_x(8)
    for value in (0, 1):
        fr = reduce(f, Assignment({65: value}))
        verdict = treewidth.treewidth_at_most(build_incidence(fr), 1)
        assert verdict.kind == AT_MOST and verdict.elimination.width == 1
        assert _run_dp(fr, verdict.elimination) == ref_bucket_dp(fr, verdict.elimination)
    assert reads == []
    cycle = formula_of((1, 2), (2, 3), (1, -3))
    elimination = treewidth.treewidth_at_most(build_incidence(cycle), 2).elimination
    assert elimination.width == 2
    assert _run_dp(cycle, elimination) == count_bruteforce(cycle)
    assert reads


@pytest.mark.parametrize(
    "f, t, k, threshold, mode, backdoor, count",
    [
        # t <= 2: every branch is counted on the reduction's own elimination.
        (gen_grid_formula_x(8), 1, 1, 1, "backdoor", (65,), 167467875781250),
        # A deep t = 2 search tree of 16 leaves; the count is also that of
        # perfbench/check.py's independent counter.
        (gen_planted(40, 2, 4, 3)[0], 2, 4, 2, "backdoor", (12, 20, 28, 34, 41, 42, 43, 44), 439812052992),
        # The root at the threshold, decided by min-fill (width 10).
        (gen_random_cnf(30, 40, 3, 2), 1, 1, 16, "td", None, 4510606),
        # The same rung at min-fill width 13.
        (gen_random_cnf(20, 60, 3, 4), 1, 1, 16, "td", None, 294),
        # The root at the threshold, decided under the cap by the exact
        # search: degeneracy 2, contraction bound 4, treewidth 5, min-fill
        # width 6.
        (gen_random_cnf(10, 12, 3, 2), 1, 1, 5, "td", None, 127),
    ],
    ids=["reduction", "deep_t2", "min_fill", "min_fill_13", "exact"],
)
def test_low_width_solve_builds_no_decomposition(monkeypatch, f, t, k, threshold, mode, backdoor, count):
    # Every rung that decides AtMost hands the DP its own game's
    # elimination: no tree decomposition is built anywhere in the solve.
    expected = count_td(f, td_of(f))  # taken before _decomposition is patched

    def no_decomposition(*args):
        raise AssertionError("a tree decomposition was built")

    monkeypatch.setattr(pace, "_decomposition", no_decomposition)
    res = solve(f, t, k, tw_threshold=threshold, vertex_cap=64)
    assert (res.outcome, res.mode, res.backdoor) == ("counted", mode, backdoor)
    assert res.count == expected == count
