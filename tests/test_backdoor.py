from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount import backdoor
from twcount import treewidth as tw
from twcount.backdoor import (
    approx_backdoor,
    extract_witness,
    find_smallest_strong_backdoor,
    is_deletion_backdoor,
    is_strong_backdoor,
    killer_set,
)
from twcount.counting import _run_dp, count_bruteforce, count_via_backdoor, solve, solve_by_backdoor
from twcount.formula import Assignment, Clause, CnfFormula, FormulaError, assignments, clause_of, reduce
from twcount.generators import DetRng, gen_grid_formula, gen_grid_formula_x, gen_planted, gen_random_cnf
from twcount.graphs import build_incidence, clause_vertex
from twcount.treewidth import (
    AT_MOST,
    DEFAULT_VERTEX_CAP,
    EXCEEDS,
    UNKNOWN,
    Elimination,
    TwVerdict,
    degeneracy,
    exact_treewidth,
    minor_min_width,
    treewidth_at_most,
    upper_bound_heuristic,
)
from test_treewidth import ref_core_vertices, ref_find_cycle


def exhaustive_smallest(f, t, k_max):
    """Independent oracle: try every variable subset of size at most k_max."""
    for size in range(k_max + 1):
        for combo in combinations(sorted(f.variables), size):
            ok = True
            for tau in assignments(set(combo)):
                verdict = treewidth_at_most(build_incidence(reduce(f, tau)), t)
                if verdict.kind != "at_most":
                    ok = False
                    break
            if ok:
                return frozenset(combo)
    return None


def test_strong_backdoor_grid_x():
    assert is_strong_backdoor(gen_grid_formula_x(3), {10}, 1).valid
    rep = is_strong_backdoor(gen_grid_formula_x(3), set(), 1)
    assert not rep.valid
    assert rep.failing_assignment == Assignment()


def test_strong_backdoor_vacuous_in_class():
    f = CnfFormula((clause_of(1, 1, 2),))
    assert is_strong_backdoor(f, set(), 1).valid


def test_strong_backdoor_rejects_foreign_vars():
    f = CnfFormula((clause_of(1, 1, 2),), free_vars=frozenset({9}))
    with pytest.raises(FormulaError):
        is_strong_backdoor(f, {9}, 1)


def test_assignments_to_undeclared_variables_rejected():
    # As `reduce` does; a free variable may be set.
    f = CnfFormula((clause_of(1, 1, 2),), free_vars=frozenset({9}))
    with pytest.raises(FormulaError):
        extract_witness(f, Assignment({7: 1}), 1)
    with pytest.raises(FormulaError):
        count_via_backdoor(f, {7}, 1)
    assert count_via_backdoor(f, {9}, 1) == count_bruteforce(f) == 6


@pytest.mark.parametrize(
    "entry",
    [
        lambda f: solve(f, -1, 1),
        lambda f: solve_by_backdoor(f, -1, 1),
        lambda f: approx_backdoor(f, -1, 1),
        lambda f: find_smallest_strong_backdoor(f, -1, 1),
        lambda f: is_strong_backdoor(f, {10}, -1),
        lambda f: is_deletion_backdoor(f, {10}, -1),
        lambda f: extract_witness(f, Assignment(), -1),
        lambda f: count_via_backdoor(f, {10}, -1),
    ],
    ids=[
        "solve", "solve_by_backdoor", "approx_backdoor", "find_smallest_strong_backdoor",
        "is_strong_backdoor", "is_deletion_backdoor", "extract_witness", "count_via_backdoor",
    ],
)
def test_every_entry_that_takes_t_rejects_a_negative_t(entry):
    with pytest.raises(FormulaError, match="t must be at least 0, got -1"):
        entry(gen_grid_formula_x(3))


def test_deletion_backdoor_examples():
    rep = is_deletion_backdoor(gen_grid_formula_x(3), {10}, 1)
    assert not rep.valid  # deleting the switch leaves the full grid
    cyc = CnfFormula((clause_of(1, 1, 2), clause_of(2, 2, 3), clause_of(3, 3, 1)))
    assert is_deletion_backdoor(cyc, {1}, 1).valid
    assert is_deletion_backdoor(CnfFormula((clause_of(1, 1, 2),)), set(), 1).valid


def test_killer_set_signs():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    w = {2, clause_vertex(1), clause_vertex(2)}
    ks = killer_set(f, w)
    assert ks.internal == (2,)
    assert ks.external == (1,)


def test_killer_set_needs_both_signs():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 1, 3)))
    w = {2, 3, clause_vertex(1), clause_vertex(2)}
    ks = killer_set(f, w)
    assert 1 not in ks.external


def test_extract_witness_four_cycle_incidence():
    # (x or y) and (not-x or y): the incidence graph IS a 4-cycle
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    w = extract_witness(f, Assignment(), 1)
    assert len(w) == 4
    assert w == frozenset({1, 2, clause_vertex(1), clause_vertex(2)})


def test_extract_witness_cycle():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 2, 3), clause_of(3, 3, 4), clause_of(4, 4, 1)))
    w = extract_witness(f, Assignment(), 1)
    g = build_incidence(f)
    assert treewidth_at_most(g.subgraph(w), 1).kind == EXCEEDS
    assert len(w) == 8  # the whole incidence cycle


def test_extract_witness_dense_biclique():
    # four clauses over the same four variables: the incidence graph is a
    # complete bipartite block of treewidth 4; at t=3 nothing can be shaved
    clauses = tuple(clause_of(cid, 1, 2, 3, 4) for cid in range(1, 5))
    extra = (clause_of(5, 4, 5),)
    f = CnfFormula(clauses + extra)
    w = extract_witness(f, Assignment(), 3, vertex_cap=16)
    assert len(w) == 8
    sub = build_incidence(f).subgraph(w)
    assert treewidth_at_most(sub, 3).kind == EXCEEDS


def test_extract_witness_grid():
    f = gen_grid_formula(3)
    w = extract_witness(f, Assignment(), 1)
    assert len(w) >= 8
    assert treewidth_at_most(build_incidence(f).subgraph(w), 1).kind == EXCEEDS


def test_extract_witness_k5_component():
    # pairwise clauses over five variables make the variable side a clique minor;
    # use t=3 with a direct K5 via many two-literal clauses
    clauses = []
    cid = 1
    for a in range(1, 6):
        for b in range(a + 1, 6):
            clauses.append(clause_of(cid, a, b))
            cid += 1
    f = CnfFormula(tuple(clauses))
    w = extract_witness(f, Assignment(), 2)
    sub = build_incidence(f).subgraph(w)
    assert treewidth_at_most(sub, 2).kind == EXCEEDS


def test_extract_witness_precondition():
    f = CnfFormula((clause_of(1, 1, 2),))
    with pytest.raises(ValueError):
        extract_witness(f, Assignment(), 1)


def test_extract_witness_builds_the_graph_once(monkeypatch):
    # The graph the oracle's miss was decided on is the one the shrink runs on.
    built = []

    def build(f):
        built.append(f)
        return build_incidence(f)

    monkeypatch.setattr(backdoor, "build_incidence", build)
    f = gen_grid_formula_x(6)
    w = extract_witness(f, Assignment({}), 1)
    assert len(built) == 1
    assert treewidth_at_most(build_incidence(f).subgraph(w), 1).kind == EXCEEDS


# ---------------------------------------------------------------------------
# reference oracle: the witness shrink with one ladder query per trial


def ref_treewidth_at_most(g, t, vertex_cap=DEFAULT_VERTEX_CAP):
    """The width ladder as it was before its min-degree rung for t <= 2."""
    if g.num_vertices() == 0:
        return TwVerdict(AT_MOST, -1, Elimination([], []))
    deg = degeneracy(g)
    if deg > t:
        return TwVerdict(EXCEEDS, deg)
    ub, elimination = upper_bound_heuristic(g)
    if ub <= t:
        return TwVerdict(AT_MOST, ub, elimination)
    mmw = minor_min_width(g)
    if mmw > t:
        return TwVerdict(EXCEEDS, mmw)
    if g.num_vertices() <= vertex_cap:
        w, elimination = exact_treewidth(g, vertex_cap, limit=t)
        if w <= t:
            return TwVerdict(AT_MOST, w, elimination)
        return TwVerdict(EXCEEDS, w)
    return TwVerdict(UNKNOWN, ub)


def ref_extract_witness(f, tau, t, vertex_cap=DEFAULT_VERTEX_CAP):
    """extract_witness as it was: seeded from the (t+1)-core when degeneracy
    rules t out (what the degeneracy rung once returned as its certificate),
    and every deletion trial is a ladder query on a freshly built subgraph."""
    g = build_incidence(reduce(f, tau))
    verdict = ref_treewidth_at_most(g, t, vertex_cap)
    if verdict.kind != EXCEEDS:
        raise ValueError("witness extraction needs a reduction of width above t")
    return ref_witness(g, t, vertex_cap)


def ref_witness(g, t, vertex_cap=DEFAULT_VERTEX_CAP):
    """The shrink of ref_extract_witness, on a graph of width above t."""
    if t == 1:
        seed = ref_find_cycle(g)
        if seed is None:  # pragma: no cover - Exceeds at t=1 implies a cycle
            seed = frozenset(g.vertices())
    else:
        seed = ref_core_vertices(g, t + 1) or frozenset(g.vertices())
    w = set(seed)
    for u in sorted(seed):
        if len(w) <= 2:
            break
        trial = w - {u}
        if ref_treewidth_at_most(g.subgraph(trial), t, vertex_cap).kind == EXCEEDS:
            w = trial
    return frozenset(w)


@pytest.mark.parametrize("seed", range(12))
def test_t0_witness_is_one_edge(seed):
    # Width above 0 means an edge. The shrink keeps deleting while a trial
    # keeps one, so it ends on a single edge of inc(F), the reference's.
    rng = DetRng(seed)
    n = rng.randint(2, 10)
    f = gen_random_cnf(n, rng.randint(1, 2 * n), rng.randint(1, 3), seed)
    w = extract_witness(f, Assignment(), 0)
    assert len(w) == 2 and build_incidence(f).has_edge(*w)
    assert w == ref_extract_witness(f, Assignment(), 0)


@given(st.integers(0, 5000))
@settings(max_examples=120, deadline=None)
def test_extract_witness_matches_reference(seed):
    rng = DetRng(seed)
    t = 1 + seed % 3
    # Up to 24 variables at t <= 2, where certificates let the shrink skip more.
    n = rng.randint(4, 8 if t == 3 else 24)
    if t < 3 and seed % 2 == 0:
        f, _ = gen_planted(n, t, rng.randint(1, 3), seed)
    else:
        width = 3 if t == 3 else rng.randint(2, 3)
        f = gen_random_cnf(n, rng.randint(n, min(2 * n + 2, 64 - n)), width, seed)
    fixed = rng.sample(sorted(f.variables), min(rng.randint(0, 2), len(f.variables)))
    tau = Assignment({x: rng.bit() for x in fixed})
    g = build_incidence(reduce(f, tau))
    cap = 64 if t == 3 else 128
    assert g.num_vertices() <= cap  # below the cap, the reference never ends Unknown
    if ref_treewidth_at_most(g, t, cap).kind == AT_MOST:
        with pytest.raises(ValueError):
            extract_witness(f, tau, t, cap)
    else:
        assert extract_witness(f, tau, t, cap) == ref_extract_witness(f, tau, t, cap)


def test_witness_skips_vertices_outside_the_certificate(monkeypatch):
    # A vertex outside the last exceeding trial's certificate goes without a
    # trial, and the witness is still the one the reference shrink finds.
    f, _ = gen_planted(20, 2, 3, 2)
    g = build_incidence(f)
    seed = ref_core_vertices(g, 3)
    assert seed
    trials = []
    reduce_low_width = tw._reduce_low_width

    def counted(adj, t):
        trials.append(t)
        return reduce_low_width(adj, t)

    monkeypatch.setattr(tw, "_reduce_low_width", counted)
    w = tw.witness(g, 2)
    assert 0 < len(trials) < len(seed)
    assert w == extract_witness(f, Assignment({}), 2) == ref_extract_witness(f, Assignment({}), 2)


def test_find_smallest_grid_x():
    rep = find_smallest_strong_backdoor(gen_grid_formula_x(3), 1, 1)
    assert rep is not None and rep.variables == (10,)
    assert find_smallest_strong_backdoor(gen_grid_formula(3), 1, 0) is None


def test_find_smallest_in_class_is_empty():
    f = CnfFormula((clause_of(1, 1, 2),))
    rep = find_smallest_strong_backdoor(f, 1, 2)
    assert rep is not None and rep.variables == ()


def test_find_smallest_cap():
    with pytest.raises(FormulaError):
        find_smallest_strong_backdoor(gen_grid_formula(3), 1, 7)


@given(st.integers(0, 600))
@settings(max_examples=35, deadline=None)
def test_find_smallest_agrees_with_exhaustive(seed):
    rng = DetRng(seed)
    n = rng.randint(4, 9)
    m = rng.randint(n, 2 * n)
    f = gen_random_cnf(n, m, rng.randint(2, 3), seed)
    rep = find_smallest_strong_backdoor(f, 1, 2)
    oracle = exhaustive_smallest(f, 1, 2)
    if oracle is None:
        assert rep is None
    else:
        assert rep is not None
        assert len(rep.variables) == len(oracle)
        assert is_strong_backdoor(f, rep.variables, 1).valid


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_superset_of_valid_backdoor_stays_valid(seed):
    rng = DetRng(seed)
    f, planted = gen_planted(rng.randint(5, 8), 1, rng.randint(1, 2), seed)
    assert is_strong_backdoor(f, planted, 1).valid
    extras = sorted(f.variables - planted)
    if extras:
        bigger = planted | {extras[rng.randrange(len(extras))]}
        assert is_strong_backdoor(f, bigger, 1).valid


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_planted_deletion_dominance(seed):
    rng = DetRng(seed)
    t, k = 1, rng.randint(1, 2)
    f, planted = gen_planted(rng.randint(5, 8), t, k, seed)
    assert is_deletion_backdoor(f, planted, t).valid
    assert is_strong_backdoor(f, planted, t).valid  # deletion implies strong
    w, _ = exact_treewidth(build_incidence(f))
    assert w <= t + k


def test_approx_k0():
    assert approx_backdoor(gen_grid_formula(3), 1, 0, tw_threshold=1) is None


def test_approx_grid_x():
    rep = approx_backdoor(gen_grid_formula_x(3), 1, 1, tw_threshold=1)
    assert rep is not None
    assert rep.variables == (10,)
    assert rep.size <= 2**1 - 1


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_approx_size_bound_and_validity(seed):
    rng = DetRng(seed)
    k = rng.randint(1, 2)
    f, planted = gen_planted(rng.randint(5, 9), 1, k, seed)
    rep = approx_backdoor(f, 1, k, tw_threshold=1)
    assert rep is not None  # a size-k backdoor exists, so the search must succeed
    assert rep.size <= 2**k - 1
    assert is_strong_backdoor(f, rep.variables, 1).valid


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_approx_absence_is_correct(seed):
    rng = DetRng(seed)
    n = rng.randint(4, 8)
    f = gen_random_cnf(n, rng.randint(n + 2, 2 * n + 2), rng.randint(2, 3), seed)
    rep = approx_backdoor(f, 1, 1, tw_threshold=1)
    oracle = exhaustive_smallest(f, 1, 1)
    if rep is None:
        assert oracle is None
    else:
        assert is_strong_backdoor(f, rep.variables, 1).valid


def test_killer_union_candidates_hit_all_backdoors():
    f = gen_grid_formula_x(3)
    killers = killer_set(f, extract_witness(f, Assignment(), 1))
    assert 10 in killers.internal + killers.external  # the switch kills every obstruction externally


@pytest.mark.parametrize(
    "f, t, k, threshold",
    [(gen_planted(8, 1, 2, 0)[0], 1, 2, 2), (gen_grid_formula_x(4), 2, 2, 3)],
)
def test_approx_reports_every_check(monkeypatch, f, t, k, threshold):
    # Nested exact searches that find no set count their checks too.
    drawn = []

    def counted(*args, **kwargs):
        for tau in assignments(*args, **kwargs):
            drawn.append(tau)
            yield tau

    monkeypatch.setattr(backdoor, "assignments", counted)
    rep = approx_backdoor(f, t, k, tw_threshold=threshold)
    assert rep is not None and rep.stats.checks == len(drawn)


# ---------------------------------------------------------------------------
# the oracle's vertex sets


@given(st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_formula_key_is_exact(seed):
    # A search node is the vertex set of inc(F) its assignment leaves. On
    # formulas with zero-literal clauses and free variables, under random
    # assignments that make variables vanish: the set, and the subgraph it
    # induces, are those of inc(F[tau]) in its own order; two sets agree
    # exactly when the reductions do; reducing in two steps gives the same
    # set; and the DP on F over the induced graph's elimination counts F[tau].
    rng = DetRng(seed)
    n = rng.randint(3, 7)
    f = gen_random_cnf(n, rng.randint(2, 2 * n), rng.randint(1, 3), seed)
    m = len(f.clauses)
    extra = tuple(Clause(m + 1 + i, ()) for i in range(rng.randint(0, 1)))
    f = CnfFormula(f.clauses + extra, f.free_vars | frozenset(range(n + 1, n + 1 + rng.randint(0, 2))))
    oracle = backdoor._Oracle(f, DEFAULT_VERTEX_CAP)
    vs = sorted(f.variables | f.free_vars)
    taus = [Assignment({x: rng.bit() for x in rng.sample(vs, rng.randint(0, len(vs)))}) for _ in range(12)]
    sets = []
    for tau in taus:
        fr = reduce(f, tau)
        alive = oracle.reduced(oracle.root, tau)
        ref = build_incidence(fr)
        g = oracle.induced(alive)
        assert alive == frozenset(ref.vertices())
        # The edge count the oracle recorded, and what the subgraph answers
        # before it is built, are inc(F[tau])'s.
        assert oracle.edges[alive] == g.num_edges() == ref.num_edges()
        assert (g.num_vertices(), g.sorted_vertices()) == (ref.num_vertices(), ref.sorted_vertices())
        assert all(g.neighbors(v) == ref.neighbors(v) for v in alive)
        assert list(g.vertices()) == list(ref.vertices())
        assert g.adjacency_view() == ref.adjacency_view()
        # and so they are once it is built
        assert g.num_edges() == ref.num_edges()
        assert all(g.neighbors(v) == ref.neighbors(v) for v in alive)
        # A chain of up to three steps reaches the same set, and records each
        # set it passes through with that reduction's edge count.
        items = tau.items()
        cuts = sorted(rng.randint(0, len(items)) for _ in range(2))
        step, done = oracle.root, ()
        for part in (items[:cuts[0]], items[cuts[0]:cuts[1]], items[cuts[1]:]):
            step, done = oracle.reduced(step, Assignment(part)), done + part
            assert oracle.edges[step] == build_incidence(reduce(f, Assignment(done))).num_edges()
        assert step == alive
        _, elimination = upper_bound_heuristic(oracle.induced(alive))
        assert _run_dp(f, elimination) == count_bruteforce(fr)
        sets.append((alive, fr))
    for (a, fa), (b, fb) in combinations(sets, 2):
        assert (a == b) == (fa == fb)


def test_reduced_drops_vanished_variables():
    # Setting 1 satisfies clause 1, so 2, in no other clause, vanishes; the
    # zero-literal clause 3 and the free variable 4 stay.
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 3), Clause(3, ())), frozenset({4}))
    oracle = backdoor._Oracle(f, DEFAULT_VERTEX_CAP)
    alive = oracle.reduced(oracle.root, Assignment({1: 1}))
    assert alive == {3, 4, clause_vertex(2), clause_vertex(3)}
    assert alive == frozenset(build_incidence(reduce(f, Assignment({1: 1}))).vertices())
