"""Acceptance suite: one test per criterion, exact tolerances, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from itertools import combinations

from twcount.backdoor import (
    approx_backdoor,
    find_smallest_strong_backdoor,
    is_deletion_backdoor,
    is_strong_backdoor,
)
from twcount.counting import count_bruteforce, count_td, count_via_backdoor, solve
from twcount.formula import Assignment, CnfFormula, clause_of, reduce
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
)
from twcount.graphs import build_incidence, identity_wall_model, is_wall_subdivision, make_wall
from twcount.obstruction import (
    MergedTemplateGraph,
    RULE_FEW_COMMON_KILLERS,
    RULE_MULTIPLE_NEIGHBORHOODS,
    RULE_NO_MULTIPLE_NEIGHBORHOODS,
    apply_rules,
    build_template,
    degree_budget,
    fpt_constants,
    tile_obstructions,
    validate_template,
)
from twcount.treewidth import (
    degeneracy,
    exact_treewidth,
    treewidth_at_most,
    upper_bound_heuristic,
    validate_decomposition,
)

from test_obstruction import synthetic_wall_instance


def _random_formula(seed):
    rng = DetRng(seed)
    if seed % 25 == 13:  # dense corner: clause count at the cap
        n = rng.randint(8, 12)
        m = rng.randint(30, 40)
        width = 2
    elif seed % 10 == 9:
        n = rng.randint(13, 16)
        m = rng.randint(n, min(40, 2 * n))
        width = rng.randint(2, 4)
    else:
        n = rng.randint(3, 12)
        m = rng.randint(max(1, n // 2), min(40, 2 * n + 3))
        width = rng.randint(2, min(4, n))
    return gen_random_cnf(n, m, width, seed)


def test_criterion_01_oracle_equivalence():
    checked = backdoored = 0
    for seed in range(1000):
        f = _random_formula(seed)
        brute = count_bruteforce(f)
        _, elimination = upper_bound_heuristic(build_incidence(f))
        assert count_td(f, elimination.decomposition()) == brute, f"seed {seed}: DP vs brute mismatch"
        checked += 1
        report = find_smallest_strong_backdoor(f, 1, 2)
        if report is not None:
            assert count_via_backdoor(f, report.variables, 1) == brute, (
                f"seed {seed}: backdoor count mismatch"
            )
            backdoored += 1
    assert checked == 1000
    assert backdoored > 100  # the branch-counting path must be well exercised
    print(f"criterion 01 PASS - 1000 formulas, DP==brute; backdoor path on {backdoored}")


def test_criterion_02_grid_family():
    for n in range(2, 9):
        f = gen_grid_formula_x(n)
        x = n * n + 1
        assert is_strong_backdoor(f, {x}, 1).valid, f"n={n}"
        for val in (0, 1):
            g = build_incidence(reduce(f, Assignment({x: val})))
            assert degeneracy(g) == 1, f"n={n}: reduction not a forest"
            assert g.num_edges() >= 1  # so the treewidth is exactly 1
            assert treewidth_at_most(g, 1).kind == "at_most"
    widths = {}
    for n in (3, 4):
        w, _ = exact_treewidth(build_incidence(gen_grid_formula(n)))
        assert w >= n, f"n={n}: incidence treewidth {w} below {n}"
        widths[n] = w
    print(f"criterion 02 PASS - switch variable verifies for n=2..8; grid widths {widths}")


def test_criterion_03_counting_pipeline():
    res = solve(gen_grid_formula_x(3), 1, 1, tw_threshold=1)
    assert res.outcome == "counted" and res.count == 250
    res0 = solve(gen_grid_formula(3), 1, 0, tw_threshold=1)
    assert res0.outcome == "sb_exceeded"
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, 1, -2)))
    assert count_via_backdoor(f, {1}, 1) == 2
    print("criterion 03 PASS - solve gives 250 / sb_exceeded; vanish factor gives 2")


def test_criterion_04_treewidth_anchors():
    from test_treewidth import complete_bipartite, complete_graph

    k5 = complete_graph(5)
    w5, e5 = exact_treewidth(k5)
    assert w5 == 4
    assert validate_decomposition(k5, e5.decomposition()).ok
    k44 = complete_bipartite(4, 4)
    w44, e44 = exact_treewidth(k44)
    assert w44 == 4
    assert validate_decomposition(k44, e44.decomposition()).ok
    wall, _ = make_wall(8)
    w8, e8 = exact_treewidth(wall, vertex_cap=64)
    assert w8 >= 8 // 2
    assert validate_decomposition(wall, e8.decomposition()).ok
    print(f"criterion 04 PASS - K5=4, K44=4; 8-wall exact width {w8} (figure says 4)")


def test_criterion_05_wall_tiling():
    for r, expected in ((8, 4), (12, 9)):
        model = identity_wall_model(r)
        tiles = tile_obstructions(model, 1)
        assert len(tiles) == expected, f"r={r}"
        seen = set()
        for tile in tiles:
            assert not (seen & tile.vertices), "tiles overlap"
            seen |= tile.vertices
            ok, _ = is_wall_subdivision(model.host.subgraph(tile.vertices), 4)
            assert ok, "tile is not a 4-wall subdivision"
    print("criterion 05 PASS - 8-wall -> 4 disjoint tiles, 12-wall -> 9, all subdivisions")


def test_criterion_06_template_properties():
    nb = degree_budget(1)
    passed = 0
    for seed in range(200):
        rng = DetRng(10_000 + seed)
        f, obstruction, killers = synthetic_wall_instance(
            10_000 + seed, rng.randint(nb, 3 * nb)
        )
        template = build_template(f, obstruction, killers, 1)
        report = validate_template(f, template)
        assert report.ok, (seed, {k: v for k, v in report.checks.items() if not v[0]})
        passed += 1
    assert passed == 200
    print("criterion 06 PASS - 200/200 synthetic templates satisfy all five properties")


def test_criterion_07_selection_rules():
    nb = degree_budget(1)
    cap = 6 * 1 * nb

    small = MergedTemplateGraph((3, 5, 9), ((0, 0),), {(0, 0): frozenset({3, 5, 9})})
    out = apply_rules(small, 1, 1)
    assert out.rule == RULE_FEW_COMMON_KILLERS and out.variables == (3, 5, 9)

    z = tuple(range(1, cap + 4))
    shared = frozenset({10, 20})
    ids, nbrs = [], {}
    for i in range(3):  # t * 2**k + 1 sharers
        ids.append((0, i))
        nbrs[(0, i)] = shared
    for i in range(3, 8):
        ids.append((0, i))
        nbrs[(0, i)] = frozenset({i, i + 30})
    out = apply_rules(MergedTemplateGraph(z, tuple(ids), nbrs), 1, 1)
    assert out.rule == RULE_MULTIPLE_NEIGHBORHOODS and out.variables == (10, 20)

    z = tuple(range(1, cap + 6))
    ids, nbrs = [], {}
    qi = 0
    for v in z:  # killer v gets degree v, each neighborhood kept distinct
        for _ in range(v):
            ids.append((0, qi))
            nbrs[(0, qi)] = frozenset({v, cap + 10 + qi})
            qi += 1
    full_z = z + tuple(cap + 10 + i for i in range(qi))
    out = apply_rules(MergedTemplateGraph(full_z, tuple(ids), nbrs), 1, 1)
    assert out.rule == RULE_NO_MULTIPLE_NEIGHBORHOODS
    assert len(out.variables) == cap
    assert set(out.variables) == set(range(6, cap + 6))  # the cap highest degrees
    print("criterion 07 PASS - each selection rule fires with its literal outcome")


def test_criterion_08_approx_size_bound():
    found = 0
    for seed in range(50):
        rng = DetRng(20_000 + seed)
        k = rng.randint(1, 2)
        f, planted = gen_planted(rng.randint(5, 9), 1, k, 20_000 + seed)
        report = approx_backdoor(f, 1, k, tw_threshold=1)
        assert report is not None, f"seed {seed}: planted instance must succeed"
        assert report.size <= 2**k - 1, f"seed {seed}: size bound violated"
        assert is_strong_backdoor(f, report.variables, 1).valid
        found += 1
    # absence cross-check on small random instances
    absent_checked = 0
    for seed in range(15):
        f = gen_random_cnf(6 + seed % 4, 14 + seed % 6, 3, 30_000 + seed)
        if len(f.variables) > 12:
            continue
        report = approx_backdoor(f, 1, 1, tw_threshold=1)
        exists = _exhaustive_exists(f, 1, 1)
        if report is None:
            assert not exists, f"seed {seed}: absence report contradicts enumeration"
        else:
            assert is_strong_backdoor(f, report.variables, 1).valid
        absent_checked += 1
    assert found == 50 and absent_checked >= 10
    print("criterion 08 PASS - 50 planted instances within 2^k-1; absence cross-checked")


def _exhaustive_exists(f, t, k_max):
    for size in range(k_max + 1):
        for combo in combinations(sorted(f.variables), size):
            if is_strong_backdoor(f, set(combo), t).valid:
                return True
    return False


def test_criterion_09_deletion_dominance():
    for seed in range(30):
        rng = DetRng(40_000 + seed)
        t, k = 1, rng.randint(1, 2)
        f, planted = gen_planted(rng.randint(5, 8), t, k, 40_000 + seed)
        assert is_deletion_backdoor(f, planted, t).valid
        assert is_strong_backdoor(f, planted, t).valid
        w, _ = exact_treewidth(build_incidence(f))
        assert w <= t + k, f"seed {seed}: width {w} above t+k={t + k}"
    print("criterion 09 PASS - 30 planted deletion backdoors dominate: tw <= t+k, strong")


def test_criterion_10_constants():
    c = fpt_constants(1, 1)
    assert (c.degree_budget, c.group_size, c.obstruction_count, c.wall_size, c.output_size_bound) == (
        77,
        71148,
        142297,
        1513,
        1,
    )
    print("criterion 10 PASS - constants(1,1) = (77, 71148, 142297, 1513, 1)")
