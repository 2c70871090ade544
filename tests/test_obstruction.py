from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount.formula import Clause, CnfFormula, FormulaError, Literal, assignments
from twcount.generators import DetRng, gen_wall_formula, wall_formula_model
from twcount import obstruction as obstruction_module
from twcount.graphs import build_incidence, clause_vertex, identity_wall_model, is_wall_subdivision
from twcount.obstruction import (
    MergedTemplateGraph,
    RULE_FEW_COMMON_KILLERS,
    RULE_MULTIPLE_NEIGHBORHOODS,
    RULE_NO_MULTIPLE_NEIGHBORHOODS,
    WallObstruction,
    apply_rules,
    build_template,
    candidate_set_for_guess,
    common_external_killers,
    dedupe_neighborhoods,
    degree_budget,
    enumerate_guesses,
    fpt_constants,
    merge_and_dedupe,
    merge_templates,
    template_to_json,
    tile_obstructions,
    validate_template,
)

NB1 = degree_budget(1)


def synthetic_wall_instance(seed, n_killers, r=4):
    """Wall formula plus external killer variables with genuinely mixed signs."""
    rng = DetRng(seed)
    base = gen_wall_formula(r)
    clauses = list(base.clauses)
    n_clauses = len(clauses)
    n_wall_vars = r * r
    killers = []
    signs_per_clause = [dict() for _ in range(n_clauses)]
    for zi in range(n_killers):
        z = n_wall_vars + 1 + zi
        killers.append(z)
        first, second = rng.sample(range(n_clauses), 2)
        signs_per_clause[first][z] = True
        signs_per_clause[second][z] = False
        for _ in range(rng.randint(0, 3)):
            c = rng.randrange(n_clauses)
            if z not in signs_per_clause[c]:
                signs_per_clause[c][z] = rng.bit() == 1
    for ci, extra in enumerate(signs_per_clause):
        if extra:
            lits = clauses[ci].literals + tuple(
                Literal(z, sgn) for z, sgn in sorted(extra.items())
            )
            clauses[ci] = Clause(clauses[ci].id, lits)
    f = CnfFormula(tuple(clauses))
    w_vertices = frozenset(range(1, n_wall_vars + 1)) | frozenset(
        clause_vertex(i + 1) for i in range(n_clauses)
    )
    return f, WallObstruction(w_vertices, r, {}), killers


def test_fpt_constants_t0():
    assert fpt_constants(0, 0).degree_budget == 32


def test_fpt_constants_k1_t1():
    c = fpt_constants(1, 1)
    assert c.degree_budget == 77
    assert c.group_size == 71148
    assert c.obstruction_count == 142297
    assert c.wall_size == 1513
    assert c.output_size_bound == 1
    assert c.tw_cutoff_log10 > 1e15


@given(st.integers(0, 6))
@settings(max_examples=7, deadline=None)
def test_output_size_bound_formula(k):
    assert fpt_constants(k, 1).output_size_bound == 2**k - 1


def test_tiling_counts():
    assert len(tile_obstructions(identity_wall_model(8), 1)) == 4
    assert len(tile_obstructions(identity_wall_model(12), 1)) == 9
    tiles = tile_obstructions(identity_wall_model(4), 1)
    assert len(tiles) == 1
    assert tiles[0].vertices == frozenset(range(1, 17))


def test_tiling_too_small():
    with pytest.raises(ValueError):
        tile_obstructions(identity_wall_model(3), 1)


def test_tiling_disjoint_and_subdivisions():
    model = identity_wall_model(8)
    tiles = tile_obstructions(model, 1)
    seen = set()
    for tile in tiles:
        assert not (seen & tile.vertices)
        seen |= tile.vertices
        ok, _ = is_wall_subdivision(model.host.subgraph(tile.vertices), 4)
        assert ok


def test_tiling_incidence_host():
    f, model = wall_formula_model(8)
    tiles = tile_obstructions(model, 1)
    assert len(tiles) == 4
    seen = set()
    for tile in tiles:
        assert not (seen & tile.vertices)
        seen |= tile.vertices
        ok, _ = is_wall_subdivision(model.host.subgraph(tile.vertices), 4)
        assert ok


def test_common_external_killers():
    f, obstruction, killers = synthetic_wall_instance(3, 10)
    got = common_external_killers(f, [obstruction], 1)
    assert set(killers) <= got
    # disjointly-killed obstruction lists intersect to nothing
    f2, obs2, killers2 = synthetic_wall_instance(4, 10)
    tiles = tile_obstructions(wall_formula_model(8)[1], 1)
    plain_common = common_external_killers(wall_formula_model(8)[0], tiles, 1)
    assert plain_common == frozenset()


def test_build_template_star_shape():
    # killers all adjacent to a single far-from-root clause: one region, one
    # representative whose degree is exactly the killer count
    base = gen_wall_formula(4)
    clauses = list(base.clauses)
    target = len(clauses) - 1
    killers = list(range(17, 17 + NB1))
    half = NB1 // 2
    lits = clauses[target].literals + tuple(Literal(z, z < 17 + half) for z in killers)
    clauses[target] = Clause(clauses[target].id, lits)
    # give each killer the opposite sign somewhere else so it kills externally
    other = 0
    extra = tuple(Literal(z, not (z < 17 + half)) for z in killers)
    clauses[other] = Clause(clauses[other].id, clauses[other].literals + extra)
    f = CnfFormula(tuple(clauses))
    w = frozenset(range(1, 17)) | frozenset(clause_vertex(c.id) for c in base.clauses)
    tpl = build_template(f, w, killers, 1)
    report = validate_template(f, tpl)
    assert report.ok, report.checks


def test_build_template_errors():
    f, obstruction, killers = synthetic_wall_instance(5, NB1)
    with pytest.raises(FormulaError):
        build_template(f, obstruction, [], 1)
    with pytest.raises(FormulaError):
        build_template(f, obstruction, [9999], 1)  # not adjacent to the wall


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_template_properties_on_synthetic_instances(seed):
    rng = DetRng(seed)
    f, obstruction, killers = synthetic_wall_instance(seed, rng.randint(NB1, 3 * NB1))
    tpl = build_template(f, obstruction, killers, 1)
    report = validate_template(f, tpl)
    assert report.ok, {k: v for k, v in report.checks.items() if not v[0]}
    assert set().union(*tpl.regions) == tpl.wall_vertices


@given(st.integers(0, 10_000), st.sampled_from((4, 6, 8)), st.integers(4, 10))
@settings(max_examples=60, deadline=None)
def test_template_peels_many_killers_into_regions(seed, r, budgets):
    # With more than three budgets of killers the whole tree is too heavy
    # for one representative: build_template re-roots it (_select_root) and
    # peels off subtrees of weight at least the budget, region by region,
    # and the template stays valid.
    f, obstruction, killers = synthetic_wall_instance(seed, budgets * NB1, r=r)
    roots = []
    with pytest.MonkeyPatch.context() as mp:
        select_root = obstruction_module._select_root
        mp.setattr(obstruction_module, "_select_root", lambda *args: roots.append(args) or select_root(*args))
        tpl = build_template(f, obstruction, killers, 1)
    report = validate_template(f, tpl)
    assert report.ok, {k: v for k, v in report.checks.items() if not v[0]}
    assert roots and len(tpl.regions) >= 2
    assert set().union(*tpl.regions) == tpl.wall_vertices


def test_validate_template_detects_isolated_killer():
    f, obstruction, killers = synthetic_wall_instance(7, NB1)
    tpl = build_template(f, obstruction, killers, 1)
    broken = type(tpl)(
        tpl.wall_vertices,
        tpl.killers + (4999,),
        tpl.t,
        tpl.regions,
        tpl.q_neighbors,
        tpl.q_region,
    )
    report = validate_template(f, broken)
    assert not report.checks["killer_degree"][0]


def test_validate_template_detects_low_degree():
    f, obstruction, killers = synthetic_wall_instance(8, NB1)
    tpl = build_template(f, obstruction, killers, 1)
    shrunk = tuple(frozenset(sorted(nbrs)[: NB1 - 1]) for nbrs in tpl.q_neighbors)
    broken = type(tpl)(
        tpl.wall_vertices, tpl.killers, tpl.t, tpl.regions, shrunk, tpl.q_region
    )
    report = validate_template(f, broken)
    assert not report.checks["rep_degree"][0]


def test_region_survives_outside_killers():
    # for any representative and any killer set avoiding its neighborhood,
    # some assignment keeps the whole region in the incidence graph
    rng = DetRng(77)
    f, obstruction, killers = synthetic_wall_instance(77, NB1 + 20)
    tpl = build_template(f, obstruction, killers, 1)
    g = build_incidence(f)
    for qi, nbrs in enumerate(tpl.q_neighbors[:4]):
        region = tpl.regions[tpl.q_region[qi]]
        outside = sorted(set(tpl.killers) - nbrs)
        if not outside:
            continue
        b = set(rng.sample(outside, min(6, len(outside))))
        found = False
        for tau in assignments(b):
            from twcount.formula import reduce

            gr = build_incidence(reduce(f, tau))
            if all(gr.has_vertex(v) for v in region):
                found = True
                break
        assert found


def test_template_json_dump():
    f, obstruction, killers = synthetic_wall_instance(9, NB1)
    tpl = build_template(f, obstruction, killers, 1)
    dump = template_to_json(tpl, validate_template(f, tpl))
    assert sorted(dump["killers"]) == sorted(killers)
    assert all(isinstance(r, list) for r in dump["regions"])
    assert all(dump["checks"].values())


def test_merge_and_dedupe():
    z = (1, 2, 3)
    t1 = _fake_template(z, [frozenset({1, 2})])
    t2 = _fake_template(z, [frozenset({1, 2}), frozenset({2, 3})])
    merged = merge_templates([t1, t2])
    assert len(merged.q_ids) == 3
    deduped = dedupe_neighborhoods(merged)
    assert len(deduped.q_ids) == 2
    assert (0, 0) in deduped.q_ids  # smallest representative survives
    assert merge_and_dedupe([t1, t2]).q_ids == deduped.q_ids


def test_merge_rejects_mismatched_killers():
    t1 = _fake_template((1, 2), [frozenset({1})])
    t2 = _fake_template((1, 3), [frozenset({1})])
    with pytest.raises(FormulaError):
        merge_templates([t1, t2])


def _fake_template(killers, neighborhoods):
    from twcount.obstruction import ObstructionTemplate

    return ObstructionTemplate(
        wall_vertices=frozenset({100}),
        killers=tuple(killers),
        t=1,
        regions=(frozenset({100}),),
        q_neighbors=tuple(neighborhoods),
        q_region=tuple(0 for _ in neighborhoods),
    )


def test_rule_few_common_killers():
    z = (4, 7, 9)
    merged = MergedTemplateGraph(z, ((0, 0),), {(0, 0): frozenset(z)})
    out = apply_rules(merged, 1, 1)
    assert out.rule == RULE_FEW_COMMON_KILLERS
    assert out.variables == z


def test_rule_multiple_neighborhoods():
    cap = 6 * 1 * NB1
    z = tuple(range(1, cap + 6))
    shared = frozenset({2, 3, 5})
    ids = []
    nbrs = {}
    for i in range(3):  # t*2^k + 1 = 3 sharers at k=1, t=1
        ids.append((0, i))
        nbrs[(0, i)] = shared
    for i in range(3, 9):
        ids.append((0, i))
        nbrs[(0, i)] = frozenset({i + 1, i + 2})
    merged = MergedTemplateGraph(z, tuple(ids), nbrs)
    out = apply_rules(merged, 1, 1)
    assert out.rule == RULE_MULTIPLE_NEIGHBORHOODS
    assert out.variables == (2, 3, 5)
    assert len(out.witness_q) >= 3


def test_rule_no_multiple_neighborhoods():
    cap = 6 * 1 * NB1
    z = tuple(range(1, cap + 6))
    ids = []
    nbrs = {}
    # distinct degrees: killer v appears in v neighborhoods, none repeated
    for qi, v in enumerate(z):
        for rep in range(v):
            ids.append((qi, rep))
            nbrs[(qi, rep)] = frozenset({v, z[(qi + rep + 1) % len(z)]})
    # drop duplicates to keep neighborhoods unique per representative
    uniq = {}
    for qid in ids:
        uniq.setdefault(nbrs[qid], qid)
    ids = sorted(uniq.values())
    nbrs = {qid: nbh for nbh, qid in uniq.items()}
    merged = MergedTemplateGraph(z, tuple(ids), nbrs)
    out = apply_rules(merged, 1, 1)
    assert out.rule == RULE_NO_MULTIPLE_NEIGHBORHOODS
    assert len(out.variables) == cap
    deg = {v: 0 for v in z}
    for qid in ids:
        for v in nbrs[qid]:
            deg[v] += 1
    floor = min(deg[v] for v in out.variables)
    assert all(deg[v] <= floor for v in z if v not in set(out.variables))


def test_apply_rules_requires_k():
    merged = MergedTemplateGraph((1,), (), {})
    with pytest.raises(ValueError):
        apply_rules(merged, 0, 1)


def test_candidate_set_for_guess_small_z():
    f, obstruction, killers = synthetic_wall_instance(11, 12)
    result = candidate_set_for_guess(f, [obstruction], 1, 1, ell=1)
    assert result.outcome.rule == RULE_FEW_COMMON_KILLERS
    assert set(killers) <= set(result.outcome.variables)
    assert result.ell == 1
    with pytest.raises(ValueError):
        candidate_set_for_guess(f, [obstruction], 1, 1, ell=2)


def test_enumerate_guesses_is_lazy():
    model = identity_wall_model(8)
    tiles = tile_obstructions(model, 1)
    gen = enumerate_guesses(tiles, 1, 1)
    # the honest group size dwarfs four obstructions, so the iterator is empty,
    # and crucially it must not try to materialize anything
    assert list(islice(gen, 3)) == []
