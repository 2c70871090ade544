"""Tests of the benchmark's own answer checks and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import combinations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from twcount.graphs import Graph  # noqa: E402
from twcount.treewidth import exact_treewidth  # noqa: E402


def brute_count(num_vars, clauses):
    return sum(
        all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in c) for c in clauses)
        for bits in product((0, 1), repeat=num_vars)
    )


def random_formula(rng: random.Random):
    n = rng.randint(1, 10)
    clauses = []
    for _ in range(rng.randint(0, 14)):
        width = rng.randint(0 if rng.random() < 0.03 else 1, min(4, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return n, tuple(clauses)


def test_counter_matches_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        n, clauses = random_formula(rng)
        assert check.ModelCounter().count(n, clauses) == brute_count(n, clauses), (n, clauses)


@pytest.mark.parametrize("n", range(2, 8))
def test_grid_switch_closed_form_matches_counter(n):
    num_vars, clauses = suite.generate(suite.Spec("g", "grid-x", (n,), 1, 1, 1))
    assert check.ModelCounter().count(num_vars, clauses) == check.grid_switch_count(n)


def _graph(adj):
    g = Graph()
    for v in adj:
        g.add_vertex(v)
    for v, nbrs in adj.items():
        for u in nbrs:
            g.add_edge(v, u)
    return g


def test_width_tests_match_exact_treewidth():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.choice((0.2, 0.35, 0.5))
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in combinations(range(1, n + 1), 2):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
        width, _ = exact_treewidth(_graph(adj))
        assert check.is_forest(adj) == (width <= 1), adj
        assert check.is_series_parallel(adj) == (width <= 2), adj


def test_backdoor_fault_on_planted_instance():
    from twcount.generators import gen_planted

    f, planted = gen_planted(12, 2, 2, 0)
    clauses = tuple(tuple(lit.to_int() for lit in c.literals) for c in f.clauses)
    assert check.backdoor_fault(clauses, tuple(sorted(planted)), 2, 2) is None
    assert "treewidth above" in check.backdoor_fault(clauses, (), 1, 2)
    assert "exceeds" in check.backdoor_fault(clauses, (1, 2, 3, 4), 2, 2)
    assert "do not occur" in check.backdoor_fault(clauses, (999,), 2, 2)


def fake_grid_output(seed: int, off_by: int = 0, outcome: str = "counted") -> dict:
    """Worker output for one pass of grid-switch, answered right apart from
    the first solve's count (off by `off_by`) and outcome."""
    bases, records = [], []
    for i, spec in enumerate(suite.GRID_SWITCH):
        num_vars, clauses = suite.generate(spec)
        n = spec.params[0]
        bases.append({
            "label": spec.label, "t": 1, "k": 1, "grid_n": n,
            "num_vars": num_vars, "clauses": [list(c) for c in clauses],
        })
        perm = suite.permutation("grid-switch", seed, 0, i, num_vars)
        records.append({
            "base": i, "pass": 0, "outcome": "counted",
            "count": check.grid_switch_count(n), "backdoor": [perm[n * n + 1]],
            "wall_s": 0.1, "ref_s": 0.0004,
        })
    records[0]["count"] += off_by
    records[0]["outcome"] = outcome
    return {
        "setup_s": 0.1, "setup_ref_s": 0.0004, "peak_rss_mb": 20.0,
        "records": records, "bases": bases,
    }


def run_with(monkeypatch, out: dict) -> tuple[int, dict]:
    monkeypatch.setattr(run, "run_worker", lambda args, mode: out)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "grid-switch", "--seed", "5", "--seconds", "1"])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_right_answers_pass(monkeypatch):
    code, result = run_with(monkeypatch, fake_grid_output(5))
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(suite.GRID_SWITCH)
    assert set(result["metrics"]) == {"solves_per_s", "solve_s.p50", "solve_s.p90", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("off_by", (1, -1))
def test_count_off_by_one_fails_the_run(monkeypatch, off_by):
    code, result = run_with(monkeypatch, fake_grid_output(5, off_by))
    assert code != 0
    assert not result["correct"] and result["failed"] == 1


def test_wrong_backdoor_fails_the_run(monkeypatch):
    out = fake_grid_output(5)
    out["records"][0]["backdoor"] = [1]
    code, result = run_with(monkeypatch, out)
    assert code != 0 and not result["correct"]


@pytest.mark.parametrize("outcome", ("inconclusive", "sb_exceeded", "error"))
def test_other_outcomes_fail_but_are_not_wrong(monkeypatch, outcome):
    out = fake_grid_output(5, outcome=outcome)
    out["records"][0].update(count=None, backdoor=None)
    if outcome == "error":
        out["records"][0]["error"] = "ValueError('boom')"
    code, result = run_with(monkeypatch, out)
    assert code == 0
    assert result["correct"] and result["failed"] == 1


def test_copies_rename_within_the_clause_vertex_offset():
    num_vars, clauses = suite.generate(suite.RANDOM_TD[0])
    text = suite.copy_text("random-td", 9, 2, 0, num_vars, clauses)
    perm = suite.permutation("random-td", 9, 2, 0, num_vars)
    assert sorted(perm[1:]) == list(range(1, num_vars + 1))
    lits = [int(x) for line in text.splitlines()[1:] for x in line.split()[:-1]]
    assert max(map(abs, lits)) < suite.CLAUSE_VERTEX_OFFSET
    assert check.ModelCounter().count(num_vars, clauses) == check.ModelCounter().count(
        num_vars, tuple(tuple(int(x) for x in line.split()[:-1]) for line in text.splitlines()[1:])
    )
    assert text != suite.copy_text("random-td", 9, 3, 0, num_vars, clauses)
    with pytest.raises(ValueError):
        suite.permutation("random-td", 9, 2, 0, suite.CLAUSE_VERTEX_OFFSET)


def traced_counts(seed: int) -> dict:
    import reference
    import spans
    import worker

    program = worker.Program()
    inst = worker.Instances("planted", seed)
    records: list[dict] = []
    batch = [(i, text) for i, text in inst.make_pass(1) if i % 6 == 0]
    tracer = spans.Tracer()
    with tracer.installed():
        worker.run_pass(reference.HostClock(), program, inst, 1, batch, records)
    metrics = tracer.metrics([], records)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_repeat_exactly():
    first = traced_counts(4)
    assert first["treewidth.queries"] > first["treewidth.queries_distinct"] > 0
    assert sum(first[f"treewidth.rung.{r}"] for r in ("degeneracy", "min_fill", "exact", "unknown", "empty")) == first["treewidth.queries"]
    assert first == traced_counts(4)
