import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twcount import formula
from twcount.counting import count_bruteforce, solve
from twcount.formula import (
    CLAUSE_VERTEX_STRIDE,
    Assignment,
    Clause,
    CnfFormula,
    DimacsError,
    FormulaError,
    Literal,
    assignments,
    clause_of,
    delete_vars,
    formula_size,
    parse_dimacs,
    reduce,
    write_dimacs,
)
from twcount.generators import (
    DetRng,
    gen_grid_formula,
    gen_grid_formula_x,
    gen_planted,
    gen_random_cnf,
    gen_wall_formula,
    grid_clause_orientations,
)
import bench_copies


def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert f.variables == {1, 2}
    assert len(f.clauses) == 2
    assert f.clauses[0].literals == (Literal(1), Literal(2))
    assert f.clauses[1].literals == (Literal(1, False), Literal(2))


def test_parse_drops_tautological_clause():
    # 1 -1 is true under every assignment: the clause goes, and variable 1,
    # which occurs nowhere else, becomes free.
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert f.clauses == (Clause(1, (Literal(2),)),)
    assert f.free_vars == {1}
    assert count_bruteforce(f) == 2
    assert solve(f, 1, 1).count == 2
    # A variable of a dropped clause that occurs elsewhere is not free, and a
    # repeated literal in the same clause does not hide the pair.
    f = parse_dimacs("p cnf 3 3\n1 2 -1 1 0\n-2 3 0\n3 -3 0\n")
    assert [c.id for c in f.clauses] == [1]
    assert f.variables == {2, 3} and f.free_vars == {1}
    assert count_bruteforce(f) == solve(f, 1, 1).count == 6


def test_parse_free_vars():
    f = parse_dimacs("p cnf 3 1\n1 2 0\n")
    assert f.variables == {1, 2}
    assert f.free_vars == {3}


def test_parse_duplicate_literal_collapses_silently():
    f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert f.clauses[0].literals == (Literal(1), Literal(2))


def count_literal_builds(monkeypatch) -> list[tuple]:
    """Record the arguments of each Literal built from here on."""
    calls: list[tuple] = []
    init = Literal.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Literal, "__init__", counted)
    return calls


def test_parse_and_solve_build_no_literal(monkeypatch):
    # One base of each benchmark family, and the benchmark's seed-1 pass-0
    # copies of all three workloads, parsed and solved as the benchmark
    # does: clauses hold signed ints from the parser to the DP. The copies
    # are made first, since the benchmark's set-up reads the Literal view.
    cases = [
        (gen_grid_formula_x(8), 1, 1, 1),
        (gen_planted(40, 1, 2, 0)[0], 1, 2, 1),
        (gen_random_cnf(30, 40, 3, 2), 1, 1, 16),
    ]
    texts = [(write_dimacs(f), t, k, thr) for f, t, k, thr in cases]
    copies = [copy for w in bench_copies.WORKLOADS for copy in bench_copies.pass0(w)]
    calls = count_literal_builds(monkeypatch)
    results = [
        solve(parse_dimacs(text), t, k, tw_threshold=thr, vertex_cap=64) for text, t, k, thr in texts
    ] + [bench_copies.solve_copy(spec, text) for spec, text in copies]
    assert len(copies) == 43
    assert [r.outcome for r in results] == ["counted"] * (3 + 43)
    assert calls == []
    # The view still builds them, on request.
    view = parse_dimacs(texts[0][0]).clauses[0].literals
    assert calls == [(1, True), (2, True), (65, True)]
    assert view == (Literal(1), Literal(2), Literal(65))


nonzero = st.integers(-6, 6).filter(bool)


@given(st.integers(1, 9), st.lists(nonzero, max_size=6))
@settings(max_examples=200, deadline=None)
def test_clause_from_ints_agrees_with_clause_from_literals(cid, ints):
    def build(lits):
        try:
            return Clause(cid, lits)
        except FormulaError as exc:
            return str(exc)

    from_ints = build(ints)
    from_literals = build([Literal.from_int(x) for x in ints])
    if isinstance(from_ints, str):
        assert from_ints == from_literals
        assert len({abs(x) for x in ints}) < len(ints)
        return
    assert from_ints == from_literals
    assert hash(from_ints) == hash(from_literals)
    assert from_ints.lits == from_literals.lits == tuple(ints)
    assert from_ints.literals == from_literals.literals == tuple(map(Literal.from_int, ints))
    assert list(from_ints) == list(from_ints.literals)
    assert from_ints.variables == {abs(x) for x in ints} and len(from_ints) == len(ints)
    assert from_ints != Clause(cid + 1, ints)


def test_clause_errors_name_the_first_bad_literal():
    with pytest.raises(FormulaError, match="0 is not a literal"):
        Clause(1, (1, 0))
    with pytest.raises(FormulaError, match="clause 4 repeats literal -2"):
        Clause(4, (-2, 3, -2, 2))
    with pytest.raises(FormulaError, match="clause 4 contains a complementary pair on 3"):
        Clause(4, (-2, 3, -3, -2))
    with pytest.raises(FormulaError, match="0 is not a literal"):
        clause_of(1, 0)
    c = Clause(1, [Literal(2, False), 5])  # mixed input, any iterable
    assert c.lits == (-2, 5) and c == clause_of(1, -2, 5, 5)
    with pytest.raises(AttributeError):
        c.lits = (1,)


def ref_parse(text: str) -> CnfFormula:
    """The reference: the header and comments by line, then one stream of
    tokens cut at each 0, repeated literals collapsed, tautologies dropped."""
    num_vars, tokens = 0, []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("c"):
            continue
        if words[0] == "p":
            num_vars = int(words[2])
        else:
            tokens += map(int, words)
    clauses, current = [], []
    for x in tokens:
        if x:
            current.append(x)
            continue
        lits = list(dict.fromkeys(current))
        current = []
        if not any(-x in lits for x in lits):
            clauses.append(Clause(len(clauses) + 1, lits))
    used = set().union(*(c.variables for c in clauses))
    return CnfFormula(tuple(clauses), frozenset(range(1, num_vars + 1)) - used)


def ref_parse_dimacs(source) -> CnfFormula:
    """The reference for parse_dimacs and its messages: the line-by-line
    reader it replaced, one token at a time, each clause built and checked
    by the validating constructors."""
    text = source.read() if hasattr(source, "read") else source
    num_vars = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0][0] == "c":
            continue
        if toks[0][0] == "p":
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            if len(toks) != 4 or toks[0] != "p" or toks[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {raw.strip()!r}")
            try:
                num_vars, _declared_clauses = int(toks[2]), int(toks[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {raw.strip()!r}") from exc
            if num_vars < 0:
                raise DimacsError(f"line {lineno}: negative variable count")
            if num_vars >= CLAUSE_VERTEX_STRIDE:
                raise DimacsError(
                    f"line {lineno}: variable count {num_vars} reaches the id limit "
                    f"{CLAUSE_VERTEX_STRIDE}; variable ids must stay below it"
                )
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before header")
        for tok in toks:
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from exc
            if lit:
                if abs(lit) > num_vars:
                    raise DimacsError(f"line {lineno}: variable {abs(lit)} exceeds declared {num_vars}")
                pending.append(lit)
            elif not pending:
                raise DimacsError(f"line {lineno}: empty clause (0 with no literals)")
            else:
                lits = tuple(dict.fromkeys(pending))
                if len({abs(x) for x in lits}) == len(lits):  # else a complementary pair: always true
                    clauses.append(Clause(len(clauses) + 1, lits))
                pending = []
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated final clause (missing 0)")
    used = frozenset().union(*(c.variables for c in clauses))
    return CnfFormula(tuple(clauses), frozenset(range(1, num_vars + 1)) - used)


# Every line boundary of str.splitlines, and whitespace that is none.
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "  ", "\t", " \xa0", "\x1f"]
# Lines that read as nothing: comments, and blanks.
SKIPPED = ["c", "c 1 2 0", "cnf", "  c p cnf 2 1", "c\t0 0", "", "   ", "\t"]
# Each DIMACS error, made in a valid text by one edit (see dimacs_texts).
ERRORS = [
    "no-header", "duplicate-header", "malformed-header", "negative-count", "id-limit",
    "data-before-header", "bad-token", "exceeds", "empty-clause", "unterminated",
]


@st.composite
def dimacs_texts(draw, error=None):
    """DIMACS text: a header over n variables, then clauses over at most
    n of them (so duplicate literals, tautologies and free variables come
    up), their tokens cut into lines anywhere or one clause a line, with
    comment and blank lines anywhere, before the header too, and lines ended
    by every boundary str.splitlines knows. A named error adds one edit
    meant to make a DimacsError of that kind; a bad token or a line start
    it lands on can make another, or none."""
    n = draw(st.integers(1, 8))
    lit = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=5), max_size=8))
    # int() reads "+3", "03" and "-0" too, and so must the reader.
    spell = {0: ["0", "-0", "00"]}
    tokens = [
        draw(st.sampled_from(spell.get(x, [str(x), f"+{x}" if x > 0 else f"-0{-x}"]))) if draw(st.integers(0, 5)) == 0 else str(x)
        for c in clauses
        for x in (*c, 0)
    ]
    header = f"p cnf {n} {len(clauses)}"
    if error == "bad-token":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["x", "1.5", "c", "--1", "0x1", "p"])))
    elif error == "exceeds":
        tokens.insert(draw(st.integers(0, len(tokens))), str(draw(st.sampled_from([n + 1, -n - 1, 10**9]))))
    elif error == "empty-clause":
        zeros = [i + 1 for i, tok in enumerate(tokens) if int(tok) == 0]
        tokens.insert(draw(st.sampled_from([0, *zeros])), "0")
    elif error == "unterminated":
        tokens.append(str(draw(lit)))
    elif error == "malformed-header":
        header = draw(st.sampled_from([f"p cnf {n}", f"p dnf {n} 1", "p cnf x 1", f"p cnf {n} y", f"pcnf {n} 1", f"p cnf {n} 1 1", "p"]))
    elif error == "negative-count":
        header = "p cnf -1 0"
    elif error == "id-limit":
        header = f"p cnf {CLAUSE_VERTEX_STRIDE + draw(st.integers(0, 1))} 1"
    lines = [draw(st.sampled_from(SKIPPED)) for _ in range(draw(st.integers(0, 2)))]
    if error == "data-before-header":
        lines.append(draw(st.sampled_from(["1 0", "-2", "0", "x"])))
    if error != "no-header":
        lines.append(header)
    one_per_line = draw(st.booleans())
    line: list[str] = []
    for tok in tokens:
        line.append(tok)
        if (tok == "0" and one_per_line) or (not one_per_line and draw(st.booleans())):
            lines.append(draw(st.sampled_from(SPACES)).join(line))
            line = []
            if draw(st.integers(0, 3)) == 0:
                lines.append(draw(st.sampled_from(SKIPPED)))
    lines.append(" ".join(line))
    if error == "duplicate-header":
        lines.insert(draw(st.integers(lines.index(header) + 1, len(lines))), header)
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


def parsed_or_message(parse, text):
    try:
        return parse(text)
    except DimacsError as exc:
        return "DimacsError: " + str(exc)


@pytest.mark.parametrize("error", [None, *ERRORS], ids=["valid", *ERRORS])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_parse_matches_reference_parser(error, data):
    # The bulk reader parses every text the line reader parses, to an equal
    # formula with equal derived slots, and raises the same message on
    # every other. A valid text also reads as the token-stream reference
    # reads it.
    text = data.draw(dimacs_texts(error))
    f, ref = parsed_or_message(parse_dimacs, text), parsed_or_message(ref_parse_dimacs, text)
    assert f == ref
    if isinstance(ref, str):
        return
    assert f.variables == ref.variables and f.free_vars == ref.free_vars
    assert f.clauses_by_id == ref.clauses_by_id
    assert [c.variables for c in f.clauses] == [c.variables for c in ref.clauses]
    assert f == ref_parse(text)
    assert parse_dimacs(io.StringIO(text)) == f


def test_bench_copies_are_read_in_bulk(monkeypatch):
    # The benchmark's seed-1 pass-0 copies all parse without the line scan
    # that only names an error, and as the line reader parses them.
    copies = [text for w in bench_copies.WORKLOADS for _, text in bench_copies.pass0(w)]

    def no_scan(text):
        raise AssertionError("the bulk reader rejected a valid text")

    monkeypatch.setattr(formula, "_raise_dimacs_error", no_scan)
    for text in copies:
        assert parse_dimacs(text) == ref_parse_dimacs(text)


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf x y\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n3 0\n")  # index above declared
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n0\n")  # empty clause
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1000000 1\n1 0\n")  # ids would reach clause vertices


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 2 1\np cnf 2 1\n1 0\n", "line 2: duplicate header"),
        ("c\np cnf 2\n1 0\n", "line 2: malformed header 'p cnf 2'"),
        ("p cnf -1 0\n", "line 1: negative variable count"),
        ("1 2 0\np cnf 2 1\n", "line 1: clause data before header"),
        ("p cnf 2 1\n1 x 0\n", "line 2: bad token 'x'"),
    ],
    ids=["duplicate-header", "malformed-header", "negative-count", "clause-before-header", "bad-token"],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


def test_comments_ignored_anywhere():
    f = parse_dimacs("c hello\np cnf 2 1\nc mid\n1 2 0\nc end\n")
    assert len(f.clauses) == 1


@pytest.mark.parametrize("bad", [1.0, True, False, "1", None], ids=repr)
def test_only_an_int_that_is_not_a_bool_is_a_literal(bad):
    # A bool is an int to isinstance, but neither a literal nor a variable id.
    with pytest.raises(FormulaError, match=rf"clause 3: {re.escape(repr(bad))} is not a literal"):
        Clause(3, (2, bad))
    with pytest.raises(FormulaError, match=rf"clause 3: {re.escape(repr(bad))} is not a literal"):
        Clause(3, (Literal(2), bad))
    with pytest.raises(FormulaError, match=rf"a variable id is an int, got {re.escape(repr(bad))}"):
        Literal(bad)


def test_clause_takes_ints_and_literals_together():
    c = Clause(2, (Literal(1, False), 3, Literal(2)))
    assert c.lits == (-1, 3, 2) and all(type(x) is int for x in c.lits)
    assert c == Clause(2, (-1, 3, 2)) and c.variables == {1, 2, 3}


def test_formula_stores_its_clauses_as_a_tuple_and_free_vars_as_a_frozenset():
    clauses = [Clause(1, (1, -2)), Clause(2, (2,))]
    f = CnfFormula(clauses, {3, 4})
    expected = CnfFormula(tuple(clauses), frozenset({3, 4}))
    assert type(f.clauses) is tuple and type(f.free_vars) is frozenset
    assert f == expected and hash(f) == hash(expected)
    clauses.append(Clause(3, (5,)))  # the formula does not see a later change to the list
    assert f == expected and f.variables == {1, 2} and sorted(f.clauses_by_id) == [1, 2]
    assert f.num_vars == 4
    with pytest.raises(FormulaError, match="duplicate clause id 1"):
        CnfFormula(iter([Clause(1, (1,)), Clause(1, (2,))]))


def test_clause_invariants():
    with pytest.raises(FormulaError):
        Clause(1, (Literal(2), Literal(2, False)))
    with pytest.raises(FormulaError):
        Clause(1, (Literal(2), Literal(2)))
    with pytest.raises(FormulaError):
        Literal(0)


def test_formula_size():
    assert formula_size(CnfFormula(())) == 0
    assert formula_size(gen_grid_formula(3)) == 9 + 12 * 3
    assert formula_size(gen_grid_formula_x(3)) == 10 + 12 * 4


def test_reduce_removes_satisfied_and_strips_false():
    f = CnfFormula((clause_of(1, 1, 2), clause_of(2, -1, 2)))
    r = reduce(f, Assignment({1: 1}))
    assert len(r.clauses) == 1
    assert r.clauses[0].id == 2
    assert r.clauses[0].literals == (Literal(2),)


def test_reduce_empty_assignment_is_identity():
    f = gen_grid_formula(3)
    assert reduce(f, Assignment()) == f
    # Formulas are immutable, so the empty assignment copies nothing.
    assert reduce(f, Assignment()) is f


def test_reduce_grid_x_true_keeps_vertical_clauses():
    f = gen_grid_formula_x(3)
    orientations = grid_clause_orientations(3)
    r = reduce(f, Assignment({10: 1}))
    surviving = {c.id for c in r.clauses}
    assert surviving == {cid for cid, o in orientations.items() if o == "vertical"}
    assert all(len(c) == 2 for c in r.clauses)


def test_reduce_to_empty_clause_is_kept():
    f = CnfFormula((clause_of(1, 1),))
    r = reduce(f, Assignment({1: 0}))
    assert len(r.clauses) == 1
    assert len(r.clauses[0]) == 0


def test_write_rejects_empty_clause():
    # reduce keeps a falsified clause as a zero-literal clause, which no
    # DIMACS line that parse_dimacs accepts can express.
    f = reduce(parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n"), Assignment({1: 1}))
    assert [len(c) for c in f.clauses] == [0]
    with pytest.raises(FormulaError, match="clause 2"):
        write_dimacs(f)


def test_reduce_domain_check():
    f = CnfFormula((clause_of(1, 1, 2),))
    with pytest.raises(FormulaError):
        reduce(f, Assignment({9: 1}))


def ref_reduce(f, tau):
    """Reduction literal by literal, every clause rebuilt: the reference."""
    clauses = []
    for c in f.clauses:
        if any(tau.get(lit.var) == int(lit.positive) for lit in c.literals):
            continue
        clauses.append(Clause(c.id, tuple(lit for lit in c.literals if lit.var not in tau)))
    return CnfFormula(tuple(clauses), f.free_vars - tau.domain)


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_reduce_matches_reference_and_keeps_untouched_clauses(seed):
    rng = DetRng(seed)
    n = rng.randint(3, 12)
    f = gen_random_cnf(n, rng.randint(1, 2 * n), rng.randint(1, 3), seed)
    f = CnfFormula(f.clauses, f.free_vars | {n + 1, n + 2})
    declared = sorted(f.variables | f.free_vars)
    chosen = rng.sample(declared, rng.randint(0, len(declared)))
    tau = Assignment({v: rng.bit() for v in chosen})
    r = reduce(f, tau)
    assert r == ref_reduce(f, tau)
    by_id = {c.id: c for c in r.clauses}
    for c in f.clauses:
        if not c.variables & tau.domain:
            assert by_id[c.id] is c


def test_delete_vars():
    f = CnfFormula((clause_of(1, 1, 2),))
    d = delete_vars(f, {1})
    assert d.clauses[0].literals == (Literal(2),)
    assert delete_vars(f, set()) == f
    with pytest.raises(FormulaError):
        delete_vars(f, {5})


def test_delete_vars_grid_x_recovers_grid():
    assert delete_vars(gen_grid_formula_x(3), {10}) == gen_grid_formula(3)


def test_delete_vars_preserves_clause_ids():
    f = gen_grid_formula_x(4)
    d = delete_vars(f, {17})
    assert [c.id for c in d.clauses] == [c.id for c in f.clauses]


def test_assignments_enumeration():
    assert list(assignments(set())) == [Assignment()]
    assert list(assignments({5})) == [Assignment({5: 0}), Assignment({5: 1})]
    all4 = list(assignments({1, 2, 3, 4}))
    assert len(all4) == 16
    assert len(set(all4)) == 16


def test_assignments_cap():
    with pytest.raises(FormulaError):
        next(assignments(range(1, 40)))


def test_assignment_api():
    a = Assignment({3: 1, 1: 0})
    assert a.domain == {1, 3}
    assert a[3] == 1 and a.get(7) is None
    assert 1 in a and 7 not in a
    b = a.merged(Assignment({2: 1}))
    assert b.domain == {1, 2, 3}
    with pytest.raises(FormulaError):
        a.merged(Assignment({1: 1}))


@pytest.mark.parametrize(
    "values, message",
    [
        ({True: 1}, "a variable id is an int, got True"),
        ({1.5: 0}, "a variable id is an int, got 1.5"),
        ({"a": 0}, "a variable id is an int, got 'a'"),
        ({2: 1, "a": 0}, "a variable id is an int, got 'a'"),
        ({0: 1}, "variable ids start at 1, got 0"),
        ({1: True}, "assignment value must be 0 or 1, got True"),
        ({1: 1.0}, "assignment value must be 0 or 1, got 1.0"),
        ({1: 2}, "assignment value must be 0 or 1, got 2"),
        ([(1, 0), (1, 1)], "assignment repeats a variable"),
    ],
    ids=["bool-var", "float-var", "str-var", "str-among-ints", "var-0", "bool-value", "float-value", "value-2", "repeat"],
)
def test_assignment_rejects_a_bad_element(values, message):
    # A bool is an int to isinstance, but neither a variable id nor a value.
    with pytest.raises(FormulaError, match=f"^{re.escape(message)}$"):
        Assignment(values)


@given(
    st.sets(st.integers(-1, 40), max_size=5),
    st.dictionaries(st.integers(1, 40), st.integers(0, 1), max_size=6),
    st.dictionaries(st.integers(1, 40), st.integers(0, 1), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_built_assignments_equal_validated_ones(vs, a, b):
    # assignments() and merged skip the validating constructor; what they
    # build equals what it builds from the same pairs, and a variable id
    # below 1 or an overlap is still rejected.
    if min(vs, default=1) < 1:
        with pytest.raises(FormulaError, match="start at 1"):
            next(assignments(vs))
    else:
        for tau in assignments(vs):
            assert tau == Assignment(tau.items()) and tau.domain == vs
    x, y = Assignment(a), Assignment(b)
    if a.keys() & b.keys():
        with pytest.raises(FormulaError, match="overlap"):
            x.merged(y)
    else:
        assert x.merged(y) == Assignment({**a, **b}) == y.merged(x)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_write_parse(seed):
    # Every generator family: equal formulas, free variables included, so
    # equal model counts.
    rng = DetRng(seed)
    n = rng.randint(3, 30)
    for f in (
        gen_grid_formula(rng.randint(2, 6)),
        gen_grid_formula_x(rng.randint(2, 6)),
        gen_random_cnf(n, rng.randint(1, 2 * n), rng.randint(1, 3), seed),
        gen_planted(n, min(rng.randint(1, 3), n - 1), rng.randint(0, 4), seed)[0],
        gen_wall_formula(rng.randint(2, 5)),
    ):
        again = parse_dimacs(write_dimacs(f))
        assert again == f
        assert write_dimacs(again) == write_dimacs(f)


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_reduce_composes_over_disjoint_domains(seed):
    f = gen_random_cnf(10, 16, 3, seed)
    t1 = Assignment({1: seed & 1, 4: (seed >> 1) & 1})
    r1 = reduce(f, t1)
    # t2 must assign variables still present after the first reduction
    alive = sorted((r1.variables | r1.free_vars) - t1.domain)
    t2 = Assignment({v: (seed >> i) & 1 for i, v in enumerate(alive[:3])})
    assert reduce(r1, t2) == reduce(f, t1.merged(t2))


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_delete_preserves_clause_id_set(seed):
    f = gen_random_cnf(9, 14, 3, seed)
    picked = {1 + seed % 9} & f.variables
    d = delete_vars(f, picked)
    assert {c.id for c in d.clauses} == {c.id for c in f.clauses}
