"""The records of formula, treewidth, backdoor and counting behave as the
frozen dataclasses they were: equal and hashed on their fields, frozen,
shown by their fields, picklable; the public ones never equal a tuple."""

import copy
import pickle

import pytest

from twcount.backdoor import BackdoorReport, KillerSet, SearchStats
from twcount.counting import BranchCount, SolveResult
from twcount.formula import Assignment, Clause, CnfFormula, Literal
from twcount.treewidth import EXCEEDS, TwVerdict

CLAUSE = Clause(1, (1, -2))

# (class, compared fields, field values, a value to change the first field
# to, public); a public record never equals the plain tuple of its fields.
RECORDS = [
    (Literal, ("var", "positive"), (3, False), 4, True),
    (Clause, ("id", "lits"), (1, (1, -2)), 2, True),
    (CnfFormula, ("clauses", "free_vars"), ((CLAUSE,), frozenset({3})), (), True),
    (
        SolveResult,
        ("outcome", "count", "mode", "t", "k", "backdoor", "branch_widths", "note"),
        ("counted", 4, "backdoor", 1, 2, (1,), (1, 1), None),
        "sb_exceeded",
        True,
    ),
    (
        BackdoorReport,
        ("variables", "kind", "t", "valid", "failing_assignment", "failing_bound", "stats"),
        ((1, 5), "strong", 1, False, Assignment({1: 0, 5: 1}), 3, None),
        (1,),
        True,
    ),
    (SearchStats, ("nodes", "checks"), (2, 3), 7, True),
    (TwVerdict, ("kind", "bound", "elimination"), (EXCEEDS, 3, None), "unknown", False),
    (KillerSet, ("obstruction", "internal", "external"), (frozenset({1, 2}), (1,), (2,)), frozenset(), False),
    (BranchCount, ("assignment", "width", "vanished", "count"), (Assignment({1: 0}), 1, 0, 2), Assignment(), False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, other, public", RECORDS, ids=IDS)
def test_records_compare_hash_and_show_their_fields(cls, names, values, other, public):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert a != cls(other, *values[1:])
    assert tuple(getattr(a, name) for name in names) == values
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a and copy.deepcopy(a) == a
    if cls is SearchStats:  # updated in place by the search: mutable, so unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    if public:
        assert a != values and values != a
        assert a != list(values)


@pytest.mark.parametrize("cls, names, values, other, public", RECORDS, ids=IDS)
def test_records_are_frozen_but_search_stats(cls, names, values, other, public):
    a = cls(*values)
    if cls is SearchStats:
        a.nodes += 1
        a.checks = 0
        assert (a.nodes, a.checks) == (3, 0) and a == SearchStats(3)
        return
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == values


def test_keywords_and_defaults_are_those_of_the_fields():
    assert SolveResult(outcome="counted", count=1, mode="td", t=1, k=0) == SolveResult(
        "counted", 1, "td", 1, 0, None, None, None
    )
    assert BackdoorReport((), "deletion", 2, True).failing_assignment is None
    assert SearchStats(checks=1) == SearchStats(0, 1)
    assert Literal(5) == Literal(var=5, positive=True)
    assert Clause(id=1, lits=[1, -2]) == CLAUSE
    assert CnfFormula((CLAUSE,)).free_vars == frozenset()


def test_a_clause_compares_on_its_id_and_lits_only():
    c = Clause(4, (3, -1))
    assert c.variables == {1, 3} and "variables" not in repr(c)
    assert c != Clause(4, (-1, 3)) and c != Clause(5, (3, -1))


def test_literals_order_by_variable_then_sign():
    lits = [Literal(2), Literal(1), Literal(2, False), Literal(1, False), Literal(3)]
    assert sorted(lits) == [Literal(1, False), Literal(1), Literal(2, False), Literal(2), Literal(3)]
    assert Literal(1) < Literal(2) <= Literal(2) and Literal(2, False) < Literal(2)
    assert Literal(3) > Literal(2) >= Literal(2, True)
    assert max(lits) == Literal(3) and min(lits) == Literal(1, False)
    with pytest.raises(TypeError):
        Literal(1) < (1, True)
    with pytest.raises(TypeError):
        Clause(1, (1,)) < Clause(2, (1,))  # only literals are ordered
