"""CNF formula core: parsing, sizing, partial assignment, literal deletion.

A clause holds its literals as a tuple of signed ints (`Clause.lits`),
validated once, by its constructor or by the parser or reduction that
built it; every hot path reads those ints. `Literal` and the
`Clause.literals` view are API sugar off those paths. Formulas are
immutable, so objects are shared rather than rebuilt: the empty assignment
returns its input, and reduction keeps its untouched clauses. Clause ids
are assigned in input order and survive reduction and deletion, so
downstream consumers (witness extraction, obstruction templates) can track
clauses across derived formulas. The solve path reduces no formula: it
reduces vertex sets of inc(F) (`backdoor._Oracle.reduced`).
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Mapping, NoReturn

ASSIGNMENT_CAP = 30

# Incidence graphs number clause vertices from this id on (graphs.clause_vertex),
# so variable ids stay below it.
CLAUSE_VERTEX_STRIDE = 1_000_000


class FormulaError(ValueError):
    """Invalid formula construction or misuse of a formula operation."""


class DimacsError(FormulaError):
    """Malformed DIMACS CNF input."""


class _Record:
    """A read-only record on its `__slots__`, as a frozen dataclass is: equal
    to a record of its own class with equal `_fields` (never to a tuple),
    hashed on them and shown by them in its repr. Assigning or deleting an
    attribute raises AttributeError, so `__init__` fills the slots past
    `__setattr__`: through `_set`, or, on Clause's hot path, through the
    slots' own descriptors. Pickling and copying call the class on the
    `_fields`, so `__init__` takes them first, in order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the slots, in `__slots__` order, past `__setattr__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


@total_ordering
class Literal(_Record):
    """A signed occurrence of a variable; literals order by (var, positive)."""

    __slots__ = _fields = ("var", "positive")

    def __init__(self, var: int, positive: bool = True) -> None:
        if isinstance(var, bool) or not isinstance(var, int):
            raise FormulaError(f"a variable id is an int, got {var!r}")
        if var < 1:
            raise FormulaError(f"variable ids start at 1, got {var}")
        self._set(var, positive)

    def __lt__(self, other):
        return self._key() < other._key() if other.__class__ is self.__class__ else NotImplemented

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise FormulaError("0 is not a literal")
        return cls(abs(lit), lit > 0)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    def __str__(self) -> str:
        return str(self.to_int())


class Clause(_Record):
    """A disjunction of literals over pairwise distinct variables.

    `lits` is the data: the signed ints, in order. `variables` is the set of
    their variables, and `literals` a view that builds `Literal`s on demand.
    `Clause(id, lits)` takes ints (not bools) or `Literal`s and rejects any
    other element, 0, a repeated literal and a complementary pair. A clause
    may be empty: it is unsatisfiable but legal, so reduction stays total.
    Two clauses are equal when their ids and lits are.
    """

    __slots__ = ("id", "lits", "variables")
    _fields = ("id", "lits")

    def __init__(self, id: int, lits: Iterable[int | Literal]) -> None:
        lits = tuple(lits)
        if not set(map(type, lits)) <= {int}:
            lits = tuple(x if type(x) is int else _signed_int(id, x) for x in lits)
        variables = frozenset(map(abs, lits))
        if len(variables) != len(lits) or 0 in variables:  # name the first bad literal
            for i, x in enumerate(lits):
                if x == 0:
                    raise FormulaError("0 is not a literal")
                if x in lits[:i]:
                    raise FormulaError(f"clause {id} repeats literal {x}")
                if -x in lits[:i]:
                    raise FormulaError(f"clause {id} contains a complementary pair on {abs(x)}")
        _set_id(self, id)
        _set_lits(self, lits)
        _set_variables(self, variables)

    @property
    def literals(self) -> tuple[Literal, ...]:
        return tuple(map(Literal.from_int, self.lits))

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)


def _signed_int(cid: int, x) -> int:
    """A clause element as a signed int: a Literal or an int that is not a bool."""
    if isinstance(x, Literal):
        return x.to_int()
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise FormulaError(f"clause {cid}: {x!r} is not a literal (an int or a Literal)")


_set_id, _set_lits, _set_variables = Clause.id.__set__, Clause.lits.__set__, Clause.variables.__set__


def _clause(cid: int, lits: tuple[int, ...], variables: frozenset[int]) -> Clause:
    """A clause from signed ints already known to be valid, and their variables."""
    c = object.__new__(Clause)
    _set_id(c, cid)
    _set_lits(c, lits)
    _set_variables(c, variables)
    return c


def clause_of(cid: int, *lits: int) -> Clause:
    """Build a clause from signed ints, collapsing duplicate literals."""
    return Clause(cid, dict.fromkeys(lits))


class Assignment:
    """Partial truth assignment: maps each domain variable to 0 or 1."""

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = list(values.items() if isinstance(values, Mapping) else values)
        for var, val in pairs:
            if isinstance(var, bool) or not isinstance(var, int):
                raise FormulaError(f"a variable id is an int, got {var!r}")
            if var < 1:
                raise FormulaError(f"variable ids start at 1, got {var}")
            if isinstance(val, bool) or not isinstance(val, int) or val not in (0, 1):
                raise FormulaError(f"assignment value must be 0 or 1, got {val!r}")
        pairs.sort()
        if len({v for v, _ in pairs}) != len(pairs):
            raise FormulaError("assignment repeats a variable")
        self._items: tuple[tuple[int, int], ...] = tuple(pairs)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(v for v, _ in self._items)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def get(self, var: int, default=None):
        for v, val in self._items:
            if v == var:
                return val
        return default

    def __getitem__(self, var: int) -> int:
        val = self.get(var)
        if val is None:
            raise KeyError(var)
        return val

    def __contains__(self, var: int) -> bool:
        return self.get(var) is not None

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{v}={val}" for v, val in self._items)
        return f"Assignment({{{body}}})"

    def merged(self, other: "Assignment") -> "Assignment":
        """Union of two assignments with disjoint domains."""
        if self.domain & other.domain:
            raise FormulaError("assignment domains overlap")
        return _assignment(tuple(sorted(self._items + other._items)))


def _assignment(items: tuple[tuple[int, int], ...]) -> Assignment:
    """An assignment from (variable, value) pairs already known to be valid
    and sorted by variable."""
    a = object.__new__(Assignment)
    a._items = items
    return a


class CnfFormula(_Record):
    """A CNF formula plus the declared-but-unused (free) variables.

    Stores its clauses as a tuple and its free variables as a frozenset,
    whatever iterables it is given. Two formulas are equal when those are.
    """

    __slots__ = ("clauses", "free_vars", "variables", "clauses_by_id")
    _fields = ("clauses", "free_vars")

    def __init__(self, clauses: Iterable[Clause], free_vars: Iterable[int] = frozenset()) -> None:
        clauses, free_vars = tuple(clauses), frozenset(free_vars)
        by_id: dict[int, Clause] = {}
        used: set[int] = set()
        for c in clauses:
            if c.id in by_id:
                raise FormulaError(f"duplicate clause id {c.id}")
            by_id[c.id] = c
            used |= c.variables
        if used & free_vars:
            raise FormulaError("free_vars overlap occurring variables")
        self._set(clauses, free_vars, frozenset(used), by_id)

    @property
    def num_vars(self) -> int:
        return max(self.variables | self.free_vars, default=0)


def formula_size(f: CnfFormula) -> int:
    """|var(F)| plus, per clause, one plus its literal count. Free vars excluded."""
    return len(f.variables) + sum(1 + len(c) for c in f.clauses)


def assignments(variables: Iterable[int], cap: int = ASSIGNMENT_CAP) -> Iterator[Assignment]:
    """All assignments on the given variables, in binary counting order.

    Variables are sorted by id; the smallest id is the least significant bit.
    """
    vs = sorted(set(variables))
    if len(vs) > cap:
        raise FormulaError(f"{len(vs)} variables exceed the enumeration cap {cap}")
    if vs and vs[0] < 1:
        raise FormulaError(f"variable ids start at 1, got {vs[0]}")
    for m in range(1 << len(vs)):
        yield _assignment(tuple((v, (m >> i) & 1) for i, v in enumerate(vs)))


def _check_declared(f: CnfFormula, variables: Iterable[int]) -> None:
    """Reject an assignment to a variable F does not declare."""
    extra = sorted(frozenset(variables) - f.variables - f.free_vars)
    if extra:
        raise FormulaError(f"assignment mentions undeclared variables {extra}")


def reduce(f: CnfFormula, tau: Assignment) -> CnfFormula:
    """Apply a partial assignment: drop satisfied clauses, strip false literals.

    Surviving clauses keep their ids; a clause whose literals are all set to 0
    stays as a zero-literal clause, and a clause tau does not touch is kept
    as it is. Variables that vanish without being assigned are not recorded
    anywhere on the result (callers interested in them compare variable sets
    of the two formulas). The empty assignment returns f itself.
    """
    if not tau:
        return f
    values = dict(tau.items())
    _check_declared(f, values)
    assigned = values.keys()
    new_clauses: list[Clause] = []
    for c in f.clauses:
        if assigned.isdisjoint(c.variables):
            new_clauses.append(c)
            continue
        kept: list[int] = []
        for x in c.lits:
            val = values.get(abs(x))
            if val is None:
                kept.append(x)
            elif val == (x > 0):
                break
        else:
            new_clauses.append(_clause(c.id, tuple(kept), c.variables.difference(values)))
    return CnfFormula(tuple(new_clauses), f.free_vars.difference(values))


def delete_vars(f: CnfFormula, b: Iterable[int]) -> CnfFormula:
    """Remove both literals of every variable in b; clauses are never deleted."""
    bset = frozenset(b)
    if not bset <= f.variables:
        extra = sorted(bset - f.variables)
        raise FormulaError(f"deletion set mentions non-occurring variables {extra}")
    new_clauses = tuple(
        _clause(c.id, tuple(x for x in c.lits if abs(x) not in bset), c.variables - bset)
        for c in f.clauses
    )
    return CnfFormula(new_clauses, f.free_vars)


def parse_dimacs(source) -> CnfFormula:
    """Parse DIMACS CNF text (or a file-like object yielding it).

    Lines are those of `str.splitlines`. A line whose first token starts
    with 'c' is a comment and a blank line is nothing, wherever either
    stands. The first other line is the header 'p cnf <vars> <clauses>',
    and the clause data after it is one stream of int tokens, each clause
    ended by a 0, split across lines or joined on one as it comes.
    Duplicate literals inside a clause collapse silently. A clause with a
    complementary pair is true under every assignment, so it is dropped
    and takes no clause id. Variables declared in the header but occurring
    in no clause (including one that occurred only in dropped clauses) are
    recorded as free variables. A header declaring CLAUSE_VERTEX_STRIDE
    variables or more is an error.

    The text is read in bulk (`_read_dimacs`). Text it rejects is scanned
    line by line for its first error (`_raise_dimacs_error`), so a
    DimacsError names the line it found.
    """
    text = source.read() if hasattr(source, "read") else source
    f = _read_dimacs(text)
    if f is None:
        _raise_dimacs_error(text)
    return f


def _read_dimacs(text: str) -> CnfFormula | None:
    """The formula of valid DIMACS text, read with the work per token in C:
    one `map(int, ...)` over the clause tokens, clause ends found by
    `tuple.index`, and one `max` over the union of the clauses' variables
    for the range check. None for any text that has an error, which this
    reader does not locate."""
    lines = text.splitlines(keepends=True)
    head = 0  # characters up to the end of the header line
    for raw in lines:
        head += len(raw)
        toks = raw.split()
        if toks and toks[0][0] != "c":
            break
    else:
        return None
    if len(toks) != 4 or toks[0] != "p" or toks[1] != "cnf":
        return None
    try:
        num_vars, _declared_clauses = int(toks[2]), int(toks[3])
    except ValueError:
        return None
    if not 0 <= num_vars < CLAUSE_VERTEX_STRIDE:
        return None
    body = text[head:]
    if "c" in body:  # no int token holds a 'c', so only now can a comment line follow the header
        body = "".join(line for line in body.splitlines(keepends=True) if line.lstrip()[:1] != "c")
    try:
        lits = tuple(map(int, body.split()))
    except ValueError:
        return None
    if lits and lits[-1]:  # an unterminated final clause
        return None
    chunks: list[tuple[int, ...]] = []
    index, start = lits.index, 0
    while start < len(lits):
        end = index(0, start)
        if end == start:  # a 0 with no literals
            return None
        chunks.append(lits[start:end])
        start = end + 1
    varsets = [frozenset(map(abs, c)) for c in chunks]
    used = frozenset().union(*varsets)
    if max(used, default=0) > num_vars:
        return None
    if list(map(len, varsets)) != list(map(len, chunks)):  # a repeated literal or a complementary pair
        kept: list[tuple[int, ...]] = []
        kept_vars: list[frozenset[int]] = []
        for c, vs in zip(chunks, varsets):
            c = tuple(dict.fromkeys(c))
            if len(c) == len(vs):  # else a complementary pair: true under every assignment
                kept.append(c)
                kept_vars.append(vs)
        chunks, varsets = kept, kept_vars
        used = frozenset().union(*varsets)
    clauses = tuple(map(_clause, range(1, len(chunks) + 1), chunks, varsets))
    f = object.__new__(CnfFormula)
    f._set(clauses, frozenset(range(1, num_vars + 1)) - used, used, dict(enumerate(clauses, start=1)))
    return f


def _raise_dimacs_error(text: str) -> NoReturn:
    """Raise the first error of DIMACS text that `_read_dimacs` rejected,
    naming its line: the line-by-line reading of `parse_dimacs`, which
    tracks only whether a clause is open and builds none."""
    num_vars = None
    pending = False
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
                pending = True
            elif not pending:
                raise DimacsError(f"line {lineno}: empty clause (0 with no literals)")
            else:
                pending = False
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated final clause (missing 0)")
    raise AssertionError("the bulk DIMACS reader rejected text with no error")


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS: 'p cnf <max-var-id> <#clauses>', clauses 0-terminated.

    A zero-literal clause has no DIMACS line that `parse_dimacs` reads back
    (a bare 0 is an error there), so it raises FormulaError instead.
    """
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        if not c.lits:
            raise FormulaError(f"clause {c.id} is empty and has no DIMACS form")
        lines.append(" ".join(map(str, c.lits)) + " 0")
    return "\n".join(lines) + "\n"
