"""CNF formula core: parsing, sizing, partial assignment, literal deletion.

Formulas are immutable, so an operation that changes nothing, such as
reducing by the empty assignment, may return its input, and objects are
shared rather than rebuilt. One parse builds one `Literal` per distinct
signed literal; reduction and deletion reuse their input's literals, and
reduction its untouched clauses; a formula's packed form
(`CnfFormula.packed`, the width oracle's key) is computed once per formula
object. Clause ids are assigned in input order and survive reduction and
deletion, so downstream consumers (witness extraction, obstruction
templates) can track clauses across derived formulas.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

ASSIGNMENT_CAP = 30

# Incidence graphs number clause vertices from this id on (graphs.clause_vertex),
# so variable ids stay below it.
CLAUSE_VERTEX_STRIDE = 1_000_000


class FormulaError(ValueError):
    """Invalid formula construction or misuse of a formula operation."""


class DimacsError(FormulaError):
    """Malformed DIMACS CNF input."""


@dataclass(frozen=True, order=True)
class Literal:
    """A signed occurrence of a variable."""

    var: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.var < 1:
            raise FormulaError(f"variable ids start at 1, got {self.var}")

    @classmethod
    def from_int(cls, lit: int) -> "Literal":
        if lit == 0:
            raise FormulaError("0 is not a literal")
        return cls(abs(lit), lit > 0)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    def __str__(self) -> str:
        return str(self.to_int())


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over pairwise distinct variables.

    A clause may be empty (zero literals); such clauses are unsatisfiable but
    legal objects, so reduction stays total.
    """

    id: int
    literals: tuple[Literal, ...]
    variables: frozenset[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        seen: dict[int, bool] = {}
        for lit in self.literals:
            if lit.var in seen:
                if seen[lit.var] != lit.positive:
                    raise FormulaError(
                        f"clause {self.id} contains a complementary pair on {lit.var}"
                    )
                raise FormulaError(f"clause {self.id} repeats literal {lit}")
            seen[lit.var] = lit.positive
        object.__setattr__(self, "variables", frozenset(seen))

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)


def clause_of(cid: int, *lits: int) -> Clause:
    """Build a clause from signed ints, collapsing duplicate literals."""
    out: list[Literal] = []
    seen: set[int] = set()
    for raw in lits:
        if raw in seen:
            continue
        seen.add(raw)
        out.append(Literal.from_int(raw))
    return Clause(cid, tuple(out))


class Assignment:
    """Partial truth assignment: maps each domain variable to 0 or 1."""

    __slots__ = ("_items",)

    def __init__(self, values: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = sorted(values.items() if isinstance(values, Mapping) else values)
        for var, val in pairs:
            if var < 1:
                raise FormulaError(f"variable ids start at 1, got {var}")
            if val not in (0, 1):
                raise FormulaError(f"assignment value must be 0 or 1, got {val}")
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
        return Assignment(self._items + other._items)


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula plus the declared-but-unused (free) variables."""

    clauses: tuple[Clause, ...]
    free_vars: frozenset[int] = frozenset()
    variables: frozenset[int] = field(init=False, compare=False, repr=False)
    clauses_by_id: Mapping[int, Clause] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_id: dict[int, Clause] = {}
        used: set[int] = set()
        for c in self.clauses:
            if c.id in by_id:
                raise FormulaError(f"duplicate clause id {c.id}")
            by_id[c.id] = c
            used |= c.variables
        if used & self.free_vars:
            raise FormulaError("free_vars overlap occurring variables")
        object.__setattr__(self, "variables", frozenset(used))
        object.__setattr__(self, "clauses_by_id", by_id)

    @property
    def num_vars(self) -> int:
        return max(self.variables | self.free_vars, default=0)

    @cached_property
    def packed(self) -> bytes:
        """The formula packed into one bytes object, built on first request
        and kept: equal bytes iff equal formulas. Free variables, then each
        clause as id, length and signed literals."""
        out = array("q", sorted(self.free_vars))
        out.append(-1)
        for c in self.clauses:
            out.append(c.id)
            out.append(len(c.literals))
            out.extend([lit.var if lit.positive else -lit.var for lit in c.literals])
        return out.tobytes()


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
    for m in range(1 << len(vs)):
        yield Assignment({v: (m >> i) & 1 for i, v in enumerate(vs)})


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
    extra = sorted(v for v in values if v not in f.variables and v not in f.free_vars)
    if extra:
        raise FormulaError(f"assignment mentions undeclared variables {extra}")
    assigned = values.keys()
    new_clauses: list[Clause] = []
    for c in f.clauses:
        if assigned.isdisjoint(c.variables):
            new_clauses.append(c)
            continue
        kept: list[Literal] = []
        for lit in c.literals:
            val = values.get(lit.var)
            if val is None:
                kept.append(lit)
            elif val == lit.positive:
                break
        else:
            new_clauses.append(Clause(c.id, tuple(kept)))
    return CnfFormula(tuple(new_clauses), f.free_vars.difference(values))


def delete_vars(f: CnfFormula, b: Iterable[int]) -> CnfFormula:
    """Remove both literals of every variable in b; clauses are never deleted."""
    bset = frozenset(b)
    if not bset <= f.variables:
        extra = sorted(bset - f.variables)
        raise FormulaError(f"deletion set mentions non-occurring variables {extra}")
    new_clauses = tuple(
        Clause(c.id, tuple(l for l in c.literals if l.var not in bset)) for c in f.clauses
    )
    return CnfFormula(new_clauses, f.free_vars)


def parse_dimacs(source) -> CnfFormula:
    """Parse DIMACS CNF text (or a file-like object yielding it).

    Comment lines starting with 'c' are ignored anywhere; duplicate literals
    inside a clause collapse silently. A clause with a complementary pair is
    true under every assignment, so it is dropped and takes no clause id.
    Variables declared in the header but occurring in no clause (including
    one that occurred only in dropped clauses) are recorded as free
    variables. A header declaring CLAUSE_VERTEX_STRIDE variables or more is
    an error. Each distinct signed literal becomes one `Literal`, built on
    its first occurrence and shared by every clause it occurs in.
    """
    text = source.read() if hasattr(source, "read") else source
    num_vars = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_seen: dict[int, int] = {}
    literal_of: dict[int, Literal] = {}
    tautology = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, _declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
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
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from exc
            if lit == 0:
                if not pending:
                    raise DimacsError(f"line {lineno}: empty clause (0 with no literals)")
                if not tautology:
                    lits = []
                    for x in pending:
                        literal = literal_of.get(x)
                        if literal is None:
                            literal = literal_of[x] = Literal.from_int(x)
                        lits.append(literal)
                    clauses.append(Clause(len(clauses) + 1, tuple(lits)))
                pending = []
                pending_seen = {}
                tautology = False
                continue
            var = abs(lit)
            if var > num_vars:
                raise DimacsError(f"line {lineno}: variable {var} exceeds declared {num_vars}")
            if var in pending_seen:
                if pending_seen[var] != lit:
                    tautology = True
                continue
            pending_seen[var] = lit
            pending.append(lit)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated final clause (missing 0)")
    used = frozenset().union(*(c.variables for c in clauses)) if clauses else frozenset()
    free = frozenset(range(1, num_vars + 1)) - used
    return CnfFormula(tuple(clauses), free)


def write_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS: 'p cnf <max-var-id> <#clauses>', clauses 0-terminated.

    A zero-literal clause has no DIMACS line that `parse_dimacs` reads back
    (a bare 0 is an error there), so it raises FormulaError instead.
    """
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for c in f.clauses:
        if not c.literals:
            raise FormulaError(f"clause {c.id} is empty and has no DIMACS form")
        lines.append(" ".join(str(l) for l in c.literals) + " 0")
    return "\n".join(lines) + "\n"
