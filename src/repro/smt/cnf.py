"""CNF formula builder shared by the bit-blaster and the SAT solver.

Variables are positive integers starting at 1; a literal is ``+v`` or
``-v``.  Variable 1 is reserved as the constant *true* (a unit clause pins
it), which lets the bit-blaster represent constant bits as literals
without special cases.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Sequence


def decode_clauses(flat: Sequence[int], start: int = 0) -> List[List[int]]:
    """Split a 0-terminated flat literal buffer (from ``start``) into clauses."""
    clauses: List[List[int]] = []
    clause: List[int] = []
    for position in range(start, len(flat)):
        lit = flat[position]
        if lit == 0:
            clauses.append(clause)
            clause = []
        else:
            clause.append(lit)
    return clauses


class CNFBuilder:
    """Accumulates clauses and allocates variables for one solver query.

    Clauses are stored once, in ``flat``: one contiguous ``array('i')``
    of literals with a ``0`` after each clause, the form backends with a
    bulk-feed path (``add_clause_stream``) ingest without materializing a
    Python list per clause.  ``num_clauses`` counts them; ``clauses`` is a
    list view decoded on demand for per-clause consumers.
    """

    def __init__(self) -> None:
        self._num_vars = 1  # variable 1 is the constant-true variable
        self.flat: array = array("i", [self.TRUE, 0])
        self.num_clauses = 1

    #: Literal that is always true / always false in every model.
    TRUE = 1
    FALSE = -1

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def clauses(self) -> List[List[int]]:
        """Every clause as a literal list (decoded from ``flat`` on each access)."""
        return decode_clauses(self.flat)

    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def _check(self, *literals: int) -> None:
        for lit in literals:
            if lit == 0 or abs(lit) > self._num_vars:
                raise ValueError(f"literal {lit} out of range (have {self._num_vars} vars)")

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause (a disjunction of literals)."""
        clause = list(literals)
        self._check(*clause)
        self.flat.extend(clause)
        self.flat.append(0)
        self.num_clauses += 1

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # -- gate encodings (Tseitin) ----------------------------------------------------

    def lit_not(self, a: int) -> int:
        return -a

    def lit_and(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a AND b``."""
        if a == self.FALSE or b == self.FALSE:
            return self.FALSE
        if a == self.TRUE:
            return b
        if b == self.TRUE:
            return a
        if a == b:
            return a
        if a == -b:
            return self.FALSE
        self._check(a, b)
        out = self.new_var()
        self.flat.extend((-a, -b, out, 0, a, -out, 0, b, -out, 0))
        self.num_clauses += 3
        return out

    def lit_or(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a OR b``."""
        return -self.lit_and(-a, -b)

    def lit_xor(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a XOR b``."""
        if a == self.FALSE:
            return b
        if b == self.FALSE:
            return a
        if a == self.TRUE:
            return -b
        if b == self.TRUE:
            return -a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        self._check(a, b)
        out = self.new_var()
        self.flat.extend(
            (-a, -b, -out, 0, a, b, -out, 0, a, -b, out, 0, -a, b, out, 0)
        )
        self.num_clauses += 4
        return out

    def lit_iff(self, a: int, b: int) -> int:
        """Return a literal equivalent to ``a <=> b``."""
        return -self.lit_xor(a, b)

    def lit_ite(self, cond: int, then: int, other: int) -> int:
        """Return a literal equivalent to ``cond ? then : other``."""
        if cond == self.TRUE:
            return then
        if cond == self.FALSE:
            return other
        if then == other:
            return then
        self._check(cond, then, other)
        out = self.new_var()
        self.flat.extend(
            (
                -cond, -then, out, 0,
                -cond, then, -out, 0,
                cond, -other, out, 0,
                cond, other, -out, 0,
            )
        )
        self.num_clauses += 4
        return out

    def lit_and_many(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of ``literals``."""
        pending = [lit for lit in literals if lit != self.TRUE]
        if any(lit == self.FALSE for lit in pending):
            return self.FALSE
        if not pending:
            return self.TRUE
        if len(pending) == 1:
            return pending[0]
        out = self.new_var()
        for lit in pending:
            self.add_clause([lit, -out])
        self.add_clause([-lit_ for lit_ in pending] + [out])
        return out

    def lit_or_many(self, literals: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of ``literals``."""
        return -self.lit_and_many([-lit for lit in literals])

    def assert_lit(self, literal: int) -> None:
        """Force a literal to be true in every model."""
        self.add_clause([literal])
