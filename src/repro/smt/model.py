"""Models (satisfying assignments) returned by the solver."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from .evaluate import FilledAssignment, Value, evaluate
from .terms import Term


class Model:
    """A satisfying assignment mapping variable names to concrete values.

    Variables that do not appear in the assignment are treated as zero /
    false when evaluating terms: the solver only records variables that
    were relevant to the query, and any value works for the others.  The
    default is applied inside the evaluator's walk, so evaluation never
    collects a term's free variables first.

    A model holds no evaluation memo of its own.  A caller that checks
    many terms against one model (the query cache's model pool) owns the
    memo and passes it in, which decides how long the memo lives.
    """

    def __init__(self, assignment: Mapping[str, Value] | None = None) -> None:
        self._assignment: Dict[str, Value] = dict(assignment or {})

    def __getitem__(self, name: str) -> Value:
        return self._assignment[name]

    def get(self, name: str, default: Value = 0) -> Value:
        return self._assignment.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._assignment

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self):
        return self._assignment.items()

    def as_dict(self) -> Dict[str, Value]:
        return dict(self._assignment)

    def evaluate(self, term: Term, memo: Optional[Dict[int, Value]] = None) -> Value:
        """Evaluate a term under this model (unbound variables default to 0/False).

        ``memo`` (optional, caller-owned) maps term uids to values under
        this model; see :func:`repro.smt.evaluate.evaluate`.
        """
        return evaluate(term, FilledAssignment(self._assignment, 0), memo)

    def satisfies(self, term: Term, memo: Optional[Dict[int, Value]] = None) -> bool:
        """True if the boolean term evaluates to true under this model."""
        return bool(self.evaluate(term, memo))

    def __repr__(self) -> str:
        entries = ", ".join(f"{k}={v}" for k, v in sorted(self._assignment.items()))
        return f"Model({entries})"


def model_from_bits(
    variable_bits: Mapping[tuple[str, int], list[int]],
    boolean_variables: Mapping[str, int],
    sat_assignment: list[bool],
) -> Model:
    """Build a model from the bit-blaster's variable map and a SAT assignment."""

    def lit_value(literal: int) -> bool:
        value = sat_assignment[abs(literal)] if abs(literal) < len(sat_assignment) else False
        return value if literal > 0 else not value

    assignment: Dict[str, Value] = {}
    for (name, _width), bits in variable_bits.items():
        value = 0
        for position, literal in enumerate(bits):
            if lit_value(literal):
                value |= 1 << position
        assignment[name] = value
    for name, literal in boolean_variables.items():
        assignment[name] = lit_value(literal)
    return Model(assignment)
