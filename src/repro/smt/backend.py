"""The pluggable SAT-backend seam.

Every layer above the CDCL core (facades, incremental context, query
cache, CLI) selects its decision procedure by *name* through
:func:`make_sat_solver`:

* ``reference`` — :class:`repro.smt.sat.SATSolver`, the clarity-first
  from-scratch core.  Kept as the oracle: differential tests check every
  other backend against it.
* ``array`` — :class:`repro.smt.satcore.ArraySolver`, the flat-arena
  rewrite.  The default.
* ``external`` — a subprocess bridge to an installed DIMACS solver
  (minisat / kissat / cadical / picosat), the optional fast path.  Only
  selectable when a binary is actually present; :func:`make_sat_solver`
  raises otherwise so a missing binary is a loud configuration error,
  never a silent slowdown.

All backends speak the same protocol (:class:`SatBackend`): DIMACS
integer literals in, :class:`~repro.smt.sat.SatResult` strings out, a
``model()`` list indexed by variable.  ``solve``'s ``scope`` names the
variables a query reads (:meth:`repro.smt.bitblast.BitBlaster.cone`); it
is a permission, not a duty — a core may stop once those are assigned
(the array core does), or assign every variable as usual.  DIMACS emit/parse lives here too,
so differential testing across process boundaries falls out for free.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

from .errors import SolverError
from .sat import SATSolver, SatResult
from .satcore import ArraySolver

REFERENCE = "reference"
ARRAY = "array"
EXTERNAL = "external"

#: The backend used when callers do not choose one.
DEFAULT_BACKEND = ARRAY

#: Binaries probed for the ``external`` backend, in preference order.
EXTERNAL_SOLVER_CANDIDATES = ("kissat", "cadical", "minisat", "picosat")


class SatBackend(Protocol):
    """What the solver facades require of a SAT core."""

    conflicts: int
    decisions: int

    @property
    def num_vars(self) -> int: ...  # noqa: E704 - protocol stub

    @property
    def learned_clause_count(self) -> int: ...  # noqa: E704 - protocol stub

    def reserve(self, num_vars: int) -> None: ...  # noqa: E704 - protocol stub

    def add_clause(self, literals: Sequence[int]) -> bool: ...  # noqa: E704 - protocol stub

    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: Optional[int] = None,
              scope: Optional[Sequence[Tuple[int, int]]] = None) -> str: ...  # noqa: E704

    def model(self) -> List[bool]: ...  # noqa: E704 - protocol stub

    def cancel(self) -> None: ...  # noqa: E704 - protocol stub


def find_external_solver() -> Optional[str]:
    """Path of the first installed external DIMACS solver, or None.

    ``REPRO_SAT_SOLVER`` overrides the probe order (either a bare command
    name resolved on PATH or an absolute path).
    """
    override = os.environ.get("REPRO_SAT_SOLVER")
    if override:
        return shutil.which(override) or (override if os.path.exists(override) else None)
    for candidate in EXTERNAL_SOLVER_CANDIDATES:
        path = shutil.which(candidate)
        if path:
            return path
    return None


def available_backends() -> List[str]:
    """Backends selectable on this host (``external`` only with a binary)."""
    backends = [REFERENCE, ARRAY]
    if find_external_solver() is not None:
        backends.append(EXTERNAL)
    return backends


def make_sat_solver(
    backend: Optional[str] = None,
    num_vars: int = 0,
    max_learned: Optional[int] = None,
):
    """Construct the SAT core named ``backend`` (default :data:`DEFAULT_BACKEND`)."""
    backend = backend or DEFAULT_BACKEND
    if backend == ARRAY:
        if max_learned is not None:
            return ArraySolver(num_vars, max_learned=max_learned)
        return ArraySolver(num_vars)
    if backend == REFERENCE:
        solver = SATSolver(num_vars)
        if max_learned is not None:
            solver.max_learned = max_learned
        return solver
    if backend == EXTERNAL:
        return ExternalSolver(num_vars)
    raise SolverError(
        f"unknown SAT backend {backend!r} (expected one of: {REFERENCE}, {ARRAY}, {EXTERNAL})"
    )


# -- DIMACS ---------------------------------------------------------------------------


def to_dimacs(
    clauses: Iterable[Sequence[int]],
    num_vars: int,
    assumptions: Sequence[int] = (),
) -> str:
    """Render a clause set (plus assumptions as unit clauses) as DIMACS CNF."""
    lines: List[str] = []
    count = 0
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
        count += 1
    for lit in assumptions:
        lines.append(f"{lit} 0")
        count += 1
    header = f"p cnf {num_vars} {count}"
    return "\n".join([header] + lines) + "\n"


def parse_dimacs(text: str) -> Tuple[int, List[List[int]]]:
    """Parse DIMACS CNF text into (num_vars, clauses).

    Tolerant of comment lines and clauses spanning multiple lines; the
    inverse of :func:`to_dimacs` for round-trip testing.
    """
    num_vars = 0
    clauses: List[List[int]] = []
    current: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise SolverError(f"malformed DIMACS header: {line!r}")
            num_vars = int(fields[2])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        raise SolverError("DIMACS clause without a terminating 0")
    return num_vars, clauses


def parse_solver_output(text: str) -> Tuple[Optional[str], List[int]]:
    """Parse ``s``/``v`` solver output lines into (status, model literals).

    Handles both the SAT-competition format (``s SATISFIABLE`` + ``v``
    lines) and minisat's result-file format (``SAT`` + one literal line).
    """
    status: Optional[str] = None
    literals: List[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("S ") or upper in ("SAT", "UNSAT", "UNSATISFIABLE", "SATISFIABLE"):
            body = upper[2:].strip() if upper.startswith("S ") else upper
            if body.startswith("UNSAT"):
                status = SatResult.UNSAT
            elif body.startswith("SAT"):
                status = SatResult.SAT
            elif body.startswith("UNKNOWN"):
                status = SatResult.UNKNOWN
            continue
        if line[0] in "vV" and (len(line) == 1 or line[1].isspace()):
            line = line[1:]
        try:
            literals.extend(int(token) for token in line.split())
        except ValueError:
            continue  # banner / statistics line
    return status, [lit for lit in literals if lit != 0]


class ExternalSolver:
    """Subprocess bridge to an installed DIMACS solver.

    One-shot per ``solve``: the clause set plus the call's assumptions are
    written as a DIMACS file, the binary runs, and the verdict/model is
    parsed back.  No incremental state crosses calls (learned clauses are
    the subprocess's to keep), so ``learned_clause_count`` is always 0 —
    the seam's statistics stay honest.  A crash, timeout, or unparseable
    answer degrades to ``unknown``, which no cache tier ever persists.
    """

    def __init__(
        self,
        num_vars: int = 0,
        command: Optional[str] = None,
        timeout_seconds: float = 300.0,
    ) -> None:
        resolved = command or find_external_solver()
        if resolved is None:
            raise SolverError(
                "no external DIMACS solver found (install one of: "
                + ", ".join(EXTERNAL_SOLVER_CANDIDATES)
                + ", or set REPRO_SAT_SOLVER)"
            )
        self.command = resolved
        self.timeout_seconds = timeout_seconds
        self._num_vars = num_vars
        self._clauses: List[List[int]] = []
        self._model: List[bool] = []
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def learned_clause_count(self) -> int:
        return 0

    def reserve(self, num_vars: int) -> None:
        if num_vars > self._num_vars:
            self._num_vars = num_vars

    def add_clause(self, literals: Sequence[int]) -> bool:
        clause = list(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.reserve(abs(lit))
        if not clause:
            self._ok = False
            return False
        self._clauses.append(clause)
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def cancel(self) -> None:  # no cross-call state to undo
        return None

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,  # noqa: ARG002 - external budget unsupported
        scope: Optional[Sequence[Tuple[int, int]]] = None,  # noqa: ARG002 - a hint only
    ) -> str:
        """Run the external binary on the current clause set + assumptions.

        ``max_conflicts`` is not forwarded — external solvers answer
        definitively or time out (which degrades to ``unknown``).  The
        ``scope`` hint is not needed: the binary assigns every variable.
        """
        if not self._ok:
            return SatResult.UNSAT
        for lit in assumptions:
            self.reserve(abs(lit))
        dimacs = to_dimacs(self._clauses, self._num_vars, assumptions)
        status, literals = self._run(dimacs)
        if status == SatResult.SAT:
            self._model = [False] * (self._num_vars + 1)
            for lit in literals:
                var = abs(lit)
                if var <= self._num_vars:
                    self._model[var] = lit > 0
        return status or SatResult.UNKNOWN

    def _run(self, dimacs: str) -> Tuple[Optional[str], List[int]]:
        basename = os.path.basename(self.command)
        with tempfile.TemporaryDirectory(prefix="repro-sat-") as root:
            problem = os.path.join(root, "problem.cnf")
            with open(problem, "w") as handle:
                handle.write(dimacs)
            if "minisat" in basename:
                # minisat writes its verdict and model to a result file.
                result_path = os.path.join(root, "result.out")
                argv = [self.command, "-verb=0", problem, result_path]
            else:
                result_path = None
                argv = [self.command, problem]
            try:
                completed = subprocess.run(
                    argv,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    timeout=self.timeout_seconds,
                )
            except (OSError, subprocess.TimeoutExpired):
                return SatResult.UNKNOWN, []
            output = completed.stdout.decode("utf-8", "replace")
            if result_path is not None and os.path.exists(result_path):
                with open(result_path) as handle:
                    output = handle.read()
            # SAT solvers conventionally exit 10 (SAT) / 20 (UNSAT); the
            # parsed output is authoritative, the exit code the fallback.
            status, literals = parse_solver_output(output)
            if status is None:
                if completed.returncode == 10:
                    status = SatResult.SAT
                elif completed.returncode == 20:
                    status = SatResult.UNSAT
            return status, literals

    def model(self) -> List[bool]:
        return list(self._model)

    def value(self, var: int) -> bool:
        return bool(self._model[var]) if var < len(self._model) else False
