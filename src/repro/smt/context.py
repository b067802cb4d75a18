"""Incremental, assumption-based solving core.

This module is the persistent counterpart of the one-shot :class:`Solver`
facade.  A :class:`SolverContext` keeps one CNF, one bit-blaster and one
CDCL solver alive for its whole lifetime:

* every distinct (hash-consed) boolean term is Tseitin-encoded **once**,
  the first time it is seen — repeat queries over shared constraint
  prefixes reuse the encoding and the SAT solver's variable maps;
* queries are decided with ``check_assumptions``: the context passes the
  root literal of each active constraint as a CDCL assumption instead of
  asserting unit clauses, so the clause database never has to be rebuilt
  or retracted and **learned clauses remain valid across queries**;
* ``push``/``pop`` scope which constraints are active.  Popping is O(1)
  bookkeeping — the encodings stay behind for when the terms return,
  which is exactly what happens along a symbolic-execution fork tree or
  a DFS walk over composed pipeline routes.

:class:`AssumptionChecker` layers the two services the symbex and verify
layers need on top: *alignment* of the context's scope stack to a query's
constraint prefix (so append-only constraint lists share work with their
siblings), and a feasibility memo keyed on interned term uids.

Both classes optionally route through the **query-optimization layer**
(:mod:`repro.smt.qcache`): the query is partitioned into
variable-independent slices, each slice is answered by the cheapest cache
tier that can (exact verdict, unsat-core subset, SAT superset, model
reuse, persistent L3), and only unseen slices reach this context's CDCL
core — tried first with the interval quick check, since slices are small
enough for it to succeed where whole conjunctions are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.stats import StatisticsMixin
from ..obs.trace import clock
from .backend import make_sat_solver
from .bitblast import BitBlaster
from .cnf import CNFBuilder, decode_clauses
from .errors import SolverError
from .interval import QuickCheckResult, quick_check
from .model import Model, model_from_bits
from .qcache import QueryCache
from .sat import SatResult
from .simplify import simplify
from .solver import CheckResult
from .terms import Term, intern_term, mk_and


@dataclass
class ContextStatistics(StatisticsMixin):
    """Counters describing the work of one :class:`SolverContext`."""

    checks: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    terms_encoded: int = 0
    literals_reused: int = 0
    #: Times the CDCL core actually ran a search.  With the query cache
    #: attached this counts per-slice solves; cache and quick-check
    #: answers never reach it — the counter the optimization layer is
    #: judged by.
    sat_core_calls: int = 0
    #: Slice sub-queries handed to this context by the query cache.
    slices_solved: int = 0
    #: Slice sub-queries the interval quick check decided (no SAT call).
    quick_check_hits: int = 0
    #: Slice questions answered by the query cache without solving.
    qcache_hits: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    learned_clauses: int = 0
    #: Root-level bit-blasting passes of the shared blaster (distinct
    #: roots encoded), and the node questions its uid-keyed cache
    #: answered instead — the evidence that shared subterms blast once.
    blast_passes: int = 0
    blast_cache_hits: int = 0
    #: Encode *sweeps* over slice sets: the unbatched path pays one per
    #: core-reaching slice, the batched arena one per whole slice set —
    #: so with batching this stays below ``slices_solved``.
    encode_passes: int = 0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0

    #: ``learned_clauses`` is a gauge of the persistent core's clause
    #: database, not a per-run delta — merging takes the larger database.
    MERGE_MAX = ("learned_clauses",)


class SolverContext:
    """A persistent incremental solver over the QF_BV term language.

    Unlike :class:`repro.smt.solver.Solver`, which re-simplifies,
    re-bit-blasts and re-solves the full conjunction on every ``check``,
    a context accumulates state monotonically: the CNF only ever grows
    (with Tseitin definitions, which are unconditionally valid), and the
    SAT solver keeps its learned clauses, variable activities and saved
    phases between calls.
    """

    def __init__(
        self,
        max_conflicts: Optional[int] = 200_000,
        query_cache: Optional[QueryCache] = None,
        sat_backend: Optional[str] = None,
    ) -> None:
        """``query_cache`` routes every check through the slicing/cache
        layer; ``None`` keeps the direct assumption-solving path (the
        differential-testing baseline).  ``sat_backend`` names the CDCL
        core (see :mod:`repro.smt.backend`); ``None`` takes the default."""
        self._cnf = CNFBuilder()
        self._blaster = BitBlaster(self._cnf)
        self.sat_backend = sat_backend
        self._sat = make_sat_solver(sat_backend, self._cnf.num_vars)
        self._clauses_fed = 0
        self._flat_fed = 0
        self._max_conflicts = max_conflicts
        self.query_cache = query_cache
        # Scope stack of asserted terms; scope 0 is the root and never popped.
        self._scopes: List[List[Term]] = [[]]
        # Interned-term uid -> (term, root literal).  Holding the term keeps
        # every encoded subterm alive, which keeps the blaster's id-keyed
        # caches sound.
        self._literals: Dict[int, Tuple[Term, int]] = {}
        self._model: Optional[Model] = None
        self.statistics = ContextStatistics()

    # -- assertion scoping ---------------------------------------------------------

    def push(self) -> None:
        """Open a new assertion scope."""
        self._scopes.append([])

    def pop(self) -> None:
        """Deactivate the constraints of the innermost scope (O(1); encodings stay)."""
        if len(self._scopes) == 1:
            raise SolverError("pop() without a matching push()")
        self._scopes.pop()

    @property
    def depth(self) -> int:
        """Number of open scopes above the root."""
        return len(self._scopes) - 1

    def assert_term(self, *constraints: Term) -> None:
        """Assert boolean terms in the current scope."""
        for constraint in constraints:
            if not isinstance(constraint, Term) or not constraint.is_bool():
                raise SolverError(f"only boolean terms can be asserted, got {constraint!r}")
            self._scopes[-1].append(constraint)

    def assertions(self) -> List[Term]:
        """All currently active assertions, outermost scope first."""
        return [term for scope in self._scopes for term in scope]

    # -- solving -------------------------------------------------------------------

    def check_assumptions(self, *extra: Term) -> str:
        """Decide satisfiability of the active assertions plus ``extra``.

        ``extra`` terms are temporary assumptions for this call only; they
        are encoded (and their encodings retained for reuse) but never
        asserted.
        """
        started = clock()
        self.statistics.checks += 1
        self._model = None

        if self.query_cache is not None:
            return self._check_optimized(extra, started)

        roots: List[Term] = []
        trivially_unsat = False
        for term in self.assertions() + [t for t in extra]:
            reduced = simplify(term)
            if reduced.is_true():
                continue
            if reduced.is_false():
                trivially_unsat = True
                break
            self._literal(reduced)
            roots.append(reduced)
        self.statistics.encode_seconds += clock() - started

        if trivially_unsat:
            return self._finish(CheckResult.UNSAT)

        solve_started = clock()
        status, model = self._solve_assumptions(roots)
        self.statistics.solve_seconds += clock() - solve_started
        self._model = model
        return self._finish(status)

    def _check_optimized(self, extra: Sequence[Term], started: float) -> str:
        """Decide the active assertions + ``extra`` through the query cache.

        Every constraint travels as a per-call assumption: the cache's
        slicing makes prefix bookkeeping unnecessary, and the persistent
        encodings/learned clauses of this context still back every slice
        that actually has to be solved.
        """
        terms: List[Term] = []
        for term in list(self.assertions()) + list(extra):
            reduced = simplify(term)
            if reduced.is_true():
                continue
            if reduced.is_false():
                self.statistics.encode_seconds += clock() - started
                return self._finish(CheckResult.UNSAT)
            terms.append(intern_term(reduced))
        self.statistics.encode_seconds += clock() - started

        solve_started = clock()
        hits_before = self.query_cache.statistics.hits
        status, model = self.query_cache.check(
            terms, self._solve_slice, make_batch=self._make_batch
        )
        self.statistics.qcache_hits += self.query_cache.statistics.hits - hits_before
        self.statistics.solve_seconds += clock() - solve_started
        if status == CheckResult.SAT:
            self._model = model if model is not None else Model({})
        return self._finish(status)

    def _solve_slice(self, terms: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """Decide one variable-independent slice on the persistent core.

        Slices are small, so the interval quick check — useless on whole
        path conjunctions — resolves most of them outright; the rest are
        one assumption solve on the retained CNF.
        """
        self.statistics.slices_solved += 1
        goal = terms[0] if len(terms) == 1 else mk_and(*terms)
        quick = quick_check(goal)
        if quick.status == QuickCheckResult.UNSAT:
            self.statistics.quick_check_hits += 1
            return CheckResult.UNSAT, None
        if quick.status == QuickCheckResult.SAT:
            self.statistics.quick_check_hits += 1
            return CheckResult.SAT, Model(quick.model)

        # Unbatched: one encode sweep per core-reaching slice.
        self.statistics.encode_passes += 1
        for term in terms:
            self._literal(term)
        return self._solve_assumptions(terms)

    def _make_batch(self, groups: Sequence[Sequence[Term]]) -> List:
        """Batched slice solving on the persistent core: one encode, N solves.

        The per-slice path encodes and feeds each missed slice on its
        own; the batch hook instead Tseitin-encodes *every* slice's root
        into the shared CNF the first time any slice actually needs the
        core, then streams the new clauses to the solver in one
        ``_feed_clauses`` call.  Ite-lifted merge constraints share most
        of their sub-DAG across slices, so the uid-keyed blast cache
        turns the remaining slices' encodings into lookups — one
        bit-blasting pass over the shared subterms instead of one per
        slice.  Each slice is still decided by its own assumption solve,
        so verdicts, counters and the one-UNSAT short-circuit match the
        unbatched path.
        """
        state: Dict[str, object] = {}

        def ensure_encoded() -> None:
            if state:
                return
            # One encode sweep covers every slice of the arena.
            self.statistics.encode_passes += 1
            for terms in groups:
                for term in terms:
                    self._literal(term)
            self._feed_clauses()
            state["encoded"] = True

        def solve_group(index: int):
            def run(terms: Sequence[Term]) -> Tuple[str, Optional[Model]]:
                self.statistics.slices_solved += 1
                goal = terms[0] if len(terms) == 1 else mk_and(*terms)
                quick = quick_check(goal)
                if quick.status == QuickCheckResult.UNSAT:
                    self.statistics.quick_check_hits += 1
                    return CheckResult.UNSAT, None
                if quick.status == QuickCheckResult.SAT:
                    self.statistics.quick_check_hits += 1
                    return CheckResult.SAT, Model(quick.model)
                ensure_encoded()
                return self._solve_assumptions(groups[index])

            return run

        return [solve_group(index) for index in range(len(groups))]

    def _solve_assumptions(self, roots: Sequence[Term]) -> Tuple[str, Optional[Model]]:
        """Run one CDCL search assuming the (already encoded) ``roots``.

        The search is scoped to the roots' cone: the encodings of every
        earlier query share this CNF, and the core need not assign them.
        The shared tail of the plain and optimized paths; ``solve_seconds``
        is deliberately the caller's concern (the optimized path times the
        whole cache interaction instead).
        """
        self._feed_clauses()
        literals = [self._literals[intern_term(root).uid][1] for root in roots]
        conflicts_before = self._sat.conflicts
        decisions_before = self._sat.decisions
        self.statistics.sat_core_calls += 1
        outcome = self._sat.solve(
            assumptions=literals,
            max_conflicts=self._max_conflicts,
            scope=self._blaster.cone(roots),
        )
        self.statistics.sat_conflicts += self._sat.conflicts - conflicts_before
        self.statistics.sat_decisions += self._sat.decisions - decisions_before
        self.statistics.learned_clauses = self._sat.learned_clause_count
        if outcome == SatResult.SAT:
            return CheckResult.SAT, model_from_bits(
                self._blaster.variable_bits(),
                self._blaster.boolean_variables(),
                self._sat.model(),
            )
        if outcome == SatResult.UNSAT:
            return CheckResult.UNSAT, None
        return CheckResult.UNKNOWN, None

    # ``check`` is an alias so the context can stand in for the scratch facade.
    check = check_assumptions

    def is_satisfiable(self, *extra: Term) -> bool:
        return self.check_assumptions(*extra) == CheckResult.SAT

    def is_unsatisfiable(self, *extra: Term) -> bool:
        return self.check_assumptions(*extra) == CheckResult.UNSAT

    def model(self) -> Model:
        """Model of the last satisfiable check."""
        if self._model is None:
            raise SolverError("model() is only available after a satisfiable check")
        return self._model

    # -- internals -----------------------------------------------------------------

    def _finish(self, status: str) -> str:
        if status == CheckResult.SAT:
            self.statistics.sat += 1
        elif status == CheckResult.UNSAT:
            self.statistics.unsat += 1
        else:
            self.statistics.unknown += 1
        # Blast counters are gauges of the context's one shared blaster;
        # syncing on every check keeps them current without per-node cost.
        self.statistics.blast_passes = self._blaster.passes
        self.statistics.blast_cache_hits = self._blaster.cache_hits
        return status

    def _literal(self, term: Term) -> int:
        """Root literal of a (simplified, interned) boolean term; encoded once ever."""
        term = intern_term(term)
        cached = self._literals.get(term.uid)
        if cached is not None:
            self.statistics.literals_reused += 1
            return cached[1]
        literal = self._blaster.blast_bool(term)
        self._literals[term.uid] = (term, literal)
        self.statistics.terms_encoded += 1
        return literal

    def _feed_clauses(self) -> None:
        """Hand newly generated CNF clauses (and variables) to the persistent SAT solver."""
        self._sat.reserve(self._cnf.num_vars)
        if self._clauses_fed == self._cnf.num_clauses:
            return
        if not getattr(self._sat, "trail_safe_feed", False):
            # The reference core requires a quiescent solver before new
            # clauses; the array core feeds under a live trail, keeping
            # its cached assumption levels (and their propagations).
            self._sat.cancel()
        flat = self._cnf.flat
        stream = getattr(self._sat, "add_clause_stream", None)
        if stream is not None:
            # Bulk path: feed the new tail of the 0-terminated flat
            # buffer in one call instead of one Python call per clause.
            stream(flat, self._flat_fed, len(flat))
        else:
            for clause in decode_clauses(flat, self._flat_fed):
                self._sat.add_clause(clause)
        self._flat_fed = len(flat)
        self._clauses_fed = self._cnf.num_clauses


class AssumptionChecker:
    """Feasibility oracle sharing one :class:`SolverContext` across queries.

    Callers hand over whole constraint lists (a path's prefix) plus query
    terms.  The checker aligns the context's scope stack to the longest
    common prefix with the previous query — cheap for the append-only
    constraint lists of a fork tree or a DFS route walk — and memoizes
    verdicts by the *set* of interned term uids, so structurally identical
    queries (however they were reassembled) are solved once.
    """

    #: Memo entries are dropped wholesale past this size: uids are never
    #: reused, so entries for collected terms can never be hit again.
    MEMO_LIMIT = 100_000

    def __init__(
        self,
        max_conflicts: Optional[int] = 200_000,
        query_cache: Optional[QueryCache] = None,
        sat_backend: Optional[str] = None,
    ) -> None:
        """``query_cache`` (shared freely between checkers) slices every
        query and reuses verdicts/models/cores across them; without one
        the checker keeps the prefix-alignment path.  ``sat_backend``
        picks the CDCL core backing the shared context."""
        self.context = SolverContext(
            max_conflicts=max_conflicts, query_cache=query_cache, sat_backend=sat_backend
        )
        self.query_cache = query_cache
        self._stack: List[Term] = []
        # Verdicts only — models are not pinned here; a SAT repeat that
        # needs one re-solves on the warm context (or its cache) instead.
        self._memo: Dict[frozenset, str] = {}
        self.memo_hits = 0
        self.checks = 0

    # -- prefix alignment ----------------------------------------------------------

    def align(self, constraints: Sequence[Term]) -> None:
        """Re-derive the context's scope stack for this constraint prefix.

        One scope per constraint: sibling paths that share a prefix of
        length p keep p scopes (and their encodings) and only push/pop the
        divergent suffix.
        """
        common = 0
        for current, wanted in zip(self._stack, constraints):
            if current is not wanted and intern_term(current) is not intern_term(wanted):
                break
            common += 1
        while len(self._stack) > common:
            self.context.pop()
            self._stack.pop()
        for term in constraints[common:]:
            self.context.push()
            self.context.assert_term(term)
            self._stack.append(term)

    # -- querying ------------------------------------------------------------------

    def check(
        self, constraints: Sequence[Term], extra: Sequence[Term] = (), need_model: bool = False
    ) -> Tuple[str, Optional[Model]]:
        """Decide ``constraints ∧ extra``; returns (status, model-or-None).

        Pass ``need_model=True`` when the caller will consume the model of a
        satisfiable check; a memoized SAT verdict then re-solves (cheap on
        the warm context) instead of returning a pinned model.
        """
        self.checks += 1
        key = frozenset(
            intern_term(term).uid for term in list(constraints) + list(extra)
        )
        cached = self._memo.get(key)
        if cached is not None and not (need_model and cached == CheckResult.SAT):
            self.memo_hits += 1
            return cached, None
        if self.query_cache is not None:
            # Slicing subsumes prefix alignment: unchanged slices hit the
            # cache whatever the constraint order, so everything travels
            # as per-call assumptions and the scope stack stays empty.
            status = self.context.check_assumptions(*constraints, *extra)
        else:
            self.align(constraints)
            status = self.context.check_assumptions(*extra)
        model = self.context.model() if need_model and status == CheckResult.SAT else None
        if len(self._memo) >= self.MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = status
        return status, model

    def is_feasible(self, constraints: Sequence[Term], extra: Sequence[Term] = ()) -> bool:
        return self.check(constraints, extra)[0] == CheckResult.SAT

    @property
    def statistics(self) -> ContextStatistics:
        return self.context.statistics
