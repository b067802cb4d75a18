"""Bit-blasting of QF_BV terms into CNF.

Every bitvector term is translated into a list of SAT literals (least
significant bit first); every boolean term into a single literal.
Arithmetic uses ripple-carry adders, comparisons use ripple comparators,
shifts by symbolic amounts use barrel shifters, and division is encoded
through its multiplicative definition.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .cnf import CNFBuilder
from .errors import InvalidTermError
from .terms import Op, Term, intern_term


#: Sorted, disjoint, non-adjacent half-open variable intervals ``[lo, hi)``.
Cone = Tuple[Tuple[int, int], ...]


def _merge_cones(parts: Sequence[Cone]) -> Cone:
    """Union of interval tuples, coalescing overlapping and adjacent ones."""
    intervals = sorted(interval for part in parts for interval in part)
    merged: List[Tuple[int, int]] = []
    for low, high in intervals:
        if merged and low <= merged[-1][1]:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return tuple(merged)


class BitBlaster:
    """Translates terms to CNF over a shared :class:`CNFBuilder`.

    The node caches are keyed by *interned* term uid and pin the term
    they encode: uids are never reused while the term is alive, so a
    structurally identical term built later — an ite-lifted merge DAG
    reassembling shared subterms, a reserialized summary constraint —
    reinterns to the pinned instance and reuses its encoding instead of
    re-blasting.  (The former ``id(term)``-keyed cache could neither
    survive reconstruction nor safely outlive unpinned subterms.)

    Each encoded node also records its *cone*: the variables its
    encoding reads, as sorted disjoint half-open intervals — the
    variables allocated while blasting it plus its children's cones.
    Every clause the blaster emits is a definition of variables allocated
    for one node in terms of that node's cone, so an assignment to the
    cone of some roots that satisfies every clause over those variables
    extends to a model of the whole formula (see :meth:`cone`).

    ``passes`` counts root-level blasts that missed the cache — genuine
    bit-blasting passes — and ``cache_hits`` counts every node answered
    from the cache; together they are the measure of how much work the
    shared-arena batching saves (see the acceptance gate in
    ``benchmarks/bench_path_merge.py``).
    """

    def __init__(self, cnf: CNFBuilder | None = None) -> None:
        self.cnf = cnf if cnf is not None else CNFBuilder()
        # Bitvector variables are shared by name so that structurally distinct
        # occurrences of the same symbol map to the same SAT variables.
        self._bv_vars: Dict[Tuple[str, int], List[int]] = {}
        self._bool_vars: Dict[str, int] = {}
        # Structural caches keyed by interned uid; the pinned term keeps
        # the whole encoded sub-DAG (and its uids) alive.
        self._bv_cache: Dict[int, Tuple[Term, List[int]]] = {}
        self._bool_cache: Dict[int, Tuple[Term, int]] = {}
        self._cones: Dict[int, Cone] = {}
        self.passes = 0
        self.cache_hits = 0
        self._depth = 0

    # -- public API -------------------------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Assert that a boolean term holds."""
        literal = self.blast_bool(term)
        self.cnf.assert_lit(literal)

    def blast_bool(self, term: Term) -> int:
        """Return a literal equivalent to the boolean term."""
        if not term.is_bool():
            raise InvalidTermError(f"expected a boolean term, got {term!r}")
        term = intern_term(term)
        cached = self._bool_cache.get(term.uid)
        if cached is not None:
            self.cache_hits += 1
            return cached[1]
        if self._depth == 0:
            self.passes += 1
        self._depth += 1
        first_var = self.cnf.num_vars + 1
        try:
            literal = self._blast_bool(term)
        finally:
            self._depth -= 1
        self._bool_cache[term.uid] = (term, literal)
        self._record_cone(term, first_var)
        return literal

    def blast_bv(self, term: Term) -> List[int]:
        """Return the list of literals (LSB first) encoding a bitvector term."""
        if not term.is_bitvec():
            raise InvalidTermError(f"expected a bitvector term, got {term!r}")
        term = intern_term(term)
        cached = self._bv_cache.get(term.uid)
        if cached is not None:
            self.cache_hits += 1
            return cached[1]
        if self._depth == 0:
            self.passes += 1
        self._depth += 1
        first_var = self.cnf.num_vars + 1
        try:
            bits = self._blast_bv(term)
        finally:
            self._depth -= 1
        if len(bits) != term.width:
            raise InvalidTermError(
                f"internal bit-blasting error: {term.op} produced {len(bits)} bits, "
                f"expected {term.width}"
            )
        self._bv_cache[term.uid] = (term, bits)
        self._record_cone(term, first_var)
        return bits

    def cone(self, roots: Sequence[Term]) -> Cone:
        """Variable intervals the encodings of ``roots`` (all blasted) read.

        A SAT core may stop at a conflict-free propagation fixpoint that
        assigns every variable of this cone: the variables outside it are
        defined by clauses that any value of their inputs satisfies (a
        Tseitin gate output, a division's quotient and remainder), so the
        assignment extends to a model of every clause, learned ones
        included.  Variable 1 (constant true) is always in the cone.
        """
        cones = self._cones
        parts = [cones[intern_term(root).uid] for root in roots]
        parts.append(((1, 2),))
        return _merge_cones(parts)

    def _record_cone(self, term: Term, first_var: int) -> None:
        cones = self._cones
        # Constant shift amounts are never blasted: they read no variables.
        parts = [cones.get(arg.uid, ()) for arg in term.args]
        end = self.cnf.num_vars + 1
        if end > first_var:
            parts.append(((first_var, end),))
        cones[term.uid] = parts[0] if len(parts) == 1 else _merge_cones(parts)

    def variable_bits(self) -> Dict[Tuple[str, int], List[int]]:
        """Mapping from (variable name, width) to its SAT literals (for model extraction)."""
        return dict(self._bv_vars)

    def boolean_variables(self) -> Dict[str, int]:
        return dict(self._bool_vars)

    # -- boolean terms ------------------------------------------------------------------

    def _blast_bool(self, term: Term) -> int:
        cnf = self.cnf
        op = term.op
        if op == Op.BOOL_CONST:
            return cnf.TRUE if term.value else cnf.FALSE
        if op == Op.BOOL_VAR:
            assert term.name is not None
            literal = self._bool_vars.get(term.name)
            if literal is None:
                literal = cnf.new_var()
                self._bool_vars[term.name] = literal
            return literal
        if op == Op.NOT:
            return -self.blast_bool(term.args[0])
        if op == Op.AND:
            return cnf.lit_and_many([self.blast_bool(arg) for arg in term.args])
        if op == Op.OR:
            return cnf.lit_or_many([self.blast_bool(arg) for arg in term.args])
        if op == Op.XOR:
            return cnf.lit_xor(self.blast_bool(term.args[0]), self.blast_bool(term.args[1]))
        if op == Op.IMPLIES:
            return cnf.lit_or(-self.blast_bool(term.args[0]), self.blast_bool(term.args[1]))
        if op == Op.IFF:
            return cnf.lit_iff(self.blast_bool(term.args[0]), self.blast_bool(term.args[1]))
        if op == Op.BOOL_ITE:
            return cnf.lit_ite(
                self.blast_bool(term.args[0]),
                self.blast_bool(term.args[1]),
                self.blast_bool(term.args[2]),
            )
        if op == Op.EQ:
            return self._equal_bits(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == Op.DISTINCT:
            return -self._equal_bits(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == Op.ULT:
            return self._unsigned_less(
                self.blast_bv(term.args[0]), self.blast_bv(term.args[1]), strict=True
            )
        if op == Op.ULE:
            return self._unsigned_less(
                self.blast_bv(term.args[0]), self.blast_bv(term.args[1]), strict=False
            )
        if op == Op.SLT:
            return self._signed_less(term.args[0], term.args[1], strict=True)
        if op == Op.SLE:
            return self._signed_less(term.args[0], term.args[1], strict=False)
        raise InvalidTermError(f"cannot bit-blast boolean operator {op!r}")

    # -- bitvector terms ----------------------------------------------------------------

    def _blast_bv(self, term: Term) -> List[int]:
        cnf = self.cnf
        op = term.op
        width = term.width

        if op == Op.BV_CONST:
            value = int(term.value)  # type: ignore[arg-type]
            return [cnf.TRUE if (value >> bit) & 1 else cnf.FALSE for bit in range(width)]
        if op == Op.BV_VAR:
            assert term.name is not None
            key = (term.name, width)
            bits = self._bv_vars.get(key)
            if bits is None:
                bits = cnf.new_vars(width)
                self._bv_vars[key] = bits
            return bits

        if op in (Op.BV_AND, Op.BV_OR, Op.BV_XOR):
            a = self.blast_bv(term.args[0])
            b = self.blast_bv(term.args[1])
            gate = {Op.BV_AND: cnf.lit_and, Op.BV_OR: cnf.lit_or, Op.BV_XOR: cnf.lit_xor}[op]
            return [gate(a[i], b[i]) for i in range(width)]
        if op == Op.BV_NOT:
            return [-bit for bit in self.blast_bv(term.args[0])]
        if op == Op.BV_NEG:
            zero = [cnf.FALSE] * width
            return self._subtract(zero, self.blast_bv(term.args[0]))
        if op == Op.BV_ADD:
            return self._add(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == Op.BV_SUB:
            return self._subtract(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op == Op.BV_MUL:
            return self._multiply(self.blast_bv(term.args[0]), self.blast_bv(term.args[1]))
        if op in (Op.BV_UDIV, Op.BV_UREM):
            quotient, remainder = self._divide(term.args[0], term.args[1])
            return quotient if op == Op.BV_UDIV else remainder
        if op in (Op.BV_SHL, Op.BV_LSHR, Op.BV_ASHR):
            return self._shift(term)
        if op == Op.BV_CONCAT:
            bits: List[int] = []
            for child in reversed(term.args):  # operands MSB-first; LSB part comes last
                bits.extend(self.blast_bv(child))
            return bits
        if op == Op.BV_EXTRACT:
            hi, lo = term.params
            return self.blast_bv(term.args[0])[lo : hi + 1]
        if op == Op.BV_ZEXT:
            return self.blast_bv(term.args[0]) + [cnf.FALSE] * term.params[0]
        if op == Op.BV_SEXT:
            inner = self.blast_bv(term.args[0])
            return inner + [inner[-1]] * term.params[0]
        if op == Op.BV_ITE:
            cond = self.blast_bool(term.args[0])
            then = self.blast_bv(term.args[1])
            other = self.blast_bv(term.args[2])
            return [cnf.lit_ite(cond, then[i], other[i]) for i in range(width)]
        raise InvalidTermError(f"cannot bit-blast bitvector operator {op!r}")

    # -- circuits -----------------------------------------------------------------------

    def _add(self, a: List[int], b: List[int], carry_in: int | None = None) -> List[int]:
        cnf = self.cnf
        carry = carry_in if carry_in is not None else cnf.FALSE
        out: List[int] = []
        for bit_a, bit_b in zip(a, b):
            partial = cnf.lit_xor(bit_a, bit_b)
            out.append(cnf.lit_xor(partial, carry))
            carry = cnf.lit_or(cnf.lit_and(bit_a, bit_b), cnf.lit_and(partial, carry))
        return out

    def _subtract(self, a: List[int], b: List[int]) -> List[int]:
        return self._add(a, [-bit for bit in b], carry_in=self.cnf.TRUE)

    def _multiply(self, a: List[int], b: List[int]) -> List[int]:
        cnf = self.cnf
        width = len(a)
        accumulator = [cnf.FALSE] * width
        for shift in range(width):
            if a[shift] == cnf.FALSE:
                # An all-FALSE row: adding it would only constant-fold
                # (no variable, no clause).  Half of _divide's rows.
                continue
            partial = [cnf.FALSE] * shift
            partial += [cnf.lit_and(a[shift], b[i]) for i in range(width - shift)]
            accumulator = self._add(accumulator, partial)
        return accumulator

    def _divide(self, numerator: Term, denominator: Term) -> Tuple[List[int], List[int]]:
        """Encode unsigned division via the multiplicative definition.

        Fresh variables q, r are introduced with ``q*d + r == n`` (computed at
        double width to rule out overflow), ``r < d`` when ``d != 0``, and the
        SMT-LIB convention for division by zero (q = all ones, r = n).
        """
        cnf = self.cnf
        width = numerator.width
        n_bits = self.blast_bv(numerator)
        d_bits = self.blast_bv(denominator)
        q_bits = cnf.new_vars(width)
        r_bits = cnf.new_vars(width)

        zero_ext = [cnf.FALSE] * width
        wide_q = q_bits + zero_ext
        wide_d = d_bits + zero_ext
        wide_r = r_bits + zero_ext
        wide_n = n_bits + zero_ext
        product = self._multiply(wide_q, wide_d)
        total = self._add(product, wide_r)
        d_is_zero = -cnf.lit_or_many(d_bits)

        # d != 0  ->  q*d + r = n  and  r < d
        equality = self._equal_bits(total, wide_n)
        remainder_ok = self._unsigned_less(r_bits, d_bits, strict=True)
        cnf.add_clause([d_is_zero, equality])
        cnf.add_clause([d_is_zero, remainder_ok])
        # d == 0  ->  q = all-ones  and  r = n
        q_all_ones = cnf.lit_and_many(q_bits)
        r_equals_n = self._equal_bits(r_bits, n_bits)
        cnf.add_clause([-d_is_zero, q_all_ones])
        cnf.add_clause([-d_is_zero, r_equals_n])
        return q_bits, r_bits

    def _shift(self, term: Term) -> List[int]:
        cnf = self.cnf
        op = term.op
        value_bits = self.blast_bv(term.args[0])
        amount_term = term.args[1]
        width = term.width
        fill = value_bits[-1] if op == Op.BV_ASHR else cnf.FALSE

        # Constant shift amounts reduce to rewiring.
        if amount_term.op == Op.BV_CONST:
            amount = int(amount_term.value)  # type: ignore[arg-type]
            return self._shift_by_constant(value_bits, amount, op, fill)

        amount_bits = self.blast_bv(amount_term)
        current = list(value_bits)
        stage_bits = max(1, (width - 1).bit_length())
        for stage in range(len(amount_bits)):
            if stage < stage_bits:
                shifted = self._shift_by_constant(current, 1 << stage, op, fill)
                current = [
                    cnf.lit_ite(amount_bits[stage], shifted[i], current[i]) for i in range(width)
                ]
            else:
                # A set bit at or above log2(width) shifts everything out.
                overflow = amount_bits[stage]
                current = [cnf.lit_ite(overflow, fill, current[i]) for i in range(width)]
        return current

    def _shift_by_constant(self, bits: List[int], amount: int, op: str, fill: int) -> List[int]:
        width = len(bits)
        if amount >= width:
            return [fill] * width
        if op == Op.BV_SHL:
            return [self.cnf.FALSE] * amount + bits[: width - amount]
        return bits[amount:] + [fill] * amount

    def _equal_bits(self, a: List[int], b: List[int]) -> int:
        cnf = self.cnf
        return cnf.lit_and_many([cnf.lit_iff(x, y) for x, y in zip(a, b)])

    def _unsigned_less(self, a: List[int], b: List[int], strict: bool) -> int:
        cnf = self.cnf
        result = cnf.FALSE if strict else cnf.TRUE
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            less = cnf.lit_and(-bit_a, bit_b)
            equal = cnf.lit_iff(bit_a, bit_b)
            result = cnf.lit_or(less, cnf.lit_and(equal, result))
        return result

    def _signed_less(self, a: Term, b: Term, strict: bool) -> int:
        # Signed comparison = unsigned comparison with the sign bits flipped.
        bits_a = list(self.blast_bv(a))
        bits_b = list(self.blast_bv(b))
        bits_a[-1] = -bits_a[-1]
        bits_b[-1] = -bits_b[-1]
        return self._unsigned_less(bits_a, bits_b, strict=strict)
