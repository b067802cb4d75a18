"""Tests for the concrete evaluator: stack safety at depth, the caller-owned
uid memo, and the query cache's model-reuse tier that is built on both."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import (
    And,
    BitVec,
    BitVecVal,
    Bool,
    Concat,
    Eq,
    Extract,
    If,
    LShR,
    Not,
    Or,
    QueryCache,
    SLE,
    SLT,
    UDiv,
    UGT,
    ULE,
    ULT,
    URem,
    evaluate,
    partition,
)
from repro.smt.model import Model
from repro.smt.qcache import SAT, UNSAT

DEPTH = 5000


def _deep_xor_chain(depth):
    """``x ^ k0 ^ ... ^ k{depth-1}`` over 8-bit variables: one node per level."""
    term = BitVec("x", 8)
    for index in range(depth):
        term = term ^ BitVec(f"k{index}", 8)
    return term


def _never_solve(terms):
    raise AssertionError("the model-reuse tier should have answered this slice")


class TestStackSafety:
    def test_evaluate_depth_5000(self):
        chain = _deep_xor_chain(DEPTH)
        env = {f"k{index}": 0 for index in range(DEPTH)}
        env["x"] = 3
        assert evaluate(ULT(chain, 5), env) is True
        env["k17"] = 0xF0
        assert evaluate(chain, env) == 0xF3

    def test_model_satisfies_depth_5000(self):
        query = ULT(_deep_xor_chain(DEPTH), 5)
        assert Model({}).satisfies(query)  # unbound variables read as 0
        assert not Model({"x": 9}).satisfies(query)

    def test_query_cache_model_reuse_depth_5000(self):
        chain = _deep_xor_chain(DEPTH)
        cache = QueryCache()
        # The all-zeros probe answers the first appearance.
        status, model = cache.check([ULT(chain, 5)], _never_solve)
        assert status == SAT and model.satisfies(ULT(chain, 5))
        assert cache.statistics.model_reuse_hits == 1
        # A solved parent path seeds the pool; its model answers the child.
        parent = [Eq(chain, BitVecVal(7, 8))]
        status, _ = cache.check(parent, lambda terms: (SAT, Model({"x": 7})))
        assert status == SAT and cache.statistics.solved == 1
        child = parent + [ULT(BitVec("x", 8), 9)]
        status, model = cache.check(child, _never_solve)
        assert status == SAT and model["x"] == 7
        assert cache.statistics.model_reuse_hits == 2


# -- random DAG-shared terms ---------------------------------------------------------

_BV_OPS = ("add", "sub", "mul", "udiv", "urem", "and", "or", "xor", "lshr", "not", "ite", "concat")
_PRED_OPS = ("eq", "ult", "ule", "slt", "sle", "not", "and", "or")


def _signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


@st.composite
def shared_dags(draw):
    """Random QF_BV terms of one width in 1..4 whose nodes share subterms.

    Every node is built from earlier nodes, so later terms reuse whole
    sub-DAGs.  Each node carries an independent reference semantics
    (plain Python over an assignment dict) for brute-force enumeration.
    Returns ``(width, predicates)`` with ``predicates`` a list of
    ``(term, reference)`` boolean pairs.
    """
    width = draw(st.integers(1, 4))
    mask = (1 << width) - 1
    constant = draw(st.integers(0, mask))
    vectors = [
        (BitVec("x", width), lambda env: env["x"]),
        (BitVec("y", width), lambda env: env["y"]),
        (BitVecVal(constant, width), lambda env: constant),
    ]
    flag = Bool("b")
    predicates = [(flag, lambda env: env["b"])]

    def pick(pool):
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(2, 10))):
        (a, fa), (b, fb) = pick(vectors), pick(vectors)
        op = draw(st.sampled_from(_BV_OPS))
        if op == "add":
            vectors.append((a + b, lambda e, fa=fa, fb=fb: (fa(e) + fb(e)) & mask))
        elif op == "sub":
            vectors.append((a - b, lambda e, fa=fa, fb=fb: (fa(e) - fb(e)) & mask))
        elif op == "mul":
            vectors.append((a * b, lambda e, fa=fa, fb=fb: (fa(e) * fb(e)) & mask))
        elif op == "udiv":
            vectors.append(
                (UDiv(a, b), lambda e, fa=fa, fb=fb: fa(e) // fb(e) if fb(e) else mask)
            )
        elif op == "urem":
            vectors.append((URem(a, b), lambda e, fa=fa, fb=fb: fa(e) % fb(e) if fb(e) else fa(e)))
        elif op == "and":
            vectors.append((a & b, lambda e, fa=fa, fb=fb: fa(e) & fb(e)))
        elif op == "or":
            vectors.append((a | b, lambda e, fa=fa, fb=fb: fa(e) | fb(e)))
        elif op == "xor":
            vectors.append((a ^ b, lambda e, fa=fa, fb=fb: fa(e) ^ fb(e)))
        elif op == "lshr":
            vectors.append((LShR(a, b), lambda e, fa=fa, fb=fb: fa(e) >> fb(e)))
        elif op == "not":
            vectors.append((~a, lambda e, fa=fa: ~fa(e) & mask))
        elif op == "ite":
            p, fp = pick(predicates)
            vectors.append((If(p, a, b), lambda e, fp=fp, fa=fa, fb=fb: fa(e) if fp(e) else fb(e)))
        else:  # concat: a low slice of a, then the low bit of b
            if width == 1:
                continue
            lo = Extract(0, 0, b)
            vectors.append(
                (
                    Concat(Extract(width - 2, 0, a), lo),
                    lambda e, fa=fa, fb=fb: ((fa(e) << 1) | (fb(e) & 1)) & mask,
                )
            )
        (a, fa), (b, fb) = pick(vectors), pick(vectors)
        op = draw(st.sampled_from(_PRED_OPS))
        if op == "eq":
            predicates.append((Eq(a, b), lambda e, fa=fa, fb=fb: fa(e) == fb(e)))
        elif op == "ult":
            predicates.append((ULT(a, b), lambda e, fa=fa, fb=fb: fa(e) < fb(e)))
        elif op == "ule":
            predicates.append((ULE(a, b), lambda e, fa=fa, fb=fb: fa(e) <= fb(e)))
        elif op == "slt":
            predicates.append(
                (SLT(a, b), lambda e, fa=fa, fb=fb: _signed(fa(e), width) < _signed(fb(e), width))
            )
        elif op == "sle":
            predicates.append(
                (SLE(a, b), lambda e, fa=fa, fb=fb: _signed(fa(e), width) <= _signed(fb(e), width))
            )
        else:
            (p, fp), (q, fq) = pick(predicates), pick(predicates)
            if op == "not":
                predicates.append((Not(p), lambda e, fp=fp: not fp(e)))
            elif op == "and":
                predicates.append((And(p, q), lambda e, fp=fp, fq=fq: fp(e) and fq(e)))
            else:
                predicates.append((Or(p, q), lambda e, fp=fp, fq=fq: fp(e) or fq(e)))
    return width, predicates


def _assignments(width):
    values = range(1 << width)
    for x_value, y_value, flag in itertools.product(values, values, (False, True)):
        yield {"x": x_value, "y": y_value, "b": flag}


def _truth_tables(width, predicates):
    """Brute force: the assignment indices under which each predicate holds."""
    envs = list(_assignments(width))
    tables = {
        term.uid: frozenset(i for i, env in enumerate(envs) if reference(env))
        for term, reference in predicates
    }
    return envs, tables


def _brute_force_solve(envs, tables):
    """A ``SolveFn`` that answers from the truth tables (slice variables only)."""

    def solve(terms):
        witnesses = frozenset.intersection(*(tables[term.uid] for term in terms))
        if not witnesses:
            return UNSAT, None
        names = set()
        for term in terms:
            names.update(term.free_variables())
        env = envs[min(witnesses)]
        return SAT, Model({name: env[name] for name in names})

    return solve


class TestMemoizedEvaluatorDifferential:
    @settings(max_examples=40, deadline=None)
    @given(shared_dags())
    def test_shared_memo_matches_fresh_and_brute_force(self, dag):
        width, predicates = dag
        satisfiable = [False] * len(predicates)
        for env in _assignments(width):
            memo = {}  # one memo across every term under this assignment
            for index, (term, reference) in enumerate(predicates):
                shared = evaluate(term, env, memo)
                fresh = evaluate(term, env)
                assert shared == fresh == bool(reference(env))
                satisfiable[index] = satisfiable[index] or shared
        for (term, reference), found in zip(predicates, satisfiable):
            assert found == any(reference(env) for env in _assignments(width))

    @settings(max_examples=40, deadline=None)
    @given(shared_dags(), st.data())
    def test_model_reuse_answers_satisfy_every_slice_term(self, dag, data):
        width, predicates = dag
        envs, tables = _truth_tables(width, predicates)
        cache = QueryCache()
        solve = _brute_force_solve(envs, tables)
        terms = [term for term, _ in predicates]
        for _ in range(6):
            query = data.draw(st.lists(st.sampled_from(terms), min_size=1, max_size=4))
            # Slice by slice first, so every model-reuse answer is seen alone.
            for query_slice in partition(query):
                before = cache.statistics.model_reuse_hits
                status, model = cache.check(list(query_slice.terms), solve)
                if cache.statistics.model_reuse_hits > before:
                    assert status == SAT
                    # Fresh, memo-free evaluation; an unbound variable raises.
                    for term in query_slice.terms:
                        assert evaluate(term, model.as_dict()) is True
            status, model = cache.check(query, solve)
            satisfiable = frozenset.intersection(*(tables[term.uid] for term in query))
            assert status == (SAT if satisfiable else UNSAT)
            if status == SAT:
                for term in query:
                    assert evaluate(term, model.as_dict()) is True

    def test_all_ones_probe_model_covers_the_slice(self):
        x, flag = BitVec("x", 4), Bool("b")
        query = [UGT(x, 5), Or(flag, ULT(x, 3))]  # one slice; all-zeros fails
        cache = QueryCache()
        status, model = cache.check(query, _never_solve)
        assert status == SAT and cache.statistics.model_reuse_hits == 1
        assert model.as_dict() == {"b": True, "x": 15}
        assert evaluate(And(*query), model.as_dict()) is True
