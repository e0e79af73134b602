"""Factor-algebra behaviour.

Covers:
* table construction rules: zero dropping, scope/cardinality/value checks
* all-different constraint tables, including their observed/collapsed forms
* multiply / divide / marginalize / normalize / observe / argmax semantics
* divergence scoring, including the infinite support-shrink case and a
  subnormal cell whose share rounds to zero
* agreement with an independent dense implementation on randomized inputs
* algebraic laws (commutativity, associativity, round-trips) via hypothesis
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp import (
    ContradictionError,
    SparseTable,
    Variable,
    kl_divergence,
    make_variables,
    uniform_factor,
)
from conftest import all_different
from oracles import DenseFactor, dense_kl

VARS = make_variables("ABCDEF")
A, B, C, D, E, F = VARS
CARDS = dict(zip(VARS, (2, 3, 4, 2, 3, 2)))


def _random_table(rng, max_vars=3, density=0.5, pool=VARS):
    size = rng.randint(0, max_vars)
    scope = rng.sample(pool, size)
    cards = tuple(CARDS[v] for v in scope)
    entries = {}
    for key in itertools.product(*[range(c) for c in cards]):
        if rng.random() < density:
            entries[key] = rng.uniform(0.01, 10.0)
    return SparseTable(scope, cards, entries)


def assert_matches_dense(table, dense, rel_tol=1e-12):
    """`table` and the dense reference hold identical potentials."""
    assert set(table.scope) == set(dense.scope)
    aligned = table.reorder(dense.scope)
    support = dense.nonzero()
    assert set(aligned.entries) == set(support)
    for key, value in support.items():
        assert math.isclose(aligned.entries[key], value, rel_tol=rel_tol)


@st.composite
def tables(draw, min_vars=0, max_vars=3, min_entries=0):
    size = draw(st.integers(min_vars, max_vars))
    scope = tuple(draw(st.permutations(VARS)))[:size]
    cards = tuple(CARDS[v] for v in scope)
    space = list(itertools.product(*[range(c) for c in cards]))
    keys = sorted(
        draw(st.sets(st.sampled_from(space), min_size=min(min_entries, len(space))))
    )
    values = draw(
        st.lists(
            st.floats(0.001, 100.0),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return SparseTable(scope, cards, dict(zip(keys, values)))


class TestConstruction:
    def test_zero_entries_are_dropped(self):
        t = SparseTable((A, B), (2, 3), {(0, 0): 0.0, (0, 1): 2.0})
        assert len(t) == 1
        assert (0, 0) not in t
        assert t[(0, 0)] == 0.0
        assert t[(0, 1)] == 2.0

    def test_values_are_coerced_to_float(self):
        t = SparseTable((A,), (2,), {(1,): 3})
        assert t[(1,)] == 3.0

    def test_scope_cardinality_length_mismatch(self):
        with pytest.raises(ValueError, match="cardinalities"):
            SparseTable((A, B), (2,), {})

    def test_duplicate_scope_variable(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseTable((A, A), (2, 2), {})

    def test_cardinality_must_be_positive(self):
        with pytest.raises(ValueError, match="cardinality"):
            SparseTable((A,), (0,), {})

    def test_assignment_arity_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            SparseTable((A, B), (2, 3), {(0,): 1.0})

    def test_assignment_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseTable((A,), (2,), {(2,): 1.0})

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), math.inf])
    def test_negative_and_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            SparseTable((A,), (2,), {(0,): bad})

    def test_empty_scope_scalar_table(self):
        t = SparseTable((), (), {(): 4.0})
        assert t[()] == 4.0
        assert t.argmax() == ()

    def test_make_variables_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_variables(["X", "X"])

    def test_variables_order_by_id(self):
        assert sorted([C, A, B]) == [A, B, C]
        assert str(A) == "A"

    def test_variable_set_order_ignores_the_hash_seed(self):
        # Variables hash by id, so a set of them iterates the same way
        # whatever seed salts the names' string hashes.
        source = str(Path(clusterbp.__file__).resolve().parents[1])
        script = (
            "from clusterbp import Variable; "
            "print([v.id for v in {Variable(i, f'x{i}') for i in range(8)}])"
        )
        orders = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [source, env.get("PYTHONPATH")])
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            orders.append(done.stdout)
        assert orders[0] == orders[1]


class TestVariable:
    def test_hash_is_ints_and_equals_the_id(self):
        assert Variable.__hash__ is int.__hash__
        for i in (0, 1, 7, 80, 2**40):
            assert hash(Variable(i, "x")) == i == Variable(i, "x").id
        assert type(Variable(3, "x").id) is int

    def test_sorted_orders_by_id(self):
        shuffled = [Variable(i, name) for i, name in ((19, "a"), (2, "z"), (7, "m"))]
        assert [v.id for v in sorted(shuffled)] == [2, 7, 19]
        assert min(shuffled).name == "z"

    def test_equality_is_the_id_name_pair(self):
        assert Variable(1, "a") == Variable(1, "a")
        assert not Variable(1, "a") != Variable(1, "a")
        assert Variable(1, "a") != Variable(1, "b")
        assert Variable(1, "a") != Variable(2, "a")
        assert len({Variable(1, "a"), Variable(1, "b")}) == 2

    def test_never_equals_a_bare_int(self):
        v = Variable(1, "a")
        assert v != 1
        assert 1 != v
        assert not v == 1
        assert not 1 == v
        assert v not in {1: "one"}
        assert 1 not in {v: "a"}
        assert v != "a"
        assert (v == True) is False  # noqa: E712
        # The documented exception: with a bool on the left, bool's own
        # int comparison runs first and answers by value.
        assert (True == v) is True  # noqa: E712

    def test_immutable(self):
        v = Variable(1, "a")
        with pytest.raises(AttributeError):
            v.name = "b"
        with pytest.raises(AttributeError):
            del v.name
        assert v.name == "a"

    def test_repr_and_str(self):
        assert repr(Variable(1, "a")) == "Variable(id=1, name='a')"
        assert str(Variable(1, "a")) == "a"
        assert f"{Variable(1, 'a')}" == "a"

    @pytest.mark.parametrize(
        "round_trip",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, round_trip):
        v = Variable(5, "r1c6")
        back = round_trip(v)
        assert type(back) is Variable
        assert (back, back.id, back.name, hash(back)) == (v, 5, "r1c6", 5)
        problem = clusterbp.sudoku_problem("1..4........3..2", n=4)
        copied = round_trip(problem)
        assert copied == problem
        assert all(type(x) is Variable for x in copied.variables)
        assert copied.givens == problem.givens


def allclose(a, b, rel_tol):
    """Same scope up to order, same support, potentials within `rel_tol`."""
    if set(a.scope) != set(b.scope):
        return False
    b = b.reorder(a.scope)
    return (a.cards, a.entries.keys()) == (b.cards, b.entries.keys()) and all(
        math.isclose(value, b[key], rel_tol=rel_tol) for key, value in a.items()
    )


class TestAllDifferent:
    def test_entries_shrink_factorially_under_observation(self):
        t = all_different((A, B, C, D), 4)
        assert len(t.observe(A, 0)) == math.factorial(3)
        assert len(t.observe(A, 0).observe(B, 1)) == math.factorial(2)

    def test_observed_table_is_permutations_of_remaining_states(self):
        t = all_different((A, B, C, D), 4).observe(A, 2)
        assert t.scope == (B, C, D)
        assert t.entries == {p: 1.0 for p in itertools.permutations((0, 1, 3))}

    def test_uniform_factor_covers_joint_space(self):
        t = uniform_factor((A, B), (2, 3))
        assert len(t) == 6
        assert all(value == 1.0 for _, value in t.items())
        assert uniform_factor((), ())[()] == 1.0


class TestOperations:
    def test_multiply_disjoint_scopes(self):
        t1 = SparseTable((A,), (2,), {(0,): 2.0})
        t2 = SparseTable((B,), (3,), {(1,): 5.0, (2,): 1.0})
        product = t1.multiply(t2)
        assert product.scope == (A, B)
        assert product.entries == {(0, 1): 10.0, (0, 2): 2.0}

    def test_multiply_prunes_to_common_support(self):
        t1 = SparseTable((A, B), (2, 3), {(0, 1): 2.0, (1, 2): 3.0})
        t2 = SparseTable((B,), (3,), {(1,): 4.0})
        assert t1.multiply(t2).entries == {(0, 1): 8.0}

    def test_multiply_by_uniform_is_identity(self):
        t = SparseTable((A, B), (2, 3), {(0, 1): 2.5, (1, 0): 0.5})
        assert t.multiply(uniform_factor((A, B), (2, 3))).entries == t.entries

    def test_results_drop_entries_that_underflow_to_zero(self):
        # Internal results skip the constructor's checks, so each
        # operation must itself keep zero out of the table.
        tiny = SparseTable((A, B), (2, 3), {(0, 0): 1e-200, (1, 2): 1.0})
        small = SparseTable((B,), (3,), {(0,): 1e-200, (2,): 1.0})
        assert tiny.multiply(small).entries == {(1, 2): 1.0}
        wide = SparseTable((C,), (2,), {(0,): 1e-200, (1,): 1.0})
        assert tiny.multiply(wide).entries == {
            (0, 0, 1): 1e-200,
            (1, 2, 0): 1e-200,
            (1, 2, 1): 1.0,
        }
        huge = SparseTable((B,), (3,), {(0,): 1e200, (2,): 1.0})
        assert tiny.divide(huge).entries == {(1, 2): 1.0}
        spread = SparseTable((A,), (2,), {(0,): 1e-300, (1,): 1e300})
        assert spread.normalize("max").entries == {(1,): 1.0}

    def test_multiply_cardinality_mismatch(self):
        x = Variable(99, "X")
        t1 = SparseTable((x,), (2,), {(0,): 1.0})
        t2 = SparseTable((x,), (3,), {(0,): 1.0})
        for operation in (SparseTable.multiply, SparseTable.divide, kl_divergence):
            with pytest.raises(ValueError, match="cardinality mismatch"):
                operation(t1, t2)

    def test_divide_requires_scope_containment(self):
        t1 = SparseTable((A,), (2,), {(0,): 1.0})
        t2 = SparseTable((A, B), (2, 3), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="not in numerator"):
            t1.divide(t2)

    def test_divide_zero_by_zero_is_absent(self):
        num = SparseTable((A,), (2,), {(0,): 3.0})
        den = SparseTable((A,), (2,), {(0,): 2.0})
        quotient = num.divide(den)
        assert quotient.entries == {(0,): 1.5}  # (1,) is 0/0, stays absent

    def test_divide_nonzero_by_zero_raises(self):
        num = SparseTable((A,), (2,), {(1,): 3.0})
        den = SparseTable((A,), (2,), {(0,): 2.0})
        with pytest.raises(ZeroDivisionError, match=re.escape("(1,)")):
            num.divide(den)

    def test_marginalize_sum_and_max(self):
        t = SparseTable((A, B), (2, 3), {(0, 0): 1.0, (0, 2): 3.0, (1, 1): 5.0})
        assert t.marginalize([A], "sum").entries == {(0,): 4.0, (1,): 5.0}
        assert t.marginalize([A], "max").entries == {(0,): 3.0, (1,): 5.0}

    def test_marginalize_to_nothing_totals_the_table(self):
        t = SparseTable((A, B), (2, 3), {(0, 0): 1.0, (1, 1): 2.0})
        assert t.marginalize([], "sum")[()] == 3.0
        assert t.marginalize([], "max")[()] == 2.0

    def test_marginalize_keep_outside_scope(self):
        t = SparseTable((A,), (2,), {(0,): 1.0})
        with pytest.raises(ValueError, match="outside scope"):
            t.marginalize([B])

    def test_marginalize_preserves_scope_order(self):
        t = SparseTable((C, A, B), (4, 2, 3), {(1, 0, 2): 1.0})
        assert t.marginalize([A, C]).scope == (C, A)

    def test_unknown_semiring_rejected(self):
        t = SparseTable((A,), (2,), {(0,): 1.0})
        with pytest.raises(ValueError, match="semiring"):
            t.marginalize([A], "product")
        with pytest.raises(ValueError, match="semiring"):
            t.normalize("min")

    def test_normalize_sum(self):
        t = SparseTable((A,), (2,), {(0,): 1.0, (1,): 3.0}).normalize("sum")
        assert t.entries == {(0,): 0.25, (1,): 0.75}

    def test_normalize_max_puts_peak_at_one(self):
        t = SparseTable((A,), (2,), {(0,): 0.2, (1,): 0.8}).normalize("max")
        assert t[(1,)] == 1.0
        assert math.isclose(t[(0,)], 0.25)

    def test_normalize_empty_is_contradictory(self):
        with pytest.raises(ContradictionError):
            SparseTable((A,), (2,), {}).normalize("sum")

    def test_observe_requires_scope_membership_and_range(self):
        t = SparseTable((A,), (2,), {(0,): 1.0})
        with pytest.raises(ValueError, match="not in scope"):
            t.observe(B, 0)
        with pytest.raises(ValueError, match="out of range"):
            t.observe(A, 2)

    def test_observe_contradiction(self):
        t = SparseTable((A, B), (2, 3), {(0, 1): 1.0})
        with pytest.raises(ContradictionError, match="A=1"):
            t.observe(A, 1)

    def test_argmax_breaks_ties_lexicographically(self):
        t = SparseTable((A, B), (2, 3), {(1, 0): 5.0, (0, 2): 5.0, (0, 1): 1.0})
        assert t.argmax() == (0, 2)

    def test_argmax_empty_table(self):
        with pytest.raises(ValueError, match="empty"):
            SparseTable((A,), (2,), {}).argmax()

    def test_reorder_round_trip(self):
        t = SparseTable((A, B, C), (2, 3, 4), {(1, 2, 3): 7.0, (0, 0, 0): 1.0})
        back = t.reorder((C, A, B)).reorder((A, B, C))
        assert back == t
        assert t.reorder((C, A, B))[(3, 1, 2)] == 7.0

    def test_reorder_rejects_non_permutations(self):
        t = SparseTable((A, B), (2, 3), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            t.reorder((A, C))


class TestDivergence:
    def test_identical_tables_diverge_zero(self):
        t = SparseTable((A,), (2,), {(0,): 0.3, (1,): 0.7})
        assert kl_divergence(t, t) == 0.0

    def test_point_mass_against_uniform_is_log_two(self):
        p = SparseTable((A,), (2,), {(0,): 1.0})
        q = SparseTable((A,), (2,), {(0,): 0.5, (1,): 0.5})
        assert math.isclose(kl_divergence(p, q), math.log(2.0))

    def test_support_shrink_is_infinite(self):
        p = SparseTable((A,), (2,), {(0,): 0.5, (1,): 0.5})
        q = SparseTable((A,), (2,), {(0,): 1.0})
        assert kl_divergence(p, q) == math.inf
        # ... but q losing nothing p has is finite the other way round
        assert kl_divergence(q, p) == math.log(2.0)

    def test_subnormal_cell_adds_nothing(self):
        # 5e-324 / 3.0 rounds to 0.0, and p log p tends to 0 with p.
        p = SparseTable((C,), (4,), {(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 5e-324})
        q = uniform_factor((C,), (4,))
        assert kl_divergence(p, q) == math.log(4 / 3)

    def test_scale_invariance(self):
        p = SparseTable((A,), (2,), {(0,): 1.0, (1,): 3.0})
        q = SparseTable((A,), (2,), {(0,): 2.0, (1,): 2.0})
        p5 = SparseTable((A,), (2,), {k: 5.0 * v for k, v in p.entries.items()})
        q9 = SparseTable((A,), (2,), {k: 9.0 * v for k, v in q.entries.items()})
        assert math.isclose(kl_divergence(p, q), kl_divergence(p5, q9))

    def test_scope_order_does_not_matter(self):
        p = SparseTable((A, B), (2, 3), {(0, 1): 1.0, (1, 2): 2.0})
        q = uniform_factor((B, A), (3, 2))
        assert math.isclose(kl_divergence(p, q), kl_divergence(p.reorder((B, A)), q))

    def test_scope_mismatch_rejected(self):
        p = SparseTable((A,), (2,), {(0,): 1.0})
        q = SparseTable((B,), (3,), {(0,): 1.0})
        with pytest.raises(ValueError, match="scope mismatch"):
            kl_divergence(p, q)

    def test_empty_operands_rejected(self):
        p = SparseTable((A,), (2,), {(0,): 1.0})
        empty = SparseTable((A,), (2,), {})
        with pytest.raises(ValueError):
            kl_divergence(p, empty)
        with pytest.raises(ValueError):
            kl_divergence(empty, p)


class TestDenseAgreement:
    """Randomized cross-checks against the dense reference implementation."""

    def test_multiply_marginalize_normalize(self):
        rng = random.Random(414243)
        for _ in range(150):
            a = _random_table(rng)
            b = _random_table(rng)
            product = a.multiply(b)
            dense = DenseFactor.from_sparse(a).multiply(DenseFactor.from_sparse(b))
            assert_matches_dense(product, dense)

            keep = [v for v in a.scope if rng.random() < 0.5]
            semiring = rng.choice(("sum", "max"))
            assert_matches_dense(
                a.marginalize(keep, semiring),
                DenseFactor.from_sparse(a).marginalize(keep, semiring),
            )

            if a.entries:
                mode = rng.choice(("sum", "max"))
                assert_matches_dense(
                    a.normalize(mode), DenseFactor.from_sparse(a).normalize(mode)
                )

    def test_divide_by_own_marginal(self):
        rng = random.Random(5150)
        for _ in range(150):
            num = _random_table(rng, max_vars=3, density=0.7)
            if not num.entries:
                continue
            keep = [v for v in num.scope if rng.random() < 0.6]
            den = num.marginalize(keep, "sum")
            assert_matches_dense(
                num.divide(den),
                DenseFactor.from_sparse(num).divide(DenseFactor.from_sparse(den)),
            )

    def test_observe(self):
        rng = random.Random(777)
        for _ in range(150):
            t = _random_table(rng, max_vars=3, density=0.4)
            if not t.scope:
                continue
            var = rng.choice(t.scope)
            value = rng.randrange(t.card_of(var))
            dense = DenseFactor.from_sparse(t).observe(var, value)
            if dense.is_zero():
                with pytest.raises(ContradictionError):
                    t.observe(var, value)
            else:
                assert_matches_dense(t.observe(var, value), dense)

    def test_divergence(self):
        rng = random.Random(99)
        for _ in range(150):
            p = _random_table(rng, max_vars=2, density=0.6)
            if not p.entries:
                continue
            q_entries = {}
            for key in itertools.product(*[range(c) for c in p.cards]):
                if key in p.entries or rng.random() < 0.7:
                    q_entries[key] = rng.uniform(0.01, 10.0)
            q = SparseTable(p.scope, p.cards, q_entries)
            got = kl_divergence(p, q)
            want = dense_kl(DenseFactor.from_sparse(p), DenseFactor.from_sparse(q))
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_argmax(self):
        rng = random.Random(31337)
        for _ in range(100):
            t = _random_table(rng, density=0.6)
            if not t.entries:
                continue
            assert t.argmax() == DenseFactor.from_sparse(t).argmax()


@given(tables(), tables())
@settings(deadline=None)
def test_multiply_commutes(a, b):
    assert allclose(a.multiply(b), b.multiply(a), rel_tol=1e-9)


@given(tables(), tables(), tables())
@settings(deadline=None, max_examples=60)
def test_multiply_associates(a, b, c):
    left = a.multiply(b).multiply(c)
    right = a.multiply(b.multiply(c))
    assert allclose(left, right, rel_tol=1e-9)


@given(tables(min_entries=1), tables(max_vars=2, min_entries=1))
@settings(deadline=None)
def test_multiply_then_divide_round_trips_on_divisor_support(a, b):
    product = a.multiply(b)
    if not product.entries:
        return  # supports were incompatible; nothing to check
    support = SparseTable(b.scope, b.cards, {k: 1.0 for k in b.entries})
    assert allclose(product.divide(b), a.multiply(support), rel_tol=1e-9)


@given(tables(min_vars=1, min_entries=1))
@settings(deadline=None)
def test_max_marginal_is_exact_maximum_over_extensions(t):
    front = t.scope[0]
    marginal = t.marginalize([front], "max")
    for key, value in marginal.items():
        assert value == max(v for k, v in t.entries.items() if k[0] == key[0])


@given(tables(min_vars=1, min_entries=1))
@settings(deadline=None)
def test_sum_marginal_preserves_total_mass(t):
    marginal = t.marginalize([t.scope[-1]], "sum")
    assert math.isclose(
        sum(v for _, v in marginal.items()),
        sum(t.entries.values()),
        rel_tol=1e-9,
    )


@given(tables(min_entries=1))
@settings(deadline=None)
def test_normalize_is_idempotent(t):
    once = t.normalize("max")
    assert max(once.entries.values()) == 1.0
    assert allclose(once.normalize("max"), once, rel_tol=1e-12)
    assert allclose(t.normalize("sum").normalize("sum"), t.normalize("sum"), 1e-12)
