"""Message passing: setup, single updates, scheduling, and exactness.

Covers:
* option validation and initial-state bookkeeping (beliefs, sepsets, queue)
* one hand-computed message: sepset update, residual, belief product;
  a subnormal cell whose share rounds to zero adds no residual term
* exact max-marginals on tree graphs vs. the dense oracle
* message budget exhaustion (not an error) and early-out on re-runs
* contradiction propagation out of `run`, and re-runs after one
* calibration reporting; every converged bundled 9x9 run and 4x4-suite
  run (thinned row-major, and at sudoku4 seeds 1 and 2) is calibrated,
  its supports equal the order-free pairwise-consistency closure, and no
  converged run leaves an edge's last residual at or above THRESHOLD
* determinism across repeated runs, and runs that do not depend on the
  order a graph lists its sepsets in, or a factor its entries
* the kernel's lists: a sepset holds only the cells its endpoints' rows
  reach, a resent message returns at once, and every cluster's largest
  value stays exactly 1.0
* `marginals` after a run equals a copy of the hand-rolled row walk it
  replaced, in values and entry order, and decodes the same
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp import (
    ContradictionError,
    SparseTable,
    make_variables,
    uniform_factor,
)
from clusterbp.cli import (
    TOPOLOGIES,
    _compile,
    _ranked_decode,
    color_problem,
    load_puzzle,
    solve_problem,
)
from clusterbp.coloring import (
    anchor_largest_clique,
    maximal_cliques,
    random_planar_map,
    split_cliques,
    sudoku_problem,
)
from clusterbp.graphs import Cluster, ClusterGraph, Sepset, ltrip
from clusterbp.inference import (
    THRESHOLD,
    CalibrationReport,
    InferenceOptions,
    InferenceState,
)
from conftest import all_different
from oracles import (
    DenseFactor,
    closure_of,
    color_by_backtracking,
    dense_joint,
    exhaustive_4x4_suite,
    grid_text,
)

VARS = make_variables("ABCD")
A, B, C, D = VARS
CARDS = {A: 2, B: 3, C: 2, D: 3}


def chain_setup(seed=12345, density=1.0):
    """Three clusters in a row: {A,B} - {B,C} - {C,D}, random potentials."""
    rng = random.Random(seed)
    clusters = [
        Cluster(frozenset({A, B})),
        Cluster(frozenset({B, C})),
        Cluster(frozenset({C, D})),
    ]
    factors = []
    for cluster in clusters:
        scope = cluster.sorted_vars()
        cards = tuple(CARDS[v] for v in scope)
        entries = {}
        for key in itertools.product(*[range(c) for c in cards]):
            if rng.random() < density:
                entries[key] = rng.uniform(0.1, 5.0)
        factors.append(SparseTable(scope, cards, entries))
    return ltrip(clusters), factors


def seven_coloring_factors(seven_cliques, k=4):
    return [all_different(c.sorted_vars(), k) for c in seven_cliques]


class TestOptions:
    def test_defaults(self):
        options = InferenceOptions()
        assert options.max_messages == 1_000_000
        assert options.damping == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_messages": 0},
            {"damping": -0.1},
            {"damping": 1.0},
            {"damping": math.nan},
            {"damping": "a"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InferenceOptions(**kwargs)

    @pytest.mark.parametrize("budget", [math.nan, 2.5, 3.0, True])
    def test_budget_must_be_an_int(self, budget):
        # A NaN budget once sent no message, and 2.5 sent three.
        with pytest.raises(ValueError, match="max_messages must be >= 1 and an int"):
            InferenceOptions(max_messages=budget)

    @pytest.mark.parametrize("damping", [False, True])
    def test_damping_must_not_be_a_bool(self, damping):
        # False once ran undamped, as 0.0 does.
        with pytest.raises(ValueError, match=r"^damping must lie in \[0, 1\) and not"):
            InferenceOptions(damping=damping)

    def test_semiring_is_no_longer_an_option(self):
        # Max-product is the kernel's one semiring.
        with pytest.raises(TypeError):
            InferenceOptions(semiring="max")


class TestSetup:
    def test_initial_bookkeeping(self, seven_graph, seven_cliques):
        state = InferenceState(
            seven_graph, seven_coloring_factors(seven_cliques)
        )
        assert len(state.beliefs) == 5
        assert len(state.sepset_beliefs) == 6
        assert len(state.residuals) == 12
        assert all(r == math.inf for r in state.residuals.values())
        assert not state.converged
        assert state.stats.messages == 0

    def test_sepset_beliefs_start_vacuous(self, seven_graph, seven_cliques):
        state = InferenceState(
            seven_graph, seven_coloring_factors(seven_cliques)
        )
        carried = {s.clusters: s.vars for s in seven_graph.sepsets}
        for key, belief in state.sepset_beliefs.items():
            assert len(belief) == 4 ** len(belief.scope)
            assert all(value == 1.0 for _, value in belief.items())
            assert set(belief.scope) == carried[key]

    def test_max_semiring_normalizes_initial_beliefs(self):
        graph, factors = chain_setup()
        state = InferenceState(graph, factors)
        for belief in state.beliefs:
            assert max(value for _, value in belief.items()) == 1.0

    def test_factor_count_mismatch(self, seven_graph, seven_cliques):
        with pytest.raises(ValueError, match="factors"):
            InferenceState(seven_graph, seven_coloring_factors(seven_cliques)[:3])

    def test_factor_scope_mismatch(self):
        graph, factors = chain_setup()
        factors[0] = uniform_factor((A, C), (2, 2))
        with pytest.raises(ValueError, match="scope"):
            InferenceState(graph, factors)

    def test_cardinality_conflict_across_clusters(self):
        graph, factors = chain_setup()
        factors[2] = uniform_factor((C, D), (3, 3))  # C is 2 elsewhere
        with pytest.raises(ValueError, match="cardinality"):
            InferenceState(graph, factors)

    def test_empty_factor_is_contradictory(self):
        graph, factors = chain_setup()
        factors[1] = SparseTable((B, C), (3, 2), {})
        with pytest.raises(ContradictionError, match="empty"):
            InferenceState(graph, factors)

    def test_uncovered_sepset_variable(self):
        graph = ClusterGraph(
            (Cluster(frozenset({A})), Cluster(frozenset({B}))),
            (Sepset((0, 1), frozenset({C})),),
        )
        factors = [uniform_factor((A,), (2,)), uniform_factor((B,), (3,))]
        with pytest.raises(ValueError, match="no .*factor covers|covers"):
            InferenceState(graph, factors)

    def test_empty_sepset_is_refused(self):
        # Representable, and `validate_rip` reports it; no message can
        # travel over it.
        graph = ClusterGraph(
            (Cluster(frozenset({A})), Cluster(frozenset({B}))),
            (Sepset((0, 1), frozenset()),),
        )
        factors = [uniform_factor((A,), (2,)), uniform_factor((B,), (3,))]
        with pytest.raises(ValueError, match=r"sepset \(0, 1\) carries no variable"):
            InferenceState(graph, factors)


class TestSingleMessage:
    def setup_method(self):
        x, y, z = make_variables("XYZ")
        self.x, self.y, self.z = x, y, z
        clusters = (Cluster(frozenset({x, y})), Cluster(frozenset({y, z})))
        graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({y})),))
        f0 = SparseTable((x, y), (2, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0})
        f1 = uniform_factor((y, z), (2, 2))
        self.state = InferenceState(graph, [f0, f1])

    def test_hand_computed_update(self):
        residual = self.state.pass_message(0, 1)
        # The source starts as f0 / 2, so its max-marginal over Y is
        # (1/2, 1); against the vacuous (1, 1) that is
        # KL([1/3, 2/3] || [1/2, 1/2])
        expected = math.log(2 / 3) / 3 + 2 * math.log(4 / 3) / 3
        assert math.isclose(residual, expected, rel_tol=1e-12)
        assert self.state.sepset_beliefs[(0, 1)].entries == {(0,): 0.5, (1,): 1.0}
        assert self.state.beliefs[1].entries == {
            (0, 0): 0.5,
            (0, 1): 0.5,
            (1, 0): 1.0,
            (1, 1): 1.0,
        }
        assert self.state.residuals[(0, 1)] == residual
        assert self.state.residuals[(1, 0)] == math.inf
        assert self.state.stats.messages == 1

    def test_source_belief_is_untouched(self):
        before = self.state.beliefs[0]
        self.state.pass_message(0, 1)
        assert self.state.beliefs[0] == before

    def test_repeat_message_has_zero_residual(self):
        self.state.pass_message(0, 1)
        assert self.state.pass_message(0, 1) == 0.0

    def test_unknown_edge_rejected(self):
        with pytest.raises(ValueError, match="no sepset"):
            self.state.pass_message(0, 2)


def subnormal_state():
    """Cluster 0's row (3, 0) holds the smallest subnormal float."""
    a, b, c = make_variables("abc")
    clusters = (Cluster(frozenset({a, b})), Cluster(frozenset({a, c})))
    graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({a})),))
    rows = {(0, 1): 1.0, (1, 0): 1.0, (2, 0): 1.0, (3, 0): 5e-324}
    f0 = SparseTable((a, b), (4, 4), rows)
    f1 = SparseTable((a, c), (4, 4), {(x, 0): 1.0 for x in range(4)})
    return InferenceState(graph, [f0, f1])


class TestSubnormalCell:
    # The subnormal cell's share 5e-324 / 3.0 rounds to 0.0, and its
    # term p log p tends to 0: it is skipped, not a math domain error.
    def test_message_residual(self):
        assert subnormal_state().pass_message(0, 1) == math.log(4 / 3)

    def test_run_converges(self):
        assert subnormal_state().run().converged


class TestTreeExactness:
    def test_max_marginals_and_decoding_match_dense_joint(self):
        graph, factors = chain_setup(seed=7)
        state = InferenceState(graph, factors)
        state.run()
        assert state.converged
        # Convergence on a tree needs O(edges): the initial sweep plus a
        # few deliver-and-certify passes per directed edge.
        assert state.stats.messages <= 4 * len(state.residuals)
        joint = dense_joint([DenseFactor.from_sparse(f) for f in factors])
        best = dict(zip(joint.scope, joint.argmax()))
        assert state.assignment == best
        for variable, marginal in state.marginals.items():
            want = joint.marginalize([variable], "max").normalize("max")
            for key, value in want.values.items():
                assert math.isclose(marginal[key], value, rel_tol=1e-9)

    def test_calibrated_after_convergence(self):
        graph, factors = chain_setup(seed=3)
        state = InferenceState(graph, factors)
        before = state.check_calibration(tol=1e-9)
        assert not before.calibrated  # clusters have not talked yet
        state.run()
        after = state.check_calibration(tol=1e-9)
        assert isinstance(after, CalibrationReport)
        assert after.calibrated
        assert set(after.per_edge) == {(0, 1), (1, 2)}
        assert after.max_divergence <= 1e-9

    def test_ends_that_reach_different_labels_diverge_without_bound(self):
        # Before any message {A,B} holds A=0 only, {A,C} both labels of A.
        clusters = (Cluster(frozenset({A, B})), Cluster(frozenset({A, C})))
        graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({A})),))
        f0 = SparseTable((A, B), (2, 3), {(0, 1): 1.0})
        f1 = SparseTable((A, C), (2, 2), {(0, 1): 1.0, (1, 0): 1.0})
        report = InferenceState(graph, [f0, f1]).check_calibration()
        assert report.per_edge == {(0, 1): math.inf}
        assert not report.calibrated


BUNDLED = sorted(
    (Path(clusterbp.__file__).parent / "data" / "puzzles").glob("*.txt")
)


def converged_fixed_points(problems, topology, size):
    """Run each problem for one unbiased round; check each converged run.

    Every edge's last residual can be below threshold while a message
    queued at log 2 or more is still unsent; stopping there leaves
    beliefs that neighbours disagree on.  Unbiased tables hold only 0 and
    1, so a fixed point's supports are the pairwise-consistency closure,
    whatever the message order.  Returns how many runs converged.
    """
    converged = 0
    for name, problem in problems:
        cliques = maximal_cliques(problem)
        if size is not None:
            cliques = split_cliques(cliques, size)
        state, _ = _compile(problem, cliques, topology, None, None, 0.0, 0)
        tables = state.beliefs  # as compiled: no message has gone out
        closure = closure_of(tables, state.graph.sepsets)
        state.run()
        if state.converged:
            converged += 1
            report = state.check_calibration()
            assert report.calibrated, (name, report.max_divergence)
            assert max(state.residuals.values()) < THRESHOLD, name
            assert [set(t.entries) for t in state.beliefs] == closure, name
    return converged


def suite4(seed):
    return [
        (grid_text(p), sudoku_problem(grid_text(p), 4))
        for p, _ in exhaustive_4x4_suite(seed)
    ]


@pytest.fixture(scope="module")
def grids4():
    """Acceptance test 5's 288 grids, the benchmark's sudoku4 seed 0."""
    return suite4(0)


@pytest.fixture(scope="module", params=[1, 2], ids=lambda seed: f"seed{seed}")
def reseeded_grids4(request):
    """The same 288 grids thinned in shuffled orders: sudoku4 seeds 1 and 2."""
    return suite4(request.param)


class TestFixedPoint:
    """`converged` means no edge, sent or still queued, can move a belief."""

    @pytest.mark.parametrize("size", [3, 5, 7, 9])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_converged_bundled_runs_are_calibrated(self, topology, size):
        # The bundled 9x9 puzzles.  Stopping on last residuals alone left
        # easy01 bethe/5, easy04 ltrip/3, easy08 bethe/3 and easy09
        # bethe/7 uncalibrated.
        problems = [(path.name, load_puzzle(path)) for path in BUNDLED]
        assert converged_fixed_points(problems, topology, size) == len(problems) == 10

    @pytest.mark.parametrize("size", [None, 3])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_converged_4x4_runs_reach_the_closure(self, grids4, topology, size):
        assert converged_fixed_points(grids4, topology, size) == len(grids4) == 288

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_converged_reseeded_4x4_runs_reach_the_closure(
        self, reseeded_grids4, topology
    ):
        # Size None: each clique whole, as the benchmark's size 4 leaves it.
        got = converged_fixed_points(reseeded_grids4, topology, None)
        assert got == len(reseeded_grids4) == 288

    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(0, 999),
        st.sampled_from(TOPOLOGIES),
        st.sampled_from([0.0, 0.3]),
    )
    @settings(deadline=None, max_examples=60, derandomize=True)
    def test_converged_maps_leave_every_residual_below_threshold(
        self, rows, cols, seed, topology, damping
    ):
        # Biased max-product, as color-map runs it.  The queue alone
        # decides when a run stops, and a run ends early only converged.
        problem = random_planar_map(rows, cols, seed=seed)
        options = InferenceOptions(damping=damping, max_messages=20_000)
        cliques = maximal_cliques(problem)
        state, _ = _compile(problem, cliques, topology, None, options, 0.01, seed)
        state.run()
        assert state.converged or state.stats.messages == options.max_messages
        if state.converged:
            assert max(state.residuals.values()) < THRESHOLD


def sent(state):
    """Run `state`; returns each message's edge and residual bits, in order."""
    log = []
    send = state.pass_message

    def traced(src, dst):
        residual = send(src, dst)
        log.append(((src, dst), residual.hex()))
        return residual

    state.pass_message = traced
    state.run()
    return log


class TestRunControl:
    def test_budget_exhaustion_is_not_an_error(self):
        graph, factors = chain_setup()
        state = InferenceState(graph, factors, InferenceOptions(max_messages=3))
        state.run()
        assert not state.converged
        assert state.stats.messages == 3

    def test_rerun_after_convergence_sends_nothing(self):
        graph, factors = chain_setup()
        state = InferenceState(graph, factors)
        state.run()
        # run() hands back the state itself, so capture before re-running.
        messages, assignment = state.stats.messages, state.assignment
        assert state.run() is state
        assert state.stats.messages == messages
        assert state.assignment == assignment

    def test_run_builds_no_cluster_table(self, monkeypatch):
        graph, factors = chain_setup()
        state = InferenceState(graph, factors)
        built = []
        trusted = SparseTable._trusted.__func__

        def counting(cls, scope, cards, entries):
            built.append(scope)
            return trusted(cls, scope, cards, entries)

        monkeypatch.setattr(SparseTable, "_trusted", classmethod(counting))
        state.run()
        assert state.converged
        assert built == []
        state.beliefs
        assert built == [factor.scope for factor in factors]

    def test_first_message_goes_out_on_the_lowest_edge(self):
        graph, factors = chain_setup()
        state = InferenceState(graph, factors, InferenceOptions(max_messages=1))
        state.run()
        touched = [e for e, r in state.residuals.items() if r != math.inf]
        assert touched == [(0, 1)]

    @pytest.mark.parametrize("topology, size", [("ltrip", 5), ("bethe", 9)])
    def test_sepset_order_does_not_change_a_run(self, topology, size):
        # ltrip and bethe_graph list their sepsets sorted, so only a graph
        # built in another order shows whether the order a cluster's
        # outgoing edges are queued in follows the graph's listing.
        problem = load_puzzle(BUNDLED[0])  # easy01
        cliques = split_cliques(maximal_cliques(problem), size)
        state, _ = _compile(problem, cliques, topology, None, None, 0.0, 0)
        graph, tables = state.graph, state.beliefs
        flipped = ClusterGraph(graph.clusters, tuple(reversed(graph.sepsets)))
        runs = [InferenceState(g, tables) for g in (flipped, graph)]
        assert sent(runs[0]) == sent(runs[1])
        assert all(run.converged for run in runs)

    def test_edgeless_graph_converges_immediately(self):
        graph = ClusterGraph((Cluster(frozenset({A})),), ())
        state = InferenceState(
            graph,
            [SparseTable((A,), (2,), {(0,): 0.5, (1,): 1.5})],
        )
        state.run()
        assert state.converged
        assert state.stats.messages == 0
        assert state.assignment == {A: 1}

    def test_contradiction_escapes_run(self):
        clusters = (Cluster(frozenset({A, B})), Cluster(frozenset({A, C})))
        graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({A})),))
        f0 = SparseTable((A, B), (2, 3), {(0, 0): 1.0, (0, 2): 1.0})  # pins A=0
        f1 = SparseTable((A, C), (2, 2), {(1, 0): 1.0, (1, 1): 1.0})  # pins A=1
        state = InferenceState(graph, [f0, f1])
        # Re-runs raise again: a refused message goes back on the queue at
        # the priority it was popped at, behind the edges already queued
        # there, so the next run tries the other direction first.
        for direction in ("0->1", "1->0", "0->1"):
            with pytest.raises(ContradictionError, match=direction):
                state.run()
        assert state.stats.messages == 0

    def test_contradiction_still_records_its_time(self):
        clusters = (Cluster(frozenset({A, B})), Cluster(frozenset({A, C})))
        graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({A})),))
        f0 = SparseTable((A, B), (2, 3), {(0, 0): 1.0})  # pins A=0
        f1 = SparseTable((A, C), (2, 2), {(1, 0): 1.0})  # pins A=1
        state = InferenceState(graph, [f0, f1])
        with pytest.raises(ContradictionError):
            state.run()
        assert state.stats.wall_ms > 0


class TestDamping:
    def test_damped_tree_reaches_the_same_fixed_point(self, monkeypatch):
        graph, factors = chain_setup(seed=17)
        plain = InferenceState(graph, factors).run()
        # Damping approaches the fixed point geometrically; a tighter
        # threshold lets it get close enough to compare marginals.
        monkeypatch.setattr("clusterbp.inference.THRESHOLD", 1e-12)
        damped = InferenceState(graph, factors, InferenceOptions(damping=0.5)).run()
        assert damped.converged
        assert damped.assignment == plain.assignment
        for variable, table in plain.marginals.items():
            near = damped.marginals[variable]
            assert near.scope == table.scope
            assert near.entries.keys() == table.entries.keys()
            for key, value in table.entries.items():
                assert math.isclose(value, near[key], rel_tol=1e-4)

    def test_damping_only_delays_convergence(self):
        graph, factors = chain_setup(seed=17)
        plain = InferenceState(graph, factors).run()
        damped = InferenceState(
            graph, factors, InferenceOptions(damping=0.5)
        ).run()
        # Mixing approaches each message geometrically instead of jumping
        # straight to it, so the same tree needs more passes.
        assert damped.stats.messages > plain.stats.messages

    def test_contradiction_still_escapes_when_damped(self):
        clusters = (Cluster(frozenset({A, B})), Cluster(frozenset({A, C})))
        graph = ClusterGraph(clusters, (Sepset((0, 1), frozenset({A})),))
        f0 = SparseTable((A, B), (2, 3), {(0, 0): 1.0, (0, 2): 1.0})
        f1 = SparseTable((A, C), (2, 2), {(1, 0): 1.0, (1, 1): 1.0})
        state = InferenceState(
            graph, [f0, f1], InferenceOptions(damping=0.5)
        )
        with pytest.raises(ContradictionError):
            state.run()

    def test_damped_runs_are_deterministic(self):
        graph, factors = chain_setup(seed=5)
        options = InferenceOptions(damping=0.3)
        runs = [InferenceState(graph, factors, options).run() for _ in range(2)]
        assert runs[0].assignment == runs[1].assignment
        assert runs[0].stats.messages == runs[1].stats.messages


class TestLoopyColoring:
    def _biased_factors(self, seven_cliques, delta=0.05):
        factors = []
        assigned = set()
        for cluster in seven_cliques:
            table = all_different(cluster.sorted_vars(), 4)
            for variable in cluster.sorted_vars():
                if variable in assigned:
                    continue
                assigned.add(variable)
                rng = random.Random(variable.id)
                preference = list(range(4))
                rng.shuffle(preference)
                weights = {
                    (label,): 1.0 + delta * preference[label] for label in range(4)
                }
                table = table.multiply(
                    SparseTable((variable,), (4,), weights)
                )
            factors.append(table)
        return factors

    def test_symmetric_potentials_leave_labels_tied(
        self, seven_graph, seven_cliques
    ):
        state = InferenceState(
            seven_graph, seven_coloring_factors(seven_cliques)
        )
        state.run()
        assert state.converged
        # Nothing breaks the label symmetry, so every label survives
        # in every marginal and decoding cannot pick a proper coloring.
        for marginal in state.marginals.values():
            assert len(marginal) == 4

    def test_biased_potentials_decode_a_proper_coloring(
        self, seven_graph, seven_cliques
    ):
        factors = self._biased_factors(seven_cliques)
        state = InferenceState(seven_graph, factors)
        state.run()
        assert state.converged
        for cluster in seven_cliques:
            labels = [state.assignment[v] for v in cluster.sorted_vars()]
            assert len(set(labels)) == len(labels)

    def test_runs_are_deterministic(self, seven_graph, seven_cliques):
        factors = self._biased_factors(seven_cliques)
        runs = [
            InferenceState(seven_graph, factors).run() for _ in range(2)
        ]
        assert runs[0].assignment == runs[1].assignment
        assert runs[0].stats.messages == runs[1].stats.messages
        for variable in runs[0].marginals:
            assert runs[0].marginals[variable] == runs[1].marginals[variable]


def easy01_ltrip5():
    """The first round of easy01 at ltrip/5, compiled and not yet run."""
    problem = load_puzzle(BUNDLED[0])
    state, _ = _compile(problem, maximal_cliques(problem), "ltrip", 5, None, 0.0, 0)
    return state


class TestKernelLists:
    def test_sepsets_hold_the_cells_their_endpoints_reach(self):
        state = easy01_ltrip5()
        beliefs = state.beliefs
        widest = {}
        for sepset in state.graph.sepsets:
            key, scope = sepset.clusters, tuple(sorted(sepset.vars))
            if len(scope) == 1:
                assert len(state._sepsets[key]) == 9
                continue
            reached = {
                tuple(row[beliefs[end].scope.index(v)] for v in scope)
                for end in key
                for row in beliefs[end].entries
            }
            assert len(state._sepsets[key]) == len(reached)
            widest[len(reached)] = len(scope)
        # 68 reached cells, in place of the 9^4 = 6,561 of a dense list.
        assert max(widest) == 68
        assert widest[68] == 4

    def test_resent_message_returns_at_once(self):
        state = easy01_ltrip5()
        key = max(state._sepsets, key=lambda k: len(state._sepsets[k]))
        src, dst = key
        assert state.pass_message(src, dst) > 0.0
        stored, values = state._sepsets[key], list(state._vals[dst])
        assert state.pass_message(src, dst) == 0.0
        assert state._sepsets[key] is stored
        assert state._vals[dst] == values
        assert state.residuals[src, dst] == 0.0
        assert state.stats.messages == 2

    def test_every_cluster_peaks_at_exactly_one(self, monkeypatch):
        # Set-up and every update divide by the largest value, so the
        # no-op return and `marginals` can both leave the scale alone.
        checked = []
        init, send = InferenceState.__init__, InferenceState.pass_message

        def check(state):
            assert all(max(values) == 1.0 for values in state._vals)
            checked.append(state.stats.messages)

        def checking_init(self, *args):
            init(self, *args)
            check(self)

        def checking_send(self, src, dst):
            residual = send(self, src, dst)
            check(self)
            return residual

        monkeypatch.setattr(InferenceState, "__init__", checking_init)
        monkeypatch.setattr(InferenceState, "pass_message", checking_send)
        problem = load_puzzle(BUNDLED[0])
        assert solve_problem(problem, "ltrip", 5).valid
        damped = InferenceOptions(damping=0.3)
        assert color_problem(random_planar_map(8, 8, seed=0), options=damped).valid
        # Each set-up and each of the 4,000-odd messages is checked.
        assert len(checked) > 4000

    @pytest.mark.parametrize("case", ["easy01-ltrip5-biased", "map8x8-damped"])
    def test_entry_order_does_not_change_a_run(self, case):
        # Each residual is a math.fsum of its KL terms, so neither the
        # order a factor lists its entries in, nor the cell numbering its
        # rows give a sepset, moves a bit.
        if case == "easy01-ltrip5-biased":
            problem, options, size = load_puzzle(BUNDLED[0]), None, 5
        else:
            problem = random_planar_map(8, 8, seed=0)
            options, size = InferenceOptions(damping=0.3), None
            anchor = anchor_largest_clique(problem, maximal_cliques(problem))
            problem = dataclasses.replace(problem, givens=anchor)
        cliques = maximal_cliques(problem)
        state, _ = _compile(problem, cliques, "ltrip", size, options, 0.01, 0)
        graph, tables = state.graph, state.beliefs
        rng = random.Random(0)
        shuffled = []
        for table in tables:
            entries = list(table.entries.items())
            rng.shuffle(entries)
            shuffled.append(SparseTable(table.scope, table.cards, dict(entries)))
        runs = [InferenceState(graph, t, options) for t in (tables, shuffled)]
        logs = [sent(run) for run in runs]
        assert len(logs[0]) > 500
        assert logs[0] == logs[1]
        assert runs[0].stats.messages == runs[1].stats.messages
        assert runs[0].marginals == runs[1].marginals


def row_walk_marginals(state):
    """Each variable's max-marginal as the hand-rolled walk read it.

    A copy of the walk `InferenceState.marginals` made before it called
    the table algebra: one pass per cluster that first holds a variable,
    each row that still holds mass raising the entry of every variable
    first held there, in row order.
    """
    totals = {}
    for factor, vals in zip(state._factors, state._vals):
        accs = [
            (totals.setdefault(v, {}), p)
            for p, v in enumerate(factor.scope)
            if v not in totals
        ]
        if not accs:
            continue
        for row, value in zip(factor.entries, vals):
            if not value:
                continue
            for acc, p in accs:
                x = row[p]
                if value > acc.get(x, 0.0):
                    acc[x] = value
    out = {}
    for variable in sorted(totals):
        entries = {(x,): value for x, value in totals[variable].items()}
        out[variable] = SparseTable._trusted(
            (variable,), (state._cards[variable],), entries
        )
    return out


class TestMarginalsMatchTheRowWalk:
    """`marginals` reads what the hand-rolled row walk read: the same
    variables, values and entry order, and so the same ranked decode."""

    def assert_same(self, problem, cliques, topology, size, options, bias):
        state, _ = _compile(problem, cliques, topology, size, options, bias, 0)
        try:
            state.run()
        except ContradictionError:
            pass  # a refused message changes nothing; the state still reads
        live, walked = state.marginals, row_walk_marginals(state)
        assert list(live) == list(walked)
        for variable, table in walked.items():
            assert live[variable] == table
            assert list(live[variable].entries.items()) == list(table.entries.items())
        assert _ranked_decode(problem, live) == _ranked_decode(problem, walked)

    @pytest.mark.parametrize("bias", [0.0, 0.01])
    @pytest.mark.parametrize("size", [3, 5, 9])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_bundled_sweep(self, topology, size, bias):
        options = InferenceOptions(max_messages=20_000)
        for path in BUNDLED:
            problem = load_puzzle(path)
            cliques = maximal_cliques(problem)
            self.assert_same(problem, cliques, topology, size, options, bias)

    def test_map250_first_round(self):
        problem = random_planar_map(25, 10, seed=3)
        cliques = maximal_cliques(problem)
        anchor = anchor_largest_clique(problem, cliques)
        problem = dataclasses.replace(problem, givens=anchor)
        options = InferenceOptions(damping=0.3)
        self.assert_same(problem, cliques, "ltrip", None, options, 0.01)

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 999),
        st.sampled_from(TOPOLOGIES),
        st.sampled_from([None, 2, 3]),
        st.sampled_from([0.0, 0.3]),
        st.sampled_from([0.0, 0.01]),
        st.data(),
    )
    @settings(deadline=None, max_examples=60, derandomize=True)
    def test_maps_with_givens(
        self, rows, cols, seed, topology, size, damping, bias, data
    ):
        problem = random_planar_map(rows, cols, seed=seed)
        found = color_by_backtracking(
            [v.name for v in problem.variables],
            [tuple(sorted(v.name for v in e)) for e in problem.edges],
            4,
        )
        shown = data.draw(st.sets(st.sampled_from(problem.variables)))
        givens = {v: found[v.name] for v in shown}
        problem = dataclasses.replace(problem, givens=givens)
        options = InferenceOptions(damping=damping, max_messages=20_000)
        cliques = maximal_cliques(problem)
        self.assert_same(problem, cliques, topology, size, options, bias)
