"""The list kernel against the table algebra it replaced, bit for bit.

`InferenceState.pass_message` works on per-edge cell lists.  `DictPath`
below is the propagation step as it was before, written with the public
`SparseTable` algebra.  It replays every message the kernel sent, in the
kernel's order, and must give each residual to the last bit, raise where
the kernel raised, and end on the same cluster beliefs (the same entries,
values and entry order) and the same sepset beliefs (the same entries and
values).  The state's one-walk `marginals` must then equal `DictPath`'s
per-variable marginalize and normalize of each variable's first holder,
to the last bit and in the same order.

Both sides sum a residual's KL terms and a message's total with
`math.fsum`, so the order either visits cells in moves no bit.  `DictPath`
reorders a damped message onto the sepset's sorted scope only so that its
keys index the stored sepset table.  The kernel numbers a sepset's cells
as its endpoints' rows first reach them, so sepset tables are compared by
value, with entry order ignored.

Covers:
* bundled 9x9 puzzle, ltrip and bethe at size 9
* a 4x4 grid split at size 3 with bias, both topologies
* a damped, anchored planar map through every decimation round
* factors whose scopes are not sorted, damped and undamped
* easy01 split at size 5 under ltrip, whose clusters keep every row of
  their factors, zero or not, to the end of the run
* marginals after every replayed run
* a sepset variable outside an endpoint, refused when the graph is
  built, so the kernel's setup holds no check of its own
* a failed message (a contradiction, or a quotient that overflows)
  leaving the state untouched, and a re-run stopping at a refused edge
  again
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

import pytest

import clusterbp
from clusterbp import ContradictionError, SparseTable, make_variables, uniform_factor
from clusterbp.cli import ATTEMPTS, color_problem, solve_problem
from clusterbp.coloring import (
    build_factors,
    maximal_cliques,
    parse_adjacency,
    random_planar_map,
    split_cliques,
    sudoku_problem,
)
from clusterbp.factors import kl_divergence
from clusterbp.graphs import Cluster, ClusterGraph, Sepset, ltrip
from clusterbp.inference import InferenceOptions, InferenceState

EASY01 = (
    Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
).read_text()
CORNERS_4 = "1..4\n....\n....\n4..1\n"
# A hub bordering a five-cycle: it needs four colors, so three dead-end.
WHEEL = "H a\nH b\nH c\nH d\nH e\na b\nb c\nc d\nd e\ne a\n"


class DictPath:
    """Belief update on tables: the propagation step the kernel replaced."""

    def __init__(self, graph, factors, options):
        self.options = options
        self.beliefs = [f.normalize("max") for f in factors]
        cards = {v: f.card_of(v) for f in factors for v in f.scope}
        self.scopes = {s.clusters: tuple(sorted(s.vars)) for s in graph.sepsets}
        self.sepsets = {
            key: uniform_factor(scope, [cards[v] for v in scope])
            for key, scope in self.scopes.items()
        }

    def pass_message(self, src, dst):
        key = (min(src, dst), max(src, dst))
        stored = self.sepsets[key]
        message = self.beliefs[src].marginalize(self.scopes[key], "max")
        damping = self.options.damping
        if damping > 0.0:
            message = message.reorder(self.scopes[key])
            message = SparseTable(
                message.scope,
                message.cards,
                {
                    assignment: value ** (1.0 - damping) * stored[assignment] ** damping
                    for assignment, value in message.items()
                },
            )
        residual = kl_divergence(message, stored)
        updated = self.beliefs[dst].multiply(message.divide(stored))
        if not updated.entries:
            raise ContradictionError(f"message {src}->{dst} annihilated its target")
        self.beliefs[dst] = updated.normalize("max")
        self.sepsets[key] = message
        return residual

    def marginals(self, graph):
        """Each variable's marginal from the first cluster holding it."""
        holders = {}
        for i, cluster in enumerate(graph.clusters):
            for variable in cluster.vars:
                holders.setdefault(variable, i)
        return {
            variable: self.beliefs[holders[variable]]
            .marginalize([variable], "max")
            .normalize("max")
            for variable in sorted(holders)
        }


@pytest.fixture
def runs(monkeypatch):
    """Each InferenceState built: its inputs and every message it sent.

    A sent message is (src, dst, residual), with residual None when the
    message raised a contradiction.
    """
    logs = {}
    init = InferenceState.__init__
    pass_message = InferenceState.pass_message

    def recording_init(self, graph, factors, options=None):
        init(self, graph, factors, options)
        logs[self] = (graph, list(factors), self.options, [])

    def recording_pass(self, src, dst):
        sent = logs[self][3]
        try:
            residual = pass_message(self, src, dst)
        except ContradictionError:
            sent.append((src, dst, None))
            raise
        sent.append((src, dst, residual))
        return residual

    monkeypatch.setattr(InferenceState, "__init__", recording_init)
    monkeypatch.setattr(InferenceState, "pass_message", recording_pass)
    return logs


def entries(table):
    return list(table.entries.items())


def exact(table):
    """A table's scope, cards and entries, values as float.hex()."""
    return table.scope, table.cards, [(k, v.hex()) for k, v in table.entries.items()]


def assert_replays(logs):
    """Replay every recorded run through DictPath; returns messages sent."""
    total = 0
    for state, (graph, factors, options, sent) in logs.items():
        reference = DictPath(graph, factors, options)
        for src, dst, residual in sent:
            if residual is None:
                with pytest.raises(ContradictionError):
                    reference.pass_message(src, dst)
            else:
                got = reference.pass_message(src, dst).hex()
                assert got == residual.hex(), (src, dst)
        beliefs = state.beliefs
        assert len(beliefs) == len(reference.beliefs)
        for got, want in zip(beliefs, reference.beliefs):
            assert got.scope == want.scope
            assert entries(got) == entries(want)
        sepsets = state.sepset_beliefs
        assert sepsets.keys() == reference.sepsets.keys()
        for key, want in reference.sepsets.items():
            got = sepsets[key]
            assert got == want.reorder(got.scope)
        marginals = state.marginals
        wanted = reference.marginals(graph)
        assert list(marginals) == list(wanted)
        for variable, want in wanted.items():
            assert exact(marginals[variable]) == exact(want), variable
        total += len(sent)
    return total


# Test ids name max-product, the kernel's one semiring.
@pytest.mark.parametrize(
    "topology", ["ltrip", "bethe"], ids=["ltrip-max", "bethe-max"]
)
def test_easy01(runs, topology):
    options = InferenceOptions(max_messages=3000)
    solve_problem(sudoku_problem(EASY01, 9), topology, 9, options=options)
    assert assert_replays(runs) > 100


@pytest.mark.parametrize("topology", ["ltrip", "bethe"])
def test_grid4_split_and_biased(runs, topology):
    solve_problem(sudoku_problem(CORNERS_4, 4), topology, 3, bias_delta=0.01)
    assert assert_replays(runs) > 100


def test_damped_anchored_map(runs):
    # Six decimation rounds, 12,599 messages.
    outcome = color_problem(
        random_planar_map(6, 8, seed=8), options=InferenceOptions(damping=0.3)
    )
    assert outcome.valid
    assert len(runs) > 1  # one state per decimation round
    assert assert_replays(runs) == outcome.messages


def test_dead_end_map(runs):
    with pytest.raises(ContradictionError):
        color_problem(parse_adjacency(WHEEL, 3), options=InferenceOptions(damping=0.3))
    failed = [
        (src, dst)
        for *_, sent in runs.values()
        for src, dst, residual in sent
        if residual is None
    ]
    # One dead end per biased attempt, and one for the unbiased rerun.
    assert len(failed) == ATTEMPTS + 1 == 5
    assert_replays(runs)


def unsorted_loop(seed):
    """The seven-region cliques with factor scopes in reverse, some zeros."""
    rng = random.Random(seed)
    names = make_variables("ABCDEFG")
    by_name = {v.name: v for v in names}
    groups = ["ABF", "ACDF", "BEG", "CDE", "DEG"]
    clusters = [Cluster(frozenset(by_name[n] for n in group)) for group in groups]
    factors = []
    for group in groups:
        scope = [by_name[n] for n in reversed(group)]
        entries = {
            key: rng.choice([0.0, rng.uniform(0.1, 3.0)])
            for key in itertools.product(range(3), repeat=len(scope))
        }
        factors.append(SparseTable(scope, (3,) * len(scope), entries))

    def sep(i, j, group):
        return Sepset((i, j), frozenset(by_name[n] for n in group))

    sepsets = (
        sep(0, 1, "AF"), sep(0, 2, "B"), sep(1, 3, "CD"),
        sep(2, 3, "E"), sep(2, 4, "G"), sep(3, 4, "DE"),
    )
    return ClusterGraph(tuple(clusters), sepsets), factors


@pytest.mark.parametrize("damping", [0.0, 0.3], ids=["max-0.0", "max-0.3"])
def test_unsorted_scopes(runs, damping):
    for seed in range(4):
        graph, factors = unsorted_loop(seed)
        options = InferenceOptions(damping=damping, max_messages=400)
        try:
            InferenceState(graph, factors, options).run()
        except ContradictionError:
            pass
    assert assert_replays(runs) > 100


def easy01_split_at_5():
    """easy01 split at size 5 under ltrip: the graph and its tables."""
    problem = sudoku_problem(EASY01, 9)
    items = build_factors(problem, split_cliques(maximal_cliques(problem), 5))
    graph = ltrip([cluster for cluster, _ in items])
    return graph, [table for _, table in items]


def test_easy01_split_at_5(runs):
    graph, tables = easy01_split_at_5()
    InferenceState(graph, tables, InferenceOptions(max_messages=2000)).run()
    assert assert_replays(runs) > 100


def test_rows_stay_the_factor_entries():
    # Rows that leave the support hold 0.0 to the end of the run: every
    # value list and cell list keeps its factor's length.
    graph, tables = easy01_split_at_5()
    state = InferenceState(graph, tables, InferenceOptions(max_messages=2000)).run()
    assert any(0.0 in vals for vals in state._vals)
    for i, table in enumerate(tables):
        assert len(state._vals[i]) == len(table.entries)
        for cells in state._cells[i].values():
            assert len(cells) == len(table.entries)


def test_sepset_variable_outside_an_endpoint():
    # Refused when the graph is built, so the kernel never sets one up.
    a, b, c = make_variables("ABC")
    with pytest.raises(ValueError, match="carries A, but cluster 1 covers only"):
        ClusterGraph(
            (Cluster(frozenset({a, b})), Cluster(frozenset({b, c}))),
            (Sepset((0, 1), frozenset({a, b})),),
        )


def snapshot(state):
    return (
        [entries(t) for t in state.beliefs],
        {key: entries(t) for key, t in state.sepset_beliefs.items()},
        dict(state.residuals),
        state.messages,
    )


@pytest.mark.parametrize("damping", [0.0, 0.5])
def test_contradiction_changes_nothing(damping):
    a, b, c = make_variables("ABC")
    graph = ClusterGraph(
        (
            Cluster(frozenset({a, b})),
            Cluster(frozenset({a, c})),
            Cluster(frozenset({c})),
        ),
        (Sepset((0, 1), frozenset({a})), Sepset((1, 2), frozenset({c}))),
    )
    factors = [
        SparseTable((a, b), (2, 3), {(0, 0): 1.0, (0, 2): 1.0}),  # pins A=0
        SparseTable((a, c), (2, 2), {(1, 0): 1.0, (1, 1): 2.0}),  # pins A=1
        SparseTable((c,), (2,), {(0,): 3.0, (1,): 1.0}),
    ]
    state = InferenceState(graph, factors, InferenceOptions(damping=damping))
    state.pass_message(2, 1)
    before = snapshot(state)
    with pytest.raises(ContradictionError, match="0->1"):
        state.pass_message(0, 1)
    assert snapshot(state) == before


def test_overflowing_quotient_changes_nothing_and_stops_the_run():
    # Cluster 0 leaves a subnormal A=1 cell on sepset (0, 1).  Cluster 2
    # then lifts A=1 in cluster 1 back to 1.0, so the message 1->0
    # divides 1.0 by that cell, which overflows.
    (a,) = make_variables("A")
    graph = ClusterGraph(
        tuple(Cluster(frozenset({a})) for _ in range(3)),
        (Sepset((0, 1), frozenset({a})), Sepset((1, 2), frozenset({a}))),
    )
    factors = [
        SparseTable((a,), (2,), {(0,): 1.0, (1,): 1e-310}),
        uniform_factor((a,), (2,)),
        SparseTable((a,), (2,), {(0,): 1e-310, (1,): 1.0}),
    ]
    state = InferenceState(graph, factors)
    state.pass_message(0, 1)
    state.pass_message(2, 1)
    before = snapshot(state)
    with pytest.raises(ZeroDivisionError, match="1->0 .* float range"):
        state.pass_message(1, 0)
    assert snapshot(state) == before
    assert state.run() is state
    assert not state.converged
    assert all(math.isfinite(v) for t in state.beliefs for v in t.entries.values())
    # A refused message goes back on the queue, so a second run stops at
    # a refused edge again: 1->2, queued before 1->0 at the same infinite
    # priority, overflows too.  It sends nothing and stays unconverged.
    tried = []

    def spy(src, dst):
        tried.append((src, dst))
        return InferenceState.pass_message(state, src, dst)

    state.pass_message = spy
    before = snapshot(state)
    assert state.run() is state
    assert tried == [(1, 2)]
    assert snapshot(state) == before
    assert not state.converged
