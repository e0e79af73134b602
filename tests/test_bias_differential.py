"""Biased factor tables against the unbiased ones and the preference rule.

`cli._compile` compiles one round.  Under a bias of strength δ at a
seed, each factor table it hands the state must hold the unbiased
table's keys, in the same order, each weighted by

    math.prod(1.0 + δ * prefs[v][key[p]] for p, v in enumerate(scope))

in scope order, to the last bit, where `prefs` is conftest's
`label_preferences(problem, seed)`.  A nudge that overflows is refused
naming the first variable of the first table; otherwise a product that
overflows is refused naming the first table that holds one.  A round
whose unbiased compile contradicts contradicts biased with the same
message.

Covers the ten bundled puzzles at cluster sizes None, 3 and 5, the
250-region map anchored by its largest clique, and Hypothesis maps with
givens and frozen labels.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp.cli import _compile, load_puzzle
from clusterbp.coloring import (
    ColoringProblem,
    anchor_largest_clique,
    maximal_cliques,
    random_planar_map,
)
from clusterbp.factors import ContradictionError
from conftest import label_preferences, neighbours
from oracles import color_by_backtracking

PUZZLES = sorted((Path(clusterbp.__file__).parent / "data" / "puzzles").glob("*.txt"))


def compiled(problem, cliques, size, delta, seed):
    """The factor tables `_compile` hands the state (Bethe hubs aside)."""
    state, count = _compile(problem, cliques, "ltrip", size, None, delta, seed)
    return state._factors[:count]


def weighted(table, delta, prefs):
    """The unbiased `table`'s keys, in order, each with its nudge product."""
    scope = table.scope
    return [
        (key, math.prod(1.0 + delta * prefs[v][key[p]] for p, v in enumerate(scope)))
        for key in table.entries
    ]


def assert_biased_matches(problem, cliques, size, delta, seed):
    try:
        plain = compiled(problem, cliques, size, 0.0, seed)
    except ContradictionError as exc:
        with pytest.raises(ContradictionError, match=f"^{re.escape(str(exc))}$"):
            compiled(problem, cliques, size, delta, seed)
        return
    prefs = label_preferences(problem, seed)
    if plain and any(1.0 + delta * w == math.inf for w in range(problem.k)):
        name = plain[0].scope[0].name
        message = (
            f"bias delta {delta} overflows the nudge of {name}; use a smaller bias"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compiled(problem, cliques, size, delta, seed)
        return
    expected = [weighted(table, delta, prefs) for table in plain]
    for table, entries in zip(plain, expected):
        if any(weight == math.inf for _, weight in entries):
            label = ",".join(v.name for v in table.scope)
            message = (
                f"bias delta {delta} overflows a weight of clique {{{label}}}; "
                f"use a smaller bias"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                compiled(problem, cliques, size, delta, seed)
            return
    biased = compiled(problem, cliques, size, delta, seed)
    assert len(biased) == len(plain)
    for table, base, entries in zip(biased, plain, expected):
        assert (table.scope, table.cards) == (base.scope, base.cards)
        assert [(key, value.hex()) for key, value in table.entries.items()] == [
            (key, value.hex()) for key, value in entries
        ]


@pytest.mark.parametrize("size", [None, 3, 5])
@pytest.mark.parametrize("path", PUZZLES, ids=[p.stem for p in PUZZLES])
def test_bundled_puzzles(path, size):
    problem = load_puzzle(path)
    cliques = maximal_cliques(problem)
    for delta in (0.01, 1.0):
        for seed in (0, 1):
            assert_biased_matches(problem, cliques, size, delta, seed)


@pytest.mark.parametrize("delta", [1e300, 1e308], ids=["product", "nudge"])
@pytest.mark.parametrize("size", [None, 3, 5])
def test_overflow_refusals(size, delta):
    for path in PUZZLES[:2]:
        problem = load_puzzle(path)
        assert_biased_matches(problem, maximal_cliques(problem), size, delta, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_map250_anchored(seed):
    problem = random_planar_map(25, 10, seed=3)
    cliques = maximal_cliques(problem)
    anchored = dataclasses.replace(
        problem, givens=anchor_largest_clique(problem, cliques)
    )
    for delta in (0.01, 1.0):
        assert_biased_matches(anchored, cliques, None, delta, seed)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.sampled_from([None, 2, 3]),
    st.sampled_from([0.01, 0.3, 1.0]),
    st.data(),
)
@settings(deadline=None, max_examples=60)
def test_maps_with_givens_and_frozen_labels(rows, cols, seed, size, delta, data):
    problem = random_planar_map(rows, cols, seed=seed)
    found = color_by_backtracking(
        [v.name for v in problem.variables],
        [tuple(sorted(v.name for v in e)) for e in problem.edges],
        4,
    )
    pick = st.sampled_from(problem.variables)
    givens = {v: found[v.name] for v in data.draw(st.sets(pick))}
    # Frozen labels, as decimation freezes them: any label that no given
    # neighbour holds, right or wrong.
    for variable in data.draw(st.sets(pick)):
        if variable not in givens:
            held = {givens.get(u) for u in neighbours(problem, variable)}
            labels = [x for x in range(4) if x not in held]
            if labels:
                givens[variable] = data.draw(st.sampled_from(labels))
    problem = ColoringProblem(problem.variables, problem.edges, 4, givens)
    assert_biased_matches(problem, maximal_cliques(problem), size, delta, seed)
