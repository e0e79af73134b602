"""Shared fixtures: a small seven-region map worked out by hand.

The map has regions A..G with fourteen borders.  Its five maximal
cliques and a hand-drawn six-edge cluster graph over them are frozen
here; several test modules cross-check construction, validation, and
inference against this one instance.  Three helpers the modules share
sit here too: the all-different table, a problem's neighbour list and
its variable by name.
"""

from __future__ import annotations

import itertools

import pytest

from clusterbp import SparseTable, make_variables
from clusterbp.graphs import Cluster, ClusterGraph, Sepset

# Borders between the seven regions (sorted name pairs).
SEVEN_REGION_BORDERS = [
    ("A", "B"), ("A", "C"), ("A", "D"), ("A", "F"),
    ("B", "E"), ("B", "F"), ("B", "G"),
    ("C", "D"), ("C", "E"), ("C", "F"),
    ("D", "E"), ("D", "F"), ("D", "G"),
    ("E", "G"),
]

SEVEN_REGION_TEXT = "# seven regions\n" + "".join(
    f"{a} {b}\n" for a, b in SEVEN_REGION_BORDERS
)

# Maximal cliques of the border graph, in sorted-variable-tuple order.
SEVEN_REGION_CLIQUES = [
    ("A", "B", "F"),
    ("A", "C", "D", "F"),
    ("B", "E", "G"),
    ("C", "D", "E"),
    ("D", "E", "G"),
]


def all_different(scope, k):
    """The all-different table over `scope`: 1.0 on every injective key."""
    keys = itertools.permutations(range(k), len(scope))
    return SparseTable(scope, (k,) * len(scope), dict.fromkeys(keys, 1.0))


def neighbours(problem, variable):
    """The variables that share an edge with `variable`, sorted."""
    return sorted(next(iter(e - {variable})) for e in problem.edges if variable in e)


def variable_named(problem, name):
    """The variable of `problem` called `name`."""
    return next(v for v in problem.variables if v.name == name)


@pytest.fixture(scope="session")
def seven_vars():
    return make_variables("ABCDEFG")


@pytest.fixture(scope="session")
def seven_cliques(seven_vars):
    by_name = {v.name: v for v in seven_vars}
    return [
        Cluster(frozenset(by_name[n] for n in names))
        for names in SEVEN_REGION_CLIQUES
    ]


@pytest.fixture(scope="session")
def seven_graph(seven_vars, seven_cliques):
    """A hand-drawn six-edge cluster graph over the five cliques.

    Not the layered construction's output (that one has five edges);
    this variant exercises validation and message passing on a graph
    with a redundant loop.
    """
    by_name = {v.name: v for v in seven_vars}

    def sep(i, j, names):
        return Sepset((i, j), frozenset(by_name[n] for n in names))

    return ClusterGraph(
        clusters=tuple(seven_cliques),
        sepsets=(
            sep(0, 1, "AF"),
            sep(0, 2, "B"),
            sep(1, 3, "CD"),
            sep(2, 3, "E"),
            sep(2, 4, "G"),
            sep(3, 4, "DE"),
        ),
    )
