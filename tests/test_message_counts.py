"""Pinned message counts: the exact message sequence length per instance.

A change to how problems compile into tables, or to the propagation
kernel, may speed things up but must not change what BP computes.  The
counts below were recorded from the pipeline before the compile path was
rewritten; any drift in a table entry, its iteration order, or the
cluster numbering shows up here as a different count or validity.
"""

from pathlib import Path

import pytest

import clusterbp
from clusterbp.cli import color_problem, solve_problem
from clusterbp.coloring import random_planar_map, sudoku_problem

EASY01 = (
    Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
).read_text()
WELL_DEFINED_4 = "....\n3.12\n2..3\n....\n"
CORNERS_4 = "1..4\n....\n....\n4..1\n"

# (topology, cluster size) -> (messages, valid, clusters)
EASY01_COUNTS = {
    ("ltrip", 9): (406, True, 27),
    ("bethe", 9): (1365, True, 27),
    ("ltrip", 5): (2884, True, 138),
}

# (grid, topology, cluster size, bias) -> (messages, valid, clusters)
GRID4_COUNTS = {
    (WELL_DEFINED_4, "ltrip", None, 0.0): (53, True, 10),
    (WELL_DEFINED_4, "ltrip", None, 0.01): (53, True, 10),
    (WELL_DEFINED_4, "ltrip", 3, 0.0): (98, True, 16),
    (WELL_DEFINED_4, "ltrip", 3, 0.01): (99, True, 16),
    (WELL_DEFINED_4, "bethe", None, 0.0): (138, True, 10),
    (WELL_DEFINED_4, "bethe", None, 0.01): (138, True, 10),
    (WELL_DEFINED_4, "bethe", 3, 0.0): (191, True, 16),
    (WELL_DEFINED_4, "bethe", 3, 0.01): (187, True, 16),
    (CORNERS_4, "ltrip", None, 0.0): (65, False, 12),
    (CORNERS_4, "ltrip", None, 0.01): (189, True, 12),
    (CORNERS_4, "ltrip", 3, 0.0): (130, False, 20),
    (CORNERS_4, "ltrip", 3, 0.01): (309, True, 20),
    (CORNERS_4, "bethe", None, 0.0): (168, False, 12),
    (CORNERS_4, "bethe", None, 0.01): (473, True, 12),
    (CORNERS_4, "bethe", 3, 0.0): (244, False, 20),
    (CORNERS_4, "bethe", 3, 0.01): (507, True, 20),
}

# (rows, cols, seed) -> (messages, valid, clusters) under color_problem
MAP_COUNTS = {
    (5, 5, 3): (591, True, 25),
    (6, 6, 7): (1321, True, 39),
}


def counts(outcome):
    return (outcome.messages, outcome.valid, outcome.cluster_count)


@pytest.fixture(scope="module")
def easy01():
    return sudoku_problem(EASY01, 9)


@pytest.mark.parametrize("topology,size", sorted(EASY01_COUNTS))
def test_easy01_message_counts(easy01, topology, size):
    outcome = solve_problem(easy01, topology, size)
    assert counts(outcome) == EASY01_COUNTS[topology, size]


@pytest.mark.parametrize(
    "grid,topology,size,bias",
    list(GRID4_COUNTS),
    ids=[
        f"{'well' if g == WELL_DEFINED_4 else 'corners'}-{t}-{s}-{b}"
        for g, t, s, b in GRID4_COUNTS
    ],
)
def test_grid4_message_counts(grid, topology, size, bias):
    outcome = solve_problem(sudoku_problem(grid, 4), topology, size, bias_delta=bias)
    assert counts(outcome) == GRID4_COUNTS[grid, topology, size, bias]


@pytest.mark.parametrize("rows,cols,seed", sorted(MAP_COUNTS))
def test_map_message_counts(rows, cols, seed):
    outcome = color_problem(random_planar_map(rows, cols, seed=seed))
    assert counts(outcome) == MAP_COUNTS[rows, cols, seed]
