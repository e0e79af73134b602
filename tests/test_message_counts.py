"""Pinned message sequences: the exact messages BP sends per instance.

A change to how problems compile into tables, or to the propagation
kernel, may speed things up but must not change what BP computes.  Each
instance pins the message count, validity and cluster count, plus the
sha256 of the `src,dst` sequence of every `pass_message` call (dead-ended
decimation rounds included).  Any drift in a table entry, its iteration
order, the cluster numbering or the order messages are sent in shows up
here.

ROADMAP item 3 re-pinned every instance when tables came to be compiled
over each free variable's domain (the labels left once its given clique
neighbours are removed), with each bias nudge applied once per table
holding the variable.  The joint is unchanged, but the tables are smaller
and BP's fixed points and message orders moved: easy01 ltrip/9 went from
406 to 314 messages, and the two maps from 409 and 1,321 to 402 and 815.
Every valid flag and cluster count stayed as it was.

When `solve_problem` came to decode through the margin-ranked decode that
`color_problem` uses, the four unbiased CORNERS_4 pins turned valid: their
marginals tie, so argmax filled rows with one label, while the ranked
decode gives each cell a label no earlier neighbour took.  Decoding reads
the beliefs after the run, so no message count, cluster count or digest
moved.

When "converged" came to mean a fixed point (the run stops at threshold
only once no queued edge holds a priority at or above `THRESHOLD`),
`well-ltrip-3-0.01` went from 87 to 88 messages: its run used to stop
with one such edge still queued, and now sends that message too.  Its
valid flag and cluster count did not move.

Both entry points now run one pipeline, with the decimation fallback and
the largest-clique anchor for `solve_problem` too.  Every pinned run
verifies in its first round, and every grid here has givens, so no other
pin moved.
"""

import hashlib
from pathlib import Path

import pytest

import clusterbp
from clusterbp.cli import color_problem, solve_problem
from clusterbp.coloring import random_planar_map, sudoku_problem
from clusterbp.inference import InferenceOptions, InferenceState

EASY01 = (
    Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
).read_text()
WELL_DEFINED_4 = "....\n3.12\n2..3\n....\n"
CORNERS_4 = "1..4\n....\n....\n4..1\n"

# (topology, cluster size) -> (messages, valid, clusters, sequence sha256)
EASY01_COUNTS = {
    ("ltrip", 9): (
        314, True, 27,
        "c15837b8d3a6fce010687d838efd7d9d6f75dffc556d29b1d5631636913a941c",
    ),
    ("bethe", 9): (
        1034, True, 27,
        "c31c52d9823a7bc0f2d5f00f2436939956ec71ca8ca4de6eb1df6633c19a90dd",
    ),
    ("ltrip", 5): (
        2581, True, 138,
        "5bb26f4eb992dc3a87317660ecee812f8047a8c9703f2a5a526a2903203b2094",
    ),
}

# (grid, topology, cluster size, bias) -> (messages, valid, clusters, sequence sha256)
GRID4_COUNTS = {
    (WELL_DEFINED_4, "ltrip", None, 0.0): (
        43, True, 10,
        "67619b4f2169cb950498f61c5dca5376457354bd7757595095a6376eec6d43ad",
    ),
    (WELL_DEFINED_4, "ltrip", None, 0.01): (
        43, True, 10,
        "67619b4f2169cb950498f61c5dca5376457354bd7757595095a6376eec6d43ad",
    ),
    (WELL_DEFINED_4, "ltrip", 3, 0.0): (
        88, True, 16,
        "9c827eba99b03c6edbf5fe44bc4d43bd309fe36ec4970963c9562eb9e9db7dc8",
    ),
    (WELL_DEFINED_4, "ltrip", 3, 0.01): (
        88, True, 16,
        "251b5bd6f95a45d51be426368392492e856c94644f577d6b2aa87e8dfddf4835",
    ),
    (WELL_DEFINED_4, "bethe", None, 0.0): (
        112, True, 10,
        "e45e2ecfca9c53035010199ba8c36b19f79f98a1d68c60998751a2de2726541c",
    ),
    (WELL_DEFINED_4, "bethe", None, 0.01): (
        112, True, 10,
        "6b91f4739626dd905b3162089a11d0255d35ec63ddc9cfb38d89f0c342c30039",
    ),
    (WELL_DEFINED_4, "bethe", 3, 0.0): (
        174, True, 16,
        "40c7161c0c3e77e72a049d85c8c7b87cc8deda0d9ccda3049730188c051e1d32",
    ),
    (WELL_DEFINED_4, "bethe", 3, 0.01): (
        174, True, 16,
        "c29e802d1f215952bbd69fffcb42933321fcb679c2f362553aaf19ac6a9a5a71",
    ),
    (CORNERS_4, "ltrip", None, 0.0): (
        53, True, 12,
        "af935863bac912e86a3d3478792c6c8d101d33531e89653bf3c866511ae8a360",
    ),
    (CORNERS_4, "ltrip", None, 0.01): (
        185, True, 12,
        "7d86fbf273a2c9422b51ec6576aae60d38c1c8bfe94dab7648993fcbed84154a",
    ),
    (CORNERS_4, "ltrip", 3, 0.0): (
        117, True, 20,
        "8315e92473fb1851153bf57e3108d99e3077487153a5690a73f08e1b57d1ed0b",
    ),
    (CORNERS_4, "ltrip", 3, 0.01): (
        318, True, 20,
        "abf39734a52a9deae372010f436538f6123ab11eeabab95609b37235eb5a6d80",
    ),
    (CORNERS_4, "bethe", None, 0.0): (
        132, True, 12,
        "32ba061868e3fb9d1df880433efc946c058f1b4fde663c33c2b61f73bde9504a",
    ),
    (CORNERS_4, "bethe", None, 0.01): (
        475, True, 12,
        "fa303388ede3db2473340ec3ac38aeab118e98177be77037185b03db9ee37275",
    ),
    (CORNERS_4, "bethe", 3, 0.0): (
        211, True, 20,
        "bc96f1ef6d9a28e57b3f544e0141393d9927daf76f43655cf65203166deb735f",
    ),
    (CORNERS_4, "bethe", 3, 0.01): (
        510, True, 20,
        "3080732e0bcff70c3078ce74d43c5130aa70308e03e6468434af8cb441962d7a",
    ),
}

# (rows, cols, seed) -> (messages, valid, clusters, sequence sha256) under
# color_problem.  (5, 5, 3) took two rounds and 591 messages while rounds
# decoded by argmax; the margin-ranked decode of its first round verifies.
MAP_COUNTS = {
    (5, 5, 3): (
        402, True, 25,
        "f401369d5e7dc5aa85ab0a60cca9594d0a251e3d368e4f34bef2656542a3b37c",
    ),
    (6, 6, 7): (
        815, True, 39,
        "8acb93b560a4bec29284c1254a1f2391927f1f110c44ab4b3fc4b2d7d3c3dfe4",
    ),
}

# The same under damping 0.3, the CLI's default for `color-map`.  (25, 10, 3)
# is map250, the map of acceptance test 8.  Damped messages mix their cells
# in cell order; mixing them in order of first appearance keeps every count
# and answer here but moves the first two sequences.
DAMPED_MAP_COUNTS = {
    (8, 8, 0): (
        3917, True, 81,
        "d080c3ea4ef022079c50d92e2ccd8fe0e809bba8848efe9fb7d117b578b5cdb5",
    ),
    (8, 8, 5): (
        5851, True, 83,
        "4801b97072487ab57eed1d0551b67be25100a3624b4b135bb457670dbb99390f",
    ),
    (25, 10, 3): (
        31247, True, 343,
        "aca9c7eadb9e9396f839d39b785b8b16cdcd5ca5ace9df3402c40d0beecf9b9f",
    ),
}


@pytest.fixture
def sent(monkeypatch):
    """Record every (src, dst) passed, in order."""
    sequence = []
    pass_message = InferenceState.pass_message

    def recording(self, src, dst):
        sequence.append((src, dst))
        return pass_message(self, src, dst)

    monkeypatch.setattr(InferenceState, "pass_message", recording)
    return sequence


def pinned(outcome, sequence):
    text = ";".join(f"{src},{dst}" for src, dst in sequence)
    return (
        outcome.messages,
        outcome.valid,
        outcome.cluster_count,
        hashlib.sha256(text.encode()).hexdigest(),
    )


@pytest.fixture(scope="module")
def easy01():
    return sudoku_problem(EASY01, 9)


@pytest.mark.parametrize("topology,size", sorted(EASY01_COUNTS))
def test_easy01_message_counts(easy01, sent, topology, size):
    outcome = solve_problem(easy01, topology, size)
    assert pinned(outcome, sent) == EASY01_COUNTS[topology, size]


@pytest.mark.parametrize(
    "grid,topology,size,bias",
    list(GRID4_COUNTS),
    ids=[
        f"{'well' if g == WELL_DEFINED_4 else 'corners'}-{t}-{s}-{b}"
        for g, t, s, b in GRID4_COUNTS
    ],
)
def test_grid4_message_counts(sent, grid, topology, size, bias):
    outcome = solve_problem(sudoku_problem(grid, 4), topology, size, bias_delta=bias)
    assert pinned(outcome, sent) == GRID4_COUNTS[grid, topology, size, bias]


@pytest.mark.parametrize("rows,cols,seed", sorted(MAP_COUNTS))
def test_map_message_counts(sent, rows, cols, seed):
    outcome = color_problem(random_planar_map(rows, cols, seed=seed))
    assert pinned(outcome, sent) == MAP_COUNTS[rows, cols, seed]


@pytest.mark.parametrize("rows,cols,seed", sorted(DAMPED_MAP_COUNTS))
def test_damped_map_message_counts(sent, rows, cols, seed):
    outcome = color_problem(
        random_planar_map(rows, cols, seed=seed),
        options=InferenceOptions(damping=0.3),
    )
    assert pinned(outcome, sent) == DAMPED_MAP_COUNTS[rows, cols, seed]
