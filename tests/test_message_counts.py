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

When each round came to split what its givens leave of a clique, under a
max-coverage cover, the nine pins of split runs moved; each valid flag
held.  A row with four givens at size 5 now compiles one table over its
five free cells, not several overlapping ones: easy01 ltrip/5 went from
2,581 messages over 138 clusters to 884 over 59.  In the eight 4×4 pins
at size 3, a unit with one given keeps its three free cells in one
table, where its split used to leave three pairs.  Their cluster counts
held; the messages went: well-defined ltrip 88 -> 88 (a new sequence),
bethe 174 -> 178, corners ltrip 117 -> 120 and 318 -> 287 (bias 0.01),
bethe 211 -> 214 and 510 -> 516.  The pins with no size, easy01 at size
9 and the maps split nothing and did not move.

When the kernel and the table algebra came to sum floats with
`math.fsum`, which rounds once, three sequences moved: the maps 5-5-3 and
6-6-7 and the damped map 8-8-5.  The built-in `sum()` is compensated from
Python 3.12 on and plain before, so their residual bits, and then the
order of near-tied queue entries, used to differ between interpreters;
the new pins are what 3.12 and 3.13 read before, and every interpreter
reads them now.  Their counts (402, 815 and 5,851), valid flags and
cluster counts held.

When a residual's KL terms came to be summed with `math.fsum` too, so
that no residual depends on the order a factor lists its rows in, the
undamped maps 5-5-3 and 6-6-7 moved again: their last residual bits
changed, and with them the order of near-tied queue entries.  Their
counts (402 and 815), valid flags and cluster counts held, and no damped
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
        884, True, 59,
        "459ca2f0036c570982e1d020a848d26b2df4fd2311722c1457172fde8c4b920e",
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
        "cf2e117510e8cdf7c9b930e036ad04c930a5c33265b2e837fbc7f36f16653804",
    ),
    (WELL_DEFINED_4, "ltrip", 3, 0.01): (
        88, True, 16,
        "31e1354cbbe7fcf2258956c2dc5f5ba2a71779798408f6954d692627681f7632",
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
        178, True, 16,
        "7c7e8981a1fb8274f90c8dd680a8993aab33b9ffce9cf68a285fd052d2cf5880",
    ),
    (WELL_DEFINED_4, "bethe", 3, 0.01): (
        178, True, 16,
        "075510dc4a197b68700d66e72ccb36bacc4259b14430a7adfbfff24ce0f2f2ea",
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
        120, True, 20,
        "53c1e9df2d0ce2efaaad422700936a928df7955a56055cb539a3f44d8c69bf5a",
    ),
    (CORNERS_4, "ltrip", 3, 0.01): (
        287, True, 20,
        "eae08e508d189a46738ce3c0aabe7719fdef99e5486c7590c1e6b0863b322bda",
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
        214, True, 20,
        "ed3c2c93956b15ac071acfbabf3f7a909fc37b8e3413d33df36cf672c410108d",
    ),
    (CORNERS_4, "bethe", 3, 0.01): (
        516, True, 20,
        "ad5a4ed210965a72f01241064157ecf802eeae1099155765becdf73d4267596e",
    ),
}

# (rows, cols, seed) -> (messages, valid, clusters, sequence sha256) under
# color_problem.  (5, 5, 3) took two rounds and 591 messages while rounds
# decoded by argmax; the margin-ranked decode of its first round verifies.
MAP_COUNTS = {
    (5, 5, 3): (
        402, True, 25,
        "9b8122bfa9ac218c295f525124a4e376569c63b542ef016cf6d15df7801f0516",
    ),
    (6, 6, 7): (
        815, True, 39,
        "09999e7ee5d48555445f76c6ff88e2ca7916c1ab85cf3c1f7fcd245b498b0ba8",
    ),
}

# The same under damping 0.3, the CLI's default for `color-map`.  (25, 10, 3)
# is map250, the map of acceptance test 8.
DAMPED_MAP_COUNTS = {
    (8, 8, 0): (
        3917, True, 81,
        "d080c3ea4ef022079c50d92e2ccd8fe0e809bba8848efe9fb7d117b578b5cdb5",
    ),
    (8, 8, 5): (
        5851, True, 83,
        "1e051df8cd64b4576c17d4a656a007d1dccf4a5d0235648fb573d3ac69cda7e4",
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
    outcome = color_problem(
        random_planar_map(rows, cols, seed=seed), options=InferenceOptions()
    )
    assert pinned(outcome, sent) == MAP_COUNTS[rows, cols, seed]


@pytest.mark.parametrize("rows,cols,seed", sorted(DAMPED_MAP_COUNTS))
def test_damped_map_message_counts(sent, rows, cols, seed):
    outcome = color_problem(
        random_planar_map(rows, cols, seed=seed),
        options=InferenceOptions(damping=0.3),
    )
    assert pinned(outcome, sent) == DAMPED_MAP_COUNTS[rows, cols, seed]
