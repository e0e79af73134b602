"""Pinned message sequences: the exact messages BP sends per instance.

A change to how problems compile into tables, or to the propagation
kernel, may speed things up but must not change what BP computes.  Each
instance pins the message count, validity and cluster count, plus the
sha256 of the `src,dst` sequence of every `pass_message` call (dead-ended
decimation rounds included).  The counts were recorded before the compile
path was rewritten and the digests before the scheduler queue was
reworked; any drift in a table entry, its iteration order, the cluster
numbering or the order messages are sent in shows up here.
"""

import hashlib
from pathlib import Path

import pytest

import clusterbp
from clusterbp.cli import color_problem, solve_problem
from clusterbp.coloring import random_planar_map, sudoku_problem
from clusterbp.inference import InferenceState

EASY01 = (
    Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
).read_text()
WELL_DEFINED_4 = "....\n3.12\n2..3\n....\n"
CORNERS_4 = "1..4\n....\n....\n4..1\n"

# (topology, cluster size) -> (messages, valid, clusters, sequence sha256)
EASY01_COUNTS = {
    ("ltrip", 9): (
        406, True, 27,
        "86aedabb8d287a4438fb366c920b230f431c0939aaf253adc567c46cb692cc04",
    ),
    ("bethe", 9): (
        1365, True, 27,
        "c0830209093058becd1d69fd4137cc083dcd0bd1a0484e626ef6f2f0a8723258",
    ),
    ("ltrip", 5): (
        2884, True, 138,
        "c9286941ea154442cd5d325bf4ebbe63d0ea3617c02c9fd7e961ba966c33ff97",
    ),
}

# (grid, topology, cluster size, bias) -> (messages, valid, clusters, sequence sha256)
GRID4_COUNTS = {
    (WELL_DEFINED_4, "ltrip", None, 0.0): (
        53, True, 10,
        "3c9d25b507e03c16a13cc31b8f6cfd8c647aa3c71f6886666cecb11e3addbcc2",
    ),
    (WELL_DEFINED_4, "ltrip", None, 0.01): (
        53, True, 10,
        "3f4b9af091a11eda13dbfd9f816e142cc5748b48910686c81b8a3ef041fde370",
    ),
    (WELL_DEFINED_4, "ltrip", 3, 0.0): (
        98, True, 16,
        "f4f14e98b683ba16229cb35c93a0eb7c8cb7b94a1398b4357868acf2d5ebcb99",
    ),
    (WELL_DEFINED_4, "ltrip", 3, 0.01): (
        99, True, 16,
        "d028943880060fcf4309094c32c8d72b3b40f2e119dc77b66ee1b14dcc642964",
    ),
    (WELL_DEFINED_4, "bethe", None, 0.0): (
        138, True, 10,
        "6c3553f6c189bee0d687092607a18a1cf53670b550ea9692ea84ad92ab43d540",
    ),
    (WELL_DEFINED_4, "bethe", None, 0.01): (
        138, True, 10,
        "705cdf5a024b5604433c9954f71c5c467288519cd7ff56688ee8a2996f159b7a",
    ),
    (WELL_DEFINED_4, "bethe", 3, 0.0): (
        191, True, 16,
        "7822406eae8ac32aabca60935c420d454dc9b4d2f291eba1878c5e19e45c7e34",
    ),
    (WELL_DEFINED_4, "bethe", 3, 0.01): (
        187, True, 16,
        "1043594878a512d0af813b7667df7b2afa9119d7b69dd9ae0d194e046f4c7601",
    ),
    (CORNERS_4, "ltrip", None, 0.0): (
        65, False, 12,
        "8cd236f5154a160f1be1791a5b7fd753e932a0f05a2bc745b02ef70475fde5eb",
    ),
    (CORNERS_4, "ltrip", None, 0.01): (
        189, True, 12,
        "4b8561df7dcea5c61107c0a66c327e314d835d46b8c3f648b6485bdde2f20bc4",
    ),
    (CORNERS_4, "ltrip", 3, 0.0): (
        130, False, 20,
        "fdd24933d6572917c9a14d9a248cde680c3d728ec3e57ccf2a6072447eb9ccb7",
    ),
    (CORNERS_4, "ltrip", 3, 0.01): (
        309, True, 20,
        "eb3d4a57ca99f0de1319d3dad9b1b40e058625291932119eeada054ef52d4e45",
    ),
    (CORNERS_4, "bethe", None, 0.0): (
        168, False, 12,
        "aa4cd56abe1c6057d536455bea6e1d6a14636fb3eb7e3027437d786f3bc69428",
    ),
    (CORNERS_4, "bethe", None, 0.01): (
        473, True, 12,
        "024d06a1f41eaa00855f8c26c981f219e7264636d17d9eea96016fc4cf905610",
    ),
    (CORNERS_4, "bethe", 3, 0.0): (
        244, False, 20,
        "66cf55b5d6fdf4e078ff8494efed9e2b42946ece8068af6ec73a89ae17c8a8c6",
    ),
    (CORNERS_4, "bethe", 3, 0.01): (
        507, True, 20,
        "2d04b0ced45ee693a41bfed427bfec2a409adcba5ef62aa6b002a8d48cf43881",
    ),
}

# (rows, cols, seed) -> (messages, valid, clusters, sequence sha256) under
# color_problem.  (5, 5, 3) took two rounds and 591 messages while rounds
# decoded by argmax; the margin-ranked decode of the same first round (409
# messages) verifies.
MAP_COUNTS = {
    (5, 5, 3): (
        409, True, 25,
        "ccb877e5bb61ac2e4655ffe24bedaf6d225b8d7689653c20d33d1b6f7dbc2592",
    ),
    (6, 6, 7): (
        1321, True, 39,
        "0feaa137dfb6a3f907ece682a5f6d03587881508130fab730211831b6bbacca9",
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
