"""Digest every message a fixed corpus of pipeline runs sends.

    PYTHONPATH=src python tests/residual_digest.py

Wraps `InferenceState.__init__` and `pass_message` and solves the corpus
below through `solve_problem` and `color_problem`.  It prints four lines:

* the number of messages sent;
* the sha256 of the `src,dst,residual.hex()` sequence, one line per
  message (a refused message records its exception's name instead);
* the sha256 of each solve's id, messages, valid flag, converged flag,
  cluster count and assignment by variable id;
* the number of sepset cells, summed over every state set up: a sepset
  holds the cells its endpoints' rows reach, so a return to dense
  sepsets moves this line and no other.

Two checkouts that print the same lines send the same messages with the
same residuals, bit for bit.  Every sum in the kernel, a residual's KL
terms included, is a `math.fsum`, so every supported Python prints the
same lines whatever order the factors list their entries in, but
residual bits depend on the platform's `math.log`: CI pins the digest for
its Linux runners only, and no test pins it.  pytest does not collect
this file.

The corpus: the 10 bundled 9x9 puzzles under ltrip/5, ltrip/9 and
bethe/9 unbiased, under ltrip/5 and bethe/5 at bias 0.01 and 1, and under
bethe/3 at bias 1 (easy02's biased attempts all dead-end there, and its
unbiased rerun decides); the 288 puzzles of
`oracles.exhaustive_4x4_suite` under ltrip and bethe at cluster size 4;
the 250-region map at damping 0.3 with bias seeds 0 and 1;
`random_planar_map(8, 8, seed=s)` at damping 0.3 for s = 0..9; and
undamped `random_planar_map(6, 6, seed=s)` for s = 0..3.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import clusterbp
from clusterbp.cli import color_problem, load_puzzle, solve_problem
from clusterbp.coloring import random_planar_map, sudoku_problem
from clusterbp.factors import ContradictionError
from clusterbp.inference import InferenceOptions, InferenceState
from oracles import exhaustive_4x4_suite, grid_text

PUZZLES = sorted((Path(clusterbp.__file__).parent / "data" / "puzzles").glob("*.txt"))
DAMPED = InferenceOptions(damping=0.3)
# (topology, cluster size, bias) of the biased puzzle solves.
BIASED = [
    (topology, 5, bias) for topology in ("ltrip", "bethe") for bias in (0.01, 1.0)
] + [("bethe", 3, 1.0)]


def corpus():
    """Yield (id, thunk) pairs; each thunk runs one solve."""
    for path in PUZZLES:
        problem = load_puzzle(path)
        for topology, size in (("ltrip", 5), ("ltrip", 9), ("bethe", 9)):
            yield (
                f"{path.stem}/{topology}/{size}",
                lambda p=problem, t=topology, s=size: solve_problem(p, t, s),
            )
        for topology, size, bias in BIASED:
            yield (
                f"{path.stem}/{topology}/{size}/bias{bias}",
                lambda p=problem, t=topology, s=size, b=bias: solve_problem(
                    p, t, s, bias_delta=b
                ),
            )
    for index, (puzzle, _) in enumerate(exhaustive_4x4_suite()):
        problem = sudoku_problem(grid_text(puzzle), 4)
        for topology in ("ltrip", "bethe"):
            yield (
                f"grid{index:03d}/{topology}/4",
                lambda p=problem, t=topology: solve_problem(p, t, 4),
            )
    map250 = random_planar_map(25, 10, seed=3)
    for seed in (0, 1):
        yield (
            f"map250/0.3/{seed}",
            lambda s=seed: color_problem(map250, options=DAMPED, seed=s),
        )
    for seed in range(10):
        problem = random_planar_map(8, 8, seed=seed)
        yield f"map8x8-{seed}/0.3", lambda p=problem: color_problem(p, options=DAMPED)
    for seed in range(4):
        problem = random_planar_map(6, 6, seed=seed)
        yield f"map6x6-{seed}/0.0", lambda p=problem: color_problem(
            p, options=InferenceOptions()
        )


def main() -> None:
    residuals = hashlib.sha256()
    outcomes = hashlib.sha256()
    count = cells = 0
    init = InferenceState.__init__
    send = InferenceState.pass_message

    def counted(self, *args, **kwargs):
        nonlocal cells
        init(self, *args, **kwargs)
        cells += sum(map(len, self._sepsets.values()))

    def traced(self, src, dst):
        nonlocal count
        try:
            residual = send(self, src, dst)
        except Exception as exc:
            residuals.update(f"{src},{dst},{type(exc).__name__}\n".encode())
            raise
        count += 1
        residuals.update(f"{src},{dst},{residual.hex()}\n".encode())
        return residual

    InferenceState.__init__ = counted
    InferenceState.pass_message = traced
    try:
        for job, solve in corpus():
            try:
                out = solve()
            except ContradictionError:
                outcomes.update(f"{job},contradiction\n".encode())
                continue
            answer = sorted((v.id, x) for v, x in out.assignment.items())
            outcomes.update(
                f"{job},{out.messages},{out.valid},{out.converged},"
                f"{out.cluster_count},{answer}\n".encode()
            )
    finally:
        InferenceState.__init__ = init
        InferenceState.pass_message = send
    print(f"messages  {count}")
    print(f"residuals {residuals.hexdigest()}")
    print(f"outcomes  {outcomes.hexdigest()}")
    print(f"cells     {cells}")


if __name__ == "__main__":
    main()
