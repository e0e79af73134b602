"""The benchmark's own test: inputs, checkers and cross-process determinism.

    python3 perfbench/selfcheck.py

Run from the root of a checkout (about a minute).  It checks that

- seed 0 of the sudoku4 generator gives acceptance test 5's puzzles
  (pinned by digest; the generator shares no code with tests/oracles.py);
- the map text parses to exactly random_planar_map(25, 10, seed=3);
- the answer checkers reject broken answers;
- small sudoku4 and sudoku9 runs give identical result fingerprints
  under two PYTHONHASHSEED values.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

# sha256 of the (puzzle, completion) pairs sudoku4_jobs(0) yields, in
# order; the pairs equal the set acceptance test 5 thins row-major.
SUDOKU4_SEED0_SHA256 = "786c948509d8b5380eef8cd6a989a3af43ed97aa106f9848d480ff32ef7e01ba"
DETERMINISM_RUNS = (("sudoku4", 60), ("sudoku9", 4))
HASH_SEEDS = ("0", "1")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_generators() -> None:
    jobs = inputs.sudoku4_jobs(0)
    pairs = [(job["text"], job["solution"]) for job in jobs[::2]]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    expect(len(pairs) == 288, "sudoku4 enumerates 288 complete grids")
    expect(digest == SUDOKU4_SEED0_SHA256, "sudoku4 seed 0 gives test 5's puzzles")
    expect(
        inputs.sudoku4_jobs(1)[0]["text"] != jobs[0]["text"],
        "sudoku4 seeds change the thinning",
    )
    expect(
        inputs.jobs_for("sudoku9", 3) == inputs.jobs_for("sudoku9", 3),
        "sudoku9 jobs repeat for a seed",
    )

    sys.path.insert(0, str(Path.cwd() / "src"))
    from clusterbp import parse_adjacency, random_planar_map

    reference = random_planar_map(inputs.MAP_ROWS, inputs.MAP_COLS, inputs.MAP_SEED)
    for seed in (0, 5):
        parsed = parse_adjacency(inputs.map_job(seed)["text"], inputs.MAP_LABELS)
        expect(
            parsed.variables == reference.variables and parsed.edges == reference.edges,
            f"map text for seed {seed} parses to the test-8 map",
        )


def check_checkers() -> None:
    job = inputs.sudoku4_jobs(0)[0]
    solution = job["solution"]
    expect(inputs.check_sudoku(job, solution), "sudoku check accepts the completion")
    swapped = solution[1] + solution[0] + solution[2:]
    expect(not inputs.check_sudoku(job, swapped), "sudoku check rejects a swap")
    unknown = dict(job, solution=None)
    relabeled = solution.translate(str.maketrans("12", "21"))
    expect(
        not inputs.check_sudoku(unknown, relabeled),
        "sudoku check rejects a valid grid that breaks a given",
    )
    expect(not inputs.check_sudoku(job, solution[:-1]), "sudoku check rejects a short grid")

    ring = {"text": "a b\nb c\nc a\n", "k": 4}
    expect(inputs.check_map(ring, {"a": 0, "b": 1, "c": 2}), "map check accepts a coloring")
    expect(not inputs.check_map(ring, {"a": 0, "b": 1, "c": 0}), "map check rejects a clash")
    expect(not inputs.check_map(ring, {"a": 0, "b": 1, "c": 4}), "map check rejects label 4")
    expect(not inputs.check_map(ring, {"a": 0, "b": 1}), "map check rejects a gap")


def fingerprint(workload: str, limit: int, hash_seed: str) -> dict | None:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0",
            "--trace", "1",
            "--limit", str(limit),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=170,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(done.stderr, file=sys.stderr)
        return None
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return record["fingerprint"] if result["correct"] else None


def check_determinism() -> None:
    for workload, limit in DETERMINISM_RUNS:
        prints = [fingerprint(workload, limit, seed) for seed in HASH_SEEDS]
        expect(
            prints[0] is not None and prints[0] == prints[1],
            f"{workload} fingerprint is the same under PYTHONHASHSEED "
            f"{' and '.join(HASH_SEEDS)}: {prints[0]}",
        )


def main() -> int:
    if not (Path.cwd() / "src" / "clusterbp").is_dir():
        print("error: run from the root of a clusterbp checkout", file=sys.stderr)
        return 2
    check_generators()
    check_checkers()
    check_determinism()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
