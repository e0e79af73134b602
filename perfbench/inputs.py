"""Workload inputs and answer checkers, written without the package.

Every workload is a list of jobs.  A job is plain data: the text the
program receives (a grid or a border list), how to solve it, and what
the benchmark knows about the answer.  Nothing here imports clusterbp,
so the inputs and the checks cannot drift with the code they measure.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("sudoku9", "sudoku4", "map250")

PUZZLES9 = Path(__file__).with_name("puzzles9.txt")
# (topology, cluster size) pairs solved for every 9x9 puzzle.  Size 3 and
# bethe at size 5 add about 40 s and no layer the others miss.
SUDOKU9_RUNS = (("ltrip", 5), ("ltrip", 9), ("bethe", 9))
SUDOKU4_SIZE = 4
# The map of acceptance test 8: random_planar_map(25, 10, seed=3).
MAP_ROWS, MAP_COLS, MAP_SEED = 25, 10, 3
MAP_LABELS = 4
MAP_DAMPING = 0.3


def jobs_for(workload: str, seed: int) -> list[dict]:
    """The jobs of one workload; the same seed gives the same jobs."""
    if workload == "sudoku9":
        return sudoku9_jobs(seed)
    if workload == "sudoku4":
        return sudoku4_jobs(seed)
    if workload == "map250":
        return [map_job(seed)]
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


# -- sudoku9 -----------------------------------------------------------------


def sudoku9_jobs(seed: int) -> list[dict]:
    """Every pinned 9x9 puzzle under every run in SUDOKU9_RUNS.

    The seed only shuffles the order the 30 solves run in.
    """
    jobs = []
    for line in PUZZLES9.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, cells = line.split()
        for topology, size in SUDOKU9_RUNS:
            jobs.append(
                {
                    "id": f"{name}/{topology}/{size}",
                    "kind": "sudoku",
                    "side": 9,
                    "text": cells,
                    "topology": topology,
                    "size": size,
                    "solution": None,
                }
            )
    random.Random(seed).shuffle(jobs)
    return jobs


# -- sudoku4 -----------------------------------------------------------------


def _peers(n: int) -> list[list[int]]:
    box = {4: 2, 9: 3}[n]
    peers = [[] for _ in range(n * n)]
    for a in range(n * n):
        ra, ca = divmod(a, n)
        for b in range(n * n):
            rb, cb = divmod(b, n)
            if a != b and (
                ra == rb or ca == cb or (ra // box, ca // box) == (rb // box, cb // box)
            ):
                peers[a].append(b)
    return peers


def completions(grid: list[int], n: int, limit: int | None = None) -> list[tuple]:
    """Completions of a row-major grid (0 = blank), in lexicographic order."""
    peers = _peers(n)
    work = list(grid)
    found: list[tuple] = []

    def fill(cell: int) -> None:
        while cell < n * n and work[cell]:
            cell += 1
        if cell == n * n:
            found.append(tuple(work))
            return
        taken = {work[p] for p in peers[cell]}
        for digit in range(1, n + 1):
            if digit not in taken:
                work[cell] = digit
                fill(cell + 1)
                work[cell] = 0
                if limit is not None and len(found) >= limit:
                    return

    fill(0)
    return found


def thin(full: tuple, order: list[int]) -> list[int]:
    """Blank cells in `order` while the puzzle keeps a unique completion."""
    puzzle = list(full)
    for cell in order:
        held, puzzle[cell] = puzzle[cell], 0
        if len(completions(puzzle, 4, limit=2)) != 1:
            puzzle[cell] = held
    return puzzle


def sudoku4_jobs(seed: int) -> list[dict]:
    """All 288 complete 4x4 grids, each thinned to a unique puzzle.

    Seed 0 thins every grid in row-major cell order, as acceptance test 5
    does; any other seed draws a fresh cell order per grid.  Each puzzle
    is solved with both topologies at cluster size 4.
    """
    rng = random.Random(seed)
    jobs = []
    for index, full in enumerate(completions([0] * 16, 4)):
        order = list(range(16))
        if seed:
            rng.shuffle(order)
        text = "".join(str(d) if d else "." for d in thin(full, order))
        for topology in ("ltrip", "bethe"):
            jobs.append(
                {
                    "id": f"grid{index:03d}/{topology}/{SUDOKU4_SIZE}",
                    "kind": "sudoku",
                    "side": 4,
                    "text": text,
                    "topology": topology,
                    "size": SUDOKU4_SIZE,
                    "solution": "".join(map(str, full)),
                }
            )
    return jobs


# -- map250 ------------------------------------------------------------------


def planar_map_borders(rows: int, cols: int, seed: int) -> list[tuple[str, str]]:
    """The borders of clusterbp's random_planar_map(rows, cols, seed).

    Same grid, same diagonal draws from the same random stream, so the
    parsed problem is identical; kept here so the input is the
    benchmark's own text.
    """
    rng = random.Random(seed)
    width = len(str(rows * cols - 1)) if rows * cols > 1 else 1

    def at(r: int, c: int) -> str:
        return f"m{str(r * cols + c).zfill(width)}"

    borders = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                borders.append((at(r, c), at(r, c + 1)))
            if r + 1 < rows:
                borders.append((at(r, c), at(r + 1, c)))
    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < 0.5:
                if rng.random() < 0.5:
                    borders.append((at(r, c), at(r + 1, c + 1)))
                else:
                    borders.append((at(r, c + 1), at(r + 1, c)))
    return borders


def map_job(seed: int) -> dict:
    """The test-8 map as border text whose line order the seed shuffles.

    The map itself stays fixed: other maps change the work several-fold
    and some run minutes, so a seeded map would swamp the timings.  The
    parser sorts regions by name, so the shuffle leaves the problem the
    same while the text the program reads differs.
    """
    rng = random.Random(seed)
    borders = planar_map_borders(MAP_ROWS, MAP_COLS, MAP_SEED)
    rng.shuffle(borders)
    lines = [f"{b} {a}" if rng.random() < 0.5 else f"{a} {b}" for a, b in borders]
    return {
        "id": f"map{MAP_ROWS * MAP_COLS}",
        "kind": "map",
        "text": "\n".join(lines) + "\n",
        "k": MAP_LABELS,
        "damping": MAP_DAMPING,
    }


# -- answer checks -----------------------------------------------------------


def check_sudoku(job: dict, answer: str) -> bool:
    """Rows, columns and boxes are permutations and the givens hold.

    `answer` is the filled grid as n*n digits, row-major.  When the job
    knows its unique completion, the answer must equal it.
    """
    n = job["side"]
    if len(answer) != n * n or not answer.isdigit():
        return False
    cells = [int(ch) for ch in answer]
    box = {4: 2, 9: 3}[n]
    digits = set(range(1, n + 1))
    for i in range(n):
        row = cells[i * n : (i + 1) * n]
        column = cells[i::n]
        r0, c0 = box * (i // box), box * (i % box)
        square = [cells[(r0 + r) * n + c0 + c] for r in range(box) for c in range(box)]
        if not set(row) == set(column) == set(square) == digits:
            return False
    for given, got in zip(job["text"], answer):
        if given != "." and given != got:
            return False
    return job["solution"] is None or answer == job["solution"]


def check_map(job: dict, labels: dict[str, int]) -> bool:
    """Every border joins two regions with different labels in 0..k-1."""
    for line in job["text"].splitlines():
        a, b = line.split()
        la, lb = labels.get(a), labels.get(b)
        if la is None or lb is None or la == lb:
            return False
        if not (0 <= la < job["k"] and 0 <= lb < job["k"]):
            return False
    return True
