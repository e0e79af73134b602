"""Solve one workload's jobs in this process and report each as a JSON line.

run.py starts this file as a child process, sends the jobs as JSON on
stdin and reads one line per solved job from stdout, so that a run the
deadline cuts short still reports the jobs it finished.  The child
imports clusterbp from the checkout's src/ (run.py sets PYTHONPATH).

    python3 perfbench/worker.py --seconds S [--trace] < jobs.json
    python3 perfbench/worker.py --setup-only < jobs.json

Lines written, in order:
  {"event": "setup", "setup_s": ...}
  {"event": "solve", "repeat": r, "traced": false, "id": ..., ...}  (per solve)
  {"event": "trace", "metrics": {...}, ...}                      (--trace)
A disagreement between the benchmark's own check and the program's
verdict is a benchmark error: the child exits with code 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402  (the benchmark's own module, beside this file)

EXIT_DISAGREE = 3
REPEAT_BELOW_S = 1.0


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def parse_all(jobs: list[dict]) -> tuple[float, object, list]:
    """Import the package and parse every job's text: the set-up users pay."""
    started = time.perf_counter()
    import clusterbp
    import clusterbp.cli

    problems = [
        clusterbp.sudoku_problem(job["text"], job["side"])
        if job["kind"] == "sudoku"
        else clusterbp.parse_adjacency(job["text"], job["k"])
        for job in jobs
    ]
    return time.perf_counter() - started, clusterbp, problems


def answer_text(job: dict, problem, assignment: dict) -> str:
    """The decoded assignment as text the checkers read, keyed by name."""
    if job["kind"] == "sudoku":
        return "".join(str(assignment[v] + 1) for v in problem.variables)
    return " ".join(f"{v.name}={assignment[v]}" for v in problem.variables)


def check(job: dict, answer: str) -> bool:
    if job["kind"] == "sudoku":
        return inputs.check_sudoku(job, answer)
    labels = dict(pair.split("=") for pair in answer.split())
    return inputs.check_map(job, {name: int(label) for name, label in labels.items()})


def solve(clusterbp, job: dict, problem):
    """One public call, looked up at call time so installed spans apply."""
    cli = clusterbp.cli
    if job["kind"] == "sudoku":
        return cli.solve_problem(problem, job["topology"], job["size"])
    options = clusterbp.InferenceOptions(damping=job["damping"])
    return cli.color_problem(problem, options=options)


def solve_once(clusterbp, job: dict, problem, repeat: int, traced: bool) -> float:
    """Solve one job, check and report it; returns the solve time in seconds.

    `repeat` counts the job's earlier untraced solves; it is 0 for the
    first and for the traced solve.
    """
    record = {"event": "solve", "repeat": repeat, "traced": traced, "id": job["id"]}
    started = time.perf_counter()
    try:
        outcome = solve(clusterbp, job, problem)
    except clusterbp.ContradictionError:
        outcome = None
        record["status"] = "unsat"
    except Exception:  # a crash is one failed job, not a lost run
        outcome = None
        record["status"] = "error"
        traceback.print_exc(file=sys.stderr)
    record["seconds"] = time.perf_counter() - started
    if outcome is not None:
        answer = answer_text(job, problem, outcome.assignment)
        verified = check(job, answer)
        if verified != outcome.valid:
            print(
                f"benchmark error: {job['id']}: own check says "
                f"{verified}, verify_coloring says {outcome.valid}",
                file=sys.stderr,
            )
            sys.exit(EXIT_DISAGREE)
        record["answer"] = answer
        record["messages"] = outcome.messages
        if not verified:
            record["status"] = "invalid"
        elif not outcome.converged:
            record["status"] = "unconverged"
        else:
            record["status"] = "valid"
    emit(record)
    return record["seconds"]


def measure(clusterbp, jobs, problems, seconds: float) -> None:
    """Solve every job once, and short jobs again for `seconds` more.

    A single solve of a short job is mostly machine noise, and the
    machine's speed drifts over tens of seconds.  So each first solve is
    followed by one repeat of the short job solved least recently, which
    spreads every short job's samples over the whole run; repeats left
    in the budget follow the first pass in the same order.
    """
    gc.collect()
    solves: dict[int, int] = {}  # short job index -> solves so far
    queue: deque[int] = deque()  # short jobs, least recently solved first
    spent = 0.0

    def repeat() -> bool:
        nonlocal spent
        if not queue or spent >= seconds:
            return False
        i = queue.popleft()
        spent += solve_once(clusterbp, jobs[i], problems[i], solves[i], False)
        solves[i] += 1
        queue.append(i)
        return True

    for i, (job, problem) in enumerate(zip(jobs, problems)):
        if solve_once(clusterbp, job, problem, 0, False) < REPEAT_BELOW_S:
            solves[i] = 1
            queue.append(i)
        repeat()
    while repeat():
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    jobs = json.load(sys.stdin)
    setup_s, clusterbp, problems = parse_all(jobs)
    emit({"event": "setup", "setup_s": setup_s})
    if args.setup_only:
        return 0
    # A traced run reports only per-layer metrics, so its untraced pass
    # (the base of trace.overhead_frac) needs no repeats.
    measure(clusterbp, jobs, problems, 0.0 if args.trace else args.seconds)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            gc.collect()
            traced_wall = sum(
                solve_once(clusterbp, job, problem, 0, True)
                for job, problem in zip(jobs, problems)
            )
        finally:
            tracer.uninstall()
        emit(
            {
                "event": "trace",
                "metrics": tracer.metrics(traced_wall),
                "message_us_tail": tracer.tail_detail(),
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
