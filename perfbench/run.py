"""Benchmark entry point: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sudoku9 --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it measures the package in src/.
The workload's jobs are made here from the seed, then solved in a child
process (worker.py) under a wall-clock deadline.  The last line of
stdout is the result {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the full record: machine, code state, result
fingerprint, tail percentiles and every metric measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import tail  # noqa: E402

# Set-up is sampled this many times before the solves and as many after,
# so that its median spans the run as the solve times do.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 10.0
# Every run must end within 180 s: the child gets what is left of this,
# and the set-up samples after it get SETUP_TIMEOUT_S each at most.
RUN_DEADLINE_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms.p50": "ms",
    "solve_ms.tail": "ms",
    "valid_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_us.p50") or name.endswith("_us.tail"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_yield") or name.endswith("_per_edge"):
        return "ratio"
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark itself could not produce a trustworthy result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def setup_seconds(jobs: list[dict], env: dict) -> list[float]:
    """Import-and-parse time, each sample in a fresh interpreter."""
    payload = json.dumps(jobs)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-only"],
            input=payload,
            capture_output=True,
            text=True,
            env=env,
            timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"set-up failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def solve_in_child(jobs, env, seconds, trace, deadline) -> tuple[list[dict], bool]:
    """Run the worker; returns its JSON lines and whether the deadline hit."""
    command = [sys.executable, str(HERE / "worker.py"), "--seconds", str(seconds)]
    if trace:
        command.append("--trace")
    child = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        out, err = child.communicate(json.dumps(jobs), timeout=max(deadline, 1.0))
        timed_out = False
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
        timed_out = True
    if child.returncode != 0 and not timed_out:
        raise BenchmarkError(f"worker exited with {child.returncode}:\n{err}")
    if err:
        sys.stderr.write(err)
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if not timed_out:  # only a killed child may leave a torn line
                raise BenchmarkError(f"worker printed {line!r}")
    return records, timed_out


def outcome(record: dict) -> tuple:
    return record["status"], record.get("answer"), record.get("messages")


def fingerprint(solves: list[dict], trace: dict | None) -> dict:
    """Counts and an answer hash that must repeat exactly for the same code."""
    digest = hashlib.sha256()
    for record in sorted(solves, key=lambda r: r["id"]):
        line = f"{record['id']} {record['status']} {record.get('answer', '-')}\n"
        digest.update(line.encode())
    out = {
        "jobs": len(solves),
        "valid": sum(r["status"] == "valid" for r in solves),
        "inference.messages": sum(r.get("messages", 0) for r in solves),
        "answers_sha256": digest.hexdigest(),
        "by_run": {},
    }
    # Per (topology, size) for the sudoku jobs, whose ids end in both.
    for record in solves:
        run = "/".join(record["id"].split("/")[1:]) or record["id"]
        counts = out["by_run"].setdefault(run, {"jobs": 0, "valid": 0, "messages": 0})
        counts["jobs"] += 1
        counts["valid"] += record["status"] == "valid"
        counts["messages"] += record.get("messages", 0)
    if trace is not None:
        for name in (
            "inference.messages",
            "coloring.entries_built",
            "cli.rounds",
            "cli.restarts",
        ):
            out[f"traced.{name}"] = trace[name]
    return out


def code_state(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except OSError:
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
    }


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def measure(args, root: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    src = root / "src"
    jobs = inputs.jobs_for(args.workload, args.seed)
    if args.limit:
        jobs = jobs[: args.limit]
    env = child_env(src)
    setups = setup_seconds(jobs, env)
    deadline = RUN_DEADLINE_S - (time.perf_counter() - started)
    records, timed_out = solve_in_child(jobs, env, args.seconds, args.trace, deadline)
    setups += setup_seconds(jobs, env)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    solves = [r for r in records if r["event"] == "solve"]
    first = {r["id"]: r for r in solves if r["repeat"] == 0 and not r["traced"]}
    for r in solves:
        if r["id"] in first and outcome(r) != outcome(first[r["id"]]):
            raise BenchmarkError(f"{r['id']}: a repeated solve gave another answer")
    traced = [r for r in solves if r["traced"]]
    untraced = [r for r in solves if not r["traced"]]
    # Jobs the deadline cut off before their first solve (or before
    # their traced solve) count as attempted and failed.
    missing = len(jobs) - len(first) + (len(jobs) - len(traced) if args.trace else 0)
    failed = missing + sum(
        r["status"] == "error" for r in solves if r["repeat"] == 0 or r["traced"]
    )
    trace_record = next((r for r in records if r["event"] == "trace"), None)

    per_job: dict[str, list[float]] = {}
    for r in untraced:
        per_job.setdefault(r["id"], []).append(r["seconds"] * 1e3)
    # A job's time is the mean of its solves: with few repeats the mean
    # follows the machine's drifting speed more smoothly than a median.
    means = [statistics.fmean(times) for times in per_job.values()]
    job_ms = sorted(means)
    wall_s = sum(means) / 1e3 if means else deadline
    tail_ms, tail_pct, tail_n = tail(job_ms) if job_ms else (0.0, 100.0, 0)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "solve_ms.p50": statistics.median(job_ms) if job_ms else 0.0,
        "solve_ms.tail": tail_ms,
        "valid_frac": sum(r["status"] == "valid" for r in first.values())
        / len(jobs),
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = None
    if trace_record is not None:
        per_layer = dict(trace_record["metrics"])
        per_layer["trace.overhead_frac"] = per_layer["trace.wall_s"] / wall_s - 1.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "solves": len(untraced),
        "deadline_hit": timed_out,
        "setup_samples_s": setups,
        "solve_ms.tail": {"percentile": tail_pct, "samples": tail_n},
        "message_us.tail": trace_record["message_us_tail"] if trace_record else None,
        "statuses": {
            s: sum(r["status"] == s for r in first.values())
            for s in sorted({r["status"] for r in first.values()})
        },
        "fingerprint": fingerprint(
            list(first.values()),
            trace_record["metrics"] if trace_record else None,
        ),
        "machine": machine(),
        "code": code_state(root),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    chosen = (per_layer or {}) if args.trace else end_to_end
    unit = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": failed == 0,
        "attempted": len(solves) + missing,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)} for name, value in chosen.items()
        },
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one clusterbp benchmark workload.")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--limit", type=int, default=0, help="solve only the first N jobs (quick checks)"
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "clusterbp" / "__init__.py").is_file():
        print(
            "error: no src/clusterbp here; run from the root of a clusterbp checkout",
            file=sys.stderr,
        )
        return 2
    try:
        record, result = measure(args, root)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
