"""Command-line front end.

Subcommands: `solve` runs a Sudoku grid and `color-map` four-colors an
adjacency file through `solve_problem`, the one pipeline, which
decimates when a decode fails; `bench` sweeps a puzzle directory over
both topologies and cluster sizes into a CSV and counts the runs bethe
solved but ltrip did not, and `graph` builds the cluster graph, checks
its running-intersection property and exports it.

Exit codes partition what went wrong: 0 a verified solution (or a clean
report), 2 unreadable or malformed input or a bad flag value, 3 a
provably unsatisfiable problem (an unbiased run also contradicts), 4
inference that finished without a valid answer.  The parser only
converts flag values; the library checks them, once, and its ValueError
is exit 2.  Runs use max-product and `inference.THRESHOLD`;
`--max-messages` and `--damping` are the only inference flags, and
`bench`, whose unbiased grids hold only 0 and 1, takes no `--damping`.
Set CLUSTERBP_LOG (debug/info/warning) for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from clusterbp.coloring import (
    ColoringProblem,
    VerifyReport,
    anchor_largest_clique,
    build_factors,
    format_sudoku,
    label_preferences,
    maximal_cliques,
    parse_adjacency,
    purged_clusters,
    sudoku_problem,
    verify_coloring,
)
from clusterbp.factors import ContradictionError, _is_int, _is_real, uniform_factor
from clusterbp.graphs import (
    Cluster,
    ClusterGraph,
    bethe_graph,
    export_dot,
    ltrip,
    validate_rip,
)
from clusterbp.inference import InferenceOptions, InferenceState

log = logging.getLogger("clusterbp")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_UNSATISFIABLE = 3
EXIT_NO_SOLUTION = 4

TOPOLOGIES = ("ltrip", "bethe")
CSV_COLUMNS = (
    "instance",
    "topology",
    "cluster_size",
    "cluster_count",
    "converged",
    "valid",
    "messages",
    "build_ms",
    "infer_ms",
)

# Share of the open regions a decimation round freezes.
FIX_FRACTION = 0.2
# Decimation attempts, the first included, when a bias seeds them.
ATTEMPTS = 4
# The bias `color_problem` and `color-map` nudge labels with by default.
MAP_BIAS = 0.01
# Their default damping: loopy maps oscillate under undamped max-product.
MAP_DAMPING = 0.3
SIZE_HELP = "most free cells a cluster may hold; each round splits larger cliques"


@dataclass(frozen=True)
class SolveOutcome:
    """Everything a pipeline run produced, for printing or a CSV row."""

    assignment: dict
    converged: bool
    report: VerifyReport
    cluster_count: int
    messages: int
    build_ms: float
    infer_ms: float

    @property
    def valid(self) -> bool:
        return self.report.valid


def solve_problem(
    problem: ColoringProblem,
    topology: str = "ltrip",
    cluster_size: int | None = None,
    *,
    options: InferenceOptions | None = None,
    bias_delta: float = 0.0,
    seed: int = 0,
) -> SolveOutcome:
    """Cliques, then rounds of split, compile, run, decode and verify.

    A bad `topology`, `bias_delta` (a finite real >= 0, not a bool) or
    `seed` (an int, not a bool) is a ValueError before any other work.
    Each round's clusters are `purged_clusters(work, cliques,
    cluster_size)`: what its givens leave of the cliques, split so
    `cluster_size` bounds every table's scope.
    Decimation starts from `anchor_largest_clique`: the givens, or one
    largest clique pinned when there are none.  Each round propagates,
    then decodes the most decided variables first, each avoiding labels
    its neighbors already took (`_ranked_decode`).  A decode that
    verifies ends the run; otherwise the first FIX_FRACTION of the open
    variables that found a free label are frozen with it as givens for
    the next round.  A round that annihilates (the frozen labels were
    jointly wrong) ends its attempt, and the next one starts.
    The attempts are one list of (bias, seed) trials: when
    `bias_delta > 0`, ATTEMPTS biased ones at seeds `seed`, `seed + 1`,
    ..., then one unbiased trial at `seed`.  The unbiased trial always
    runs without a bias; under one it runs only if no biased round
    decoded (biased messages can underflow into a false contradiction).
    Only the unbiased trial's first-round ContradictionError propagates.
    Returns the last decoded round if every attempt fails, so callers
    check `.valid`.  Messages and times add up every round, dead-ended
    ones included.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}; pick from {TOPOLOGIES}")
    if not _is_real(bias_delta) or not 0.0 <= bias_delta < math.inf:
        raise ValueError(
            f"bias_delta must be finite and >= 0, not a bool, got {bias_delta!r}"
        )
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    started = time.perf_counter()
    cliques = maximal_cliques(problem)
    anchor = anchor_largest_clique(problem, cliques)
    # Givens come back unchanged; only an anchor needs a new problem.
    base = problem if problem.givens else dataclasses.replace(problem, givens=anchor)
    build_ms = (time.perf_counter() - started) * 1000.0
    trials = [(bias_delta, seed + n) for n in range(ATTEMPTS if bias_delta else 0)]
    trials.append((0.0, seed))
    messages, infer_ms, cluster_count = 0, 0.0, 0
    decoded = None  # the last decoded round's assignment, report, converged
    for attempt, (bias, trial_seed) in enumerate(trials):
        if decoded is not None and not bias:
            break  # a biased round decoded, so no unbiased trial
        work = base
        try:
            while True:
                started = time.perf_counter()
                state, clusters = _compile(
                    work, cliques, topology, cluster_size, options, bias, trial_seed
                )
                build_ms += (time.perf_counter() - started) * 1000.0
                cluster_count = cluster_count or clusters
                try:
                    state.run()
                finally:
                    messages += state.stats.messages
                    infer_ms += state.stats.wall_ms
                assignment, free = _ranked_decode(work, state.marginals)
                report = verify_coloring(work, assignment)
                decoded = assignment, report, state.converged
                if report.valid or not free:
                    break
                open_count = len(problem.variables) - len(work.givens)
                quota = math.ceil(open_count * FIX_FRACTION)
                fixes = {v: assignment[v] for v in free[:quota]}
                log.info(
                    "attempt %d: froze %d labels, %d variables open",
                    attempt,
                    len(fixes),
                    open_count - len(fixes),
                )
                work = dataclasses.replace(work, givens={**work.givens, **fixes})
        except ContradictionError as exc:
            log.info("attempt %d dead-ended: %s", attempt, exc)
            if decoded is None and not bias:
                raise
            continue
        if report.valid:
            break
    assignment, report, converged = decoded
    return SolveOutcome(
        assignment, converged, report, cluster_count, messages, build_ms, infer_ms
    )


def color_problem(
    problem: ColoringProblem,
    *,
    options: InferenceOptions | None = None,
    bias_delta: float = MAP_BIAS,
    seed: int = 0,
) -> SolveOutcome:
    """`solve_problem` with `color-map`'s defaults: ltrip, no split, MAP_BIAS.

    Without `options` messages are damped by MAP_DAMPING, as in `color-map`.
    """
    return solve_problem(
        problem,
        options=options or InferenceOptions(damping=MAP_DAMPING),
        bias_delta=bias_delta,
        seed=seed,
    )


def _graph(topology: str, clusters: list[Cluster]) -> ClusterGraph:
    """Build the `topology` graph over `clusters`: the one builder choice.

    Names are looked up per call, so a wrapped `ltrip` or `bethe_graph` runs.
    """
    return ltrip(clusters) if topology == "ltrip" else bethe_graph(clusters)


def _compile(
    problem: ColoringProblem,
    cliques: list[Cluster],
    topology: str,
    cluster_size: int | None,
    options: InferenceOptions | None,
    bias_delta: float,
    seed: int,
) -> tuple[InferenceState, int]:
    """Compile one round's unsplit cliques into an unrun state.

    `build_factors` compiles a table per `purged_clusters` cluster: the
    cliques minus this round's givens, split to `cluster_size`.  Returns
    the state and the number of factor clusters (Bethe hubs not
    counted); with every variable given the graph is empty, and the state
    converges with no message.  `solve_problem` has checked `topology`
    and `bias_delta`.
    """
    bias = label_preferences(problem, seed) if bias_delta > 0 else None
    items = build_factors(
        problem, cliques, bias=bias, delta=bias_delta, size=cluster_size
    )
    clusters = [cluster for cluster, _ in items]
    tables = [table for _, table in items]
    graph = _graph(topology, clusters)
    # Bethe hubs come after the factor clusters; ltrip adds none.
    for hub in graph.clusters[len(clusters):]:
        tables.append(uniform_factor(tuple(hub.vars), (problem.k,)))
    log.info(
        "%s graph: %d clusters, %d edges", topology, len(clusters), len(graph.sepsets)
    )
    return InferenceState(graph, tables, options), len(clusters)


def _ranked_decode(problem: ColoringProblem, marginals: dict) -> tuple[dict, list]:
    """Decode the open variables most decided first, dodging taken labels.

    Ranked by marginal margin (best score minus the next), ties by id,
    each takes its best label that no given or earlier neighbor holds,
    ties to the lowest as in `SparseTable.argmax`, or else its argmax.
    Returns the assignment and, in rank order, the variables that got a
    free label.  A proper argmax decode comes back unchanged.
    """
    adjacency: dict = {v: [] for v in problem.variables}
    for a, b in problem.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    assignment = dict(problem.givens)
    open_vars = [v for v in problem.variables if v not in assignment]
    scores = {v: [marginals[v][(x,)] for x in range(problem.k)] for v in open_vars}

    def margin(variable) -> float:
        # With a single label the runner-up scores 0.
        best, runner_up, *_ = sorted(scores[variable], reverse=True) + [0.0]
        return best - runner_up

    free = []
    for variable in sorted(scores, key=lambda v: (-margin(v), v.id)):
        held = {assignment[n] for n in adjacency[variable] if n in assignment}
        labels = [x for x in range(problem.k) if x not in held]
        if labels:
            free.append(variable)
        # max keeps the first, so the lowest, of tied labels.
        assignment[variable] = max(
            labels or range(problem.k), key=scores[variable].__getitem__
        )
    return assignment, free


# -- input loading -----------------------------------------------------------

GRID_CHARS = set("0123456789.")
GRID_SIDES = {16: 4, 81: 9}


def load_puzzle(path: str | Path) -> ColoringProblem:
    """Read a Sudoku grid file (16 or 81 cells of digits and blanks)."""
    text = Path(path).read_text()
    cells = "".join(text.split())
    if not cells or not set(cells) <= GRID_CHARS:
        raise ValueError(
            f"{path}: not a Sudoku grid; use color-map for adjacency files"
        )
    side = GRID_SIDES.get(len(cells))
    if side is None:
        raise ValueError(f"{path}: expected 16 or 81 cells, found {len(cells)}")
    return sudoku_problem(text, side)


def load_problem(path: str | Path) -> ColoringProblem:
    """Read either input format: a Sudoku grid or a border list.

    The file is a grid only when its non-whitespace text is exactly 16 or
    81 grid characters; anything else, such as a border list with
    numeric region names, is read as a border list with
    `parse_adjacency`'s default label count.
    """
    text = Path(path).read_text()
    cells = "".join(text.split())
    side = GRID_SIDES.get(len(cells))
    if side is not None and set(cells) <= GRID_CHARS:
        return sudoku_problem(text, side)
    return _with_regions(path, parse_adjacency(text))


def _with_regions(path: str | Path, problem: ColoringProblem) -> ColoringProblem:
    if not problem.variables:
        raise ValueError(f"{path}: no regions found")
    return problem


def _options_from(args: argparse.Namespace) -> InferenceOptions:
    return InferenceOptions(max_messages=args.max_messages, damping=args.damping)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _counted(count: int, noun: str) -> str:
    """`count` and `noun`, the noun plural unless the count is one."""
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


# -- subcommands -------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    problem = load_puzzle(args.puzzle)
    outcome = solve_problem(
        problem,
        args.topology,
        args.cluster_size,
        options=_options_from(args),
        bias_delta=args.bias,
        seed=args.seed,
    )
    print(format_sudoku(problem, outcome.assignment), end="")
    print(f"valid: {'yes' if outcome.valid else 'no'}")
    print(
        f"converged: {'yes' if outcome.converged else 'no'}  "
        f"messages: {outcome.messages}  clusters: {outcome.cluster_count}"
    )
    print(f"build: {outcome.build_ms:.1f} ms  infer: {outcome.infer_ms:.1f} ms")
    if outcome.valid:
        return EXIT_OK
    if not outcome.converged:
        print("did not converge", file=sys.stderr)
    else:
        violated = _counted(len(outcome.report.violated_edges), "constraint")
        print(f"decoded grid violates {violated}", file=sys.stderr)
    return EXIT_NO_SOLUTION


def cmd_color_map(args: argparse.Namespace) -> int:
    problem = _with_regions(
        args.map, parse_adjacency(Path(args.map).read_text(), args.k)
    )
    if len(problem.variables) > 1 and not problem.edges:
        raise ValueError(
            f"{args.map}: {len(problem.variables)} regions but no border; "
            f"a border line names two regions"
        )
    outcome = color_problem(
        problem,
        options=_options_from(args),
        bias_delta=args.bias,
        seed=args.seed,
    )
    if not outcome.valid:
        detail = "did not converge"
        if outcome.converged:
            clashes = _counted(len(outcome.report.violated_edges), "border")
            detail = f"labels clash across {clashes}"
        print(f"no valid coloring found: {detail}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    lines = "".join(
        f"{variable.name} {outcome.assignment[variable]}\n"
        for variable in sorted(problem.variables, key=lambda v: v.name)
    )
    if args.out:
        Path(args.out).write_text(lines)
    else:
        print(lines, end="")
    print(
        f"colored {len(problem.variables)} regions with {args.k} labels "
        f"({outcome.messages} messages)",
        file=sys.stderr,
    )
    return EXIT_OK


def _bench_row(
    name: str,
    problem: ColoringProblem | None,
    topology: str,
    size: int,
    options: InferenceOptions,
) -> tuple:
    failed = (name, topology, size, 0, "false", "false", 0, "0.000", "0.000")
    if problem is None:
        return failed
    try:
        outcome = solve_problem(problem, topology, size, options=options)
    except ContradictionError as exc:
        log.info("%s %s M=%d: unsatisfiable (%s)", name, topology, size, exc)
        return failed
    return (
        name,
        topology,
        size,
        outcome.cluster_count,
        _flag(outcome.converged),
        _flag(outcome.valid),
        outcome.messages,
        f"{outcome.build_ms:.3f}",
        f"{outcome.infer_ms:.3f}",
    )


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.instances)
    if not directory.is_dir():
        raise ValueError(f"{directory} is not a directory")
    paths = sorted(
        p for p in directory.iterdir()
        if p.is_file() and not p.name.startswith(".")
    )
    options = InferenceOptions(max_messages=args.max_messages)
    rows: list[tuple] = []
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for path in paths:
            try:
                problem = load_puzzle(path)
            except (ValueError, OSError) as exc:
                log.warning("skipping %s: %s", path.name, exc)
                problem = None
            for topology in TOPOLOGIES:
                for size in args.sizes:
                    row = _bench_row(path.name, problem, topology, size, options)
                    writer.writerow(row)
                    handle.flush()
                    rows.append(row)
                    log.info("%s %s M=%s -> valid=%s", *row[:3], row[5])
    print(f"wrote {len(rows)} rows to {args.out}")
    by_topology = {t: [r for r in rows if r[1] == t] for t in TOPOLOGIES}
    for topology, recorded in by_topology.items():
        good = sum(1 for r in recorded if r[5] == "true")
        print(f"{topology}: {good}/{len(recorded)} runs found a valid solution")
    upsets = [
        (ours[0], ours[2])
        for ours, theirs in zip(by_topology["ltrip"], by_topology["bethe"])
        if theirs[5] == "true" and ours[5] != "true"
    ]
    print(f"runs where bethe succeeded but ltrip failed (expected 0): {len(upsets)}")
    if upsets:
        log.warning(
            "bethe out-solved ltrip on: %s",
            ", ".join(f"{name} M={size}" for name, size in upsets),
        )
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    problem = load_problem(args.input)
    clusters = purged_clusters(problem, maximal_cliques(problem), args.cluster_size)
    graph = _graph(args.topology, clusters)
    if not graph.clusters:
        print("every variable is given; the graph is empty")
    else:
        sizes = sorted(len(c.vars) for c in graph.clusters)
        print(f"kind: {args.topology}")
        print(f"clusters: {len(graph.clusters)} (sizes {sizes[0]}..{sizes[-1]})")
        print(f"edges: {len(graph.sepsets)}")
        print(f"variables: {len(graph.variables())}")
    report = validate_rip(graph)
    if report.valid:
        print("validation: passed")
    else:
        print(f"validation: {len(report.violations)} violations")
        for violation in report.violations:
            print(f"  - {violation}")
    if args.dot:
        Path(args.dot).write_text(export_dot(graph))
        print(f"wrote {args.dot}")
    return EXIT_OK if report.valid else EXIT_NO_SOLUTION


# -- argument parsing --------------------------------------------------------


def _add_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-messages",
        type=int,
        default=InferenceOptions.max_messages,
        help="hard budget on passed messages",
    )


def _add_pipeline_flags(
    parser: argparse.ArgumentParser, bias: float, damping: float
) -> None:
    parser.add_argument(
        "--bias",
        type=float,
        default=bias,
        help="tie-breaking nudge strength; 0 disables it and makes one "
        f"attempt instead of {ATTEMPTS}",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for label preferences")
    _add_budget_flag(parser)
    parser.add_argument(
        "--damping",
        type=float,
        default=damping,
        help="mix each message with its predecessor to tame oscillation",
    )


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes or any(s < 2 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 2")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbp",
        description="Solve coloring problems with cluster-graph belief propagation.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    solve = sub.add_parser(
        "solve", help="solve one Sudoku grid and print the filled board"
    )
    solve.add_argument("puzzle", help="grid file: 16 or 81 digits, . or 0 blank")
    solve.add_argument("--topology", choices=TOPOLOGIES, default="ltrip")
    solve.add_argument("--cluster-size", type=int, help=SIZE_HELP)
    _add_pipeline_flags(solve, 0.0, InferenceOptions.damping)
    solve.set_defaults(func=cmd_solve)

    cmap = sub.add_parser(
        "color-map", help="four-color an adjacency file of region borders"
    )
    cmap.add_argument("map", help="border list: two region names per line")
    cmap.add_argument("--k", type=int, default=4, help="number of colors")
    cmap.add_argument("--out", help="write 'name label' lines here, not stdout")
    _add_pipeline_flags(cmap, MAP_BIAS, MAP_DAMPING)
    cmap.set_defaults(func=cmd_color_map)

    bench = sub.add_parser(
        "bench", help="sweep a puzzle directory over both topologies and sizes"
    )
    bench.add_argument("instances", help="directory of grid files")
    bench.add_argument(
        "--sizes",
        type=_size_list,
        default=[3, 5, 7, 9],
        help="comma-separated cluster sizes to sweep",
    )
    bench.add_argument("--out", default="bench.csv", help="CSV destination")
    _add_budget_flag(bench)
    bench.set_defaults(func=cmd_bench)

    graph = sub.add_parser(
        "graph", help="build a cluster graph, check it, and report or export it"
    )
    graph.add_argument("input", help="grid or adjacency file")
    graph.add_argument("--topology", choices=TOPOLOGIES, default="ltrip")
    graph.add_argument("--cluster-size", type=int, help=SIZE_HELP)
    graph.add_argument("--dot", help="write DOT markup here")
    graph.set_defaults(func=cmd_graph)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("CLUSTERBP_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContradictionError as exc:
        print(f"unsatisfiable: {exc}", file=sys.stderr)
        return EXIT_UNSATISFIABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
