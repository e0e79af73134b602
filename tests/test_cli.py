"""Command-line behavior: pipelines, exit codes, CSV output, DOT export."""

import argparse
import csv
import dataclasses
import inspect
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp.cli import (
    ATTEMPTS,
    CSV_COLUMNS,
    EXIT_BAD_INPUT,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_UNSATISFIABLE,
    SolveOutcome,
    _ranked_decode,
    build_parser,
    color_problem,
    load_problem,
    load_puzzle,
    main,
    solve_problem,
)
from clusterbp.coloring import (
    ColoringProblem,
    VerifyReport,
    format_adjacency,
    parse_adjacency,
    random_planar_map,
    sudoku_problem,
    verify_coloring,
)
from clusterbp.factors import ContradictionError, SparseTable, make_variables
from clusterbp.graphs import ClusterGraph
from clusterbp.inference import InferenceOptions, InferenceState
from conftest import SEVEN_REGION_TEXT, neighbours, variable_named
from oracles import (
    color_by_backtracking,
    exhaustive_4x4_suite,
    grid_text,
    is_proper_coloring,
    solve_sudoku,
)

# Five givens force the unique completion 1234/3412/2143/4321.
WELL_DEFINED_4 = "....\n3.12\n2..3\n....\n"
WELL_DEFINED_4_SOLUTION = "1234\n3412\n2143\n4321\n"
# No grid completes these givens (verified by exhaustive search).
UNSATISFIABLE_4 = "1..4\n..2.\n.3..\n4..1\n"
# A sees 1 and 2 in its row, 3 in its column and 4 in its box.
CORNERED_4 = "..12\n.4..\n3...\n....\n"
# Every cell keeps a label, and the box {C,D,G} pools three, but C and D
# may each only take 4: no completion, found while compiling.
DEAD_BOX_4 = "32..\n...1\n...3\n....\n"
# A hub bordering a five-cycle needs four colors.  With three, anchoring
# and the factors build, and every attempt dead-ends in its first round.
WHEEL = "H a\nH b\nH c\nH d\nH e\na b\nb c\nc d\nd e\ne a\n"
# Border lists whose region names are numbers.  The triangle has six
# digits; the four-clique (a border repeated) has exactly sixteen.
NUMERIC_TRIANGLE = "1 2\n2 3\n3 1\n"
NUMERIC_K4 = "1 2\n2 3\n3 4\n4 1\n1 3\n2 4\n1 2\n3 4\n"
# The Mycielski graph of the 5-cycle: triangle-free, and it needs four
# labels.  11 regions, 20 borders.
MYCIEL3 = (
    "1 2\n1 4\n1 7\n1 9\n2 3\n2 6\n2 8\n3 5\n3 7\n3 10\n"
    "4 5\n4 6\n4 10\n5 8\n5 9\n6 11\n7 11\n8 11\n9 11\n10 11\n"
)
# Two disjoint ten-cliques: anchoring pins the first, and the second
# would compile P(10, 10) = 3,628,800 entries.
TWO_TEN_CLIQUES = "".join(
    f"{p}{i} {p}{j}\n"
    for p in "ab"
    for i, j in itertools.combinations(range(10), 2)
)


def with_givens(problem, **labels):
    givens = {variable_named(problem, n): x for n, x in labels.items()}
    return dataclasses.replace(problem, givens=givens)


@pytest.fixture()
def puzzle_file(tmp_path):
    path = tmp_path / "puzzle.txt"
    path.write_text(WELL_DEFINED_4)
    return path


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "regions.txt"
    path.write_text(SEVEN_REGION_TEXT)
    return path


@pytest.fixture()
def rounds(monkeypatch):
    """The seed of every round `color_problem` runs, one per propagation."""
    seeds = []
    compile_round = clusterbp.cli._compile

    def counting(problem, cliques, topology, size, options, bias, seed):
        seeds.append(seed)
        return compile_round(problem, cliques, topology, size, options, bias, seed)

    monkeypatch.setattr("clusterbp.cli._compile", counting)
    return seeds


class TestSolve:
    def test_well_defined_grid(self, puzzle_file, capsys):
        assert main(["solve", str(puzzle_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(WELL_DEFINED_4_SOLUTION)
        assert "valid: yes" in out
        assert "converged: yes" in out

    def test_oracle_agrees(self, puzzle_file, capsys):
        main(["solve", str(puzzle_file)])
        grid = capsys.readouterr().out.splitlines()[:4]
        flat = [int(ch) for line in grid for ch in line]
        assert [tuple(flat)] == solve_sudoku(
            [0, 0, 0, 0, 3, 0, 1, 2, 2, 0, 0, 3, 0, 0, 0, 0], 4
        )

    def test_bethe_topology_also_solves(self, puzzle_file, capsys):
        assert main(["solve", str(puzzle_file), "--topology", "bethe"]) == EXIT_OK
        assert "valid: yes" in capsys.readouterr().out

    def test_split_clusters_still_solve(self, puzzle_file, capsys):
        code = main(["solve", str(puzzle_file), "--cluster-size", "3"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith(WELL_DEFINED_4_SOLUTION)

    def test_unsatisfiable_grid(self, tmp_path, capsys):
        path = tmp_path / "impossible.txt"
        path.write_text(UNSATISFIABLE_4)
        assert main(["solve", str(path)]) == EXIT_UNSATISFIABLE
        assert "unsatisfiable" in capsys.readouterr().err

    def test_cell_left_without_a_label(self, tmp_path, capsys):
        path = tmp_path / "cornered.txt"
        path.write_text(CORNERED_4)
        assert main(["solve", str(path)]) == EXIT_UNSATISFIABLE
        err = capsys.readouterr().err
        assert "unsatisfiable: the givens around A take all 4 labels" in err

    def test_box_without_an_assignment(self, tmp_path, capsys):
        assert solve_sudoku([3, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0], 4) == []
        path = tmp_path / "dead_box.txt"
        path.write_text(DEAD_BOX_4)
        assert main(["solve", str(path)]) == EXIT_UNSATISFIABLE
        message = "unsatisfiable: clique {C,D,G} has no assignment its domains allow"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("size, code", [(5, EXIT_OK), (3, EXIT_NO_SOLUTION)])
    def test_biased_underflow_is_not_unsatisfiable(self, size, code, capsys):
        # Every biased bethe attempt on this satisfiable grid annihilates
        # a belief in its first round, by float underflow; the unbiased
        # rerun decides the exit, and it is never 3.
        puzzle = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy02.txt"
        argv = ["solve", str(puzzle), "--topology", "bethe", "--bias", "1"]
        assert main(argv + ["--cluster-size", str(size)]) == code

    def test_symmetric_grid_decodes_valid(self, tmp_path, capsys):
        # Every marginal ties, so argmax would give 1111 rows; the ranked
        # decode dodges the labels earlier cells took.
        path = tmp_path / "blank.txt"
        path.write_text("." * 16)
        assert main(["solve", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "valid: yes" in captured.out

    def test_budget_cut_run_exits_without_solution(self, capsys):
        grid = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
        assert main(["solve", str(grid), "--max-messages", "1"]) == EXIT_NO_SOLUTION
        captured = capsys.readouterr()
        assert "valid: no" in captured.out
        assert "did not converge" in captured.err

    def test_refused_message_is_not_blamed_on_the_budget(self, monkeypatch, capsys):
        # A quotient that leaves the float range stops a run unconverged
        # long before its budget; the message must not name the budget.
        def refused(self, src, dst):
            raise ZeroDivisionError(f"message {src}->{dst} leaves the float range")

        monkeypatch.setattr(InferenceState, "pass_message", refused)
        grid = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
        assert main(["solve", str(grid)]) == EXIT_NO_SOLUTION
        captured = capsys.readouterr()
        assert "converged: no  messages: 0" in captured.out
        assert "did not converge" in captured.err
        assert "budget" not in captured.err

    def test_converged_decode_that_violates_exits_without_solution(
        self, puzzle_file, monkeypatch, capsys
    ):
        # A stubbed outcome, converged yet decoded to all label 0.
        problem = load_puzzle(puzzle_file)
        assignment = dict.fromkeys(problem.variables, 0)
        report = verify_coloring(problem, assignment)
        outcome = SolveOutcome(assignment, True, report, 1, 1, 0.0, 0.0)
        monkeypatch.setattr("clusterbp.cli.solve_problem", lambda *a, **k: outcome)
        assert main(["solve", str(puzzle_file)]) == EXIT_NO_SOLUTION
        captured = capsys.readouterr()
        assert "valid: no" in captured.out
        violated = len(report.violated_edges)
        assert violated > 0
        assert captured.err == f"decoded grid violates {violated} constraints\n"

    def test_malformed_grid(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("12345\n")
        assert main(["solve", str(path)]) == EXIT_BAD_INPUT
        assert "error" in capsys.readouterr().err

    def test_adjacency_input_is_rejected(self, map_file, capsys):
        assert main(["solve", str(map_file)]) == EXIT_BAD_INPUT
        assert "color-map" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == EXIT_BAD_INPUT

    def test_fully_given_grid(self, tmp_path, capsys):
        path = tmp_path / "done.txt"
        path.write_text(WELL_DEFINED_4_SOLUTION)
        assert main(["solve", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(WELL_DEFINED_4_SOLUTION)
        assert "messages: 0" in out


class TestOnePipeline:
    """Grids and maps run the same clique-to-verify sequence."""

    def test_grid_round_that_fails_decimates(self, rounds):
        # ltrip/4's first round on easy07 decodes with violated edges;
        # frozen labels repair it in a later round.
        grid = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy07.txt"
        outcome = solve_problem(load_puzzle(grid), "ltrip", 4)
        assert outcome.valid
        assert len(rounds) > 1

    def test_map_under_the_factor_graph(self):
        # The pinned count is that of the anchored pipeline color_problem
        # runs, here over the factor graph.
        outcome = solve_problem(
            random_planar_map(7, 7, seed=0),
            "bethe",
            bias_delta=0.01,
            options=InferenceOptions(damping=0.3),
        )
        assert outcome.valid
        assert outcome.messages == 11_258

    def test_entry_points_differ_only_in_defaults(self, rounds):
        # This map needs decimation rounds without a bias.
        problem = random_planar_map(8, 8, seed=8)
        damped = InferenceOptions(damping=0.3)
        grid_way = solve_problem(problem, options=damped)
        map_way = color_problem(problem, options=damped, bias_delta=0.0)
        assert len(rounds) > 2
        assert grid_way.valid and map_way.valid
        assert grid_way.assignment == map_way.assignment
        assert (grid_way.messages, grid_way.cluster_count) == (
            map_way.messages,
            map_way.cluster_count,
        )


BUNDLED = sorted((Path(clusterbp.__file__).parent / "data" / "puzzles").glob("*.txt"))


@pytest.fixture(scope="module")
def split_grids():
    """The 4x4 suite and the bundled 9x9 puzzles, each with its solution."""
    grids = [(grid_text(p), 4, full) for p, full in exhaustive_4x4_suite(0)]
    for path in BUNDLED:
        text = path.read_text()
        cells = [0 if c == "." else int(c) for c in "".join(text.split())]
        grids.append((text, 9, solve_sudoku(cells, 9, limit=1)[0]))
    return grids


class TestFreeSplit:
    """Each round splits what its givens leave of the cliques."""

    @pytest.mark.parametrize("size", [2.5, 3.0, math.nan, True])
    def test_size_that_is_not_an_int_is_refused(self, size):
        problem = sudoku_problem(WELL_DEFINED_4, 4)
        with pytest.raises(ValueError, match="cluster size must be >= 2 and an int"):
            solve_problem(problem, "ltrip", size)

    @pytest.mark.parametrize("frozen", [False, True], ids=["givens", "frozen"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_tables_hold_at_most_size_variables(
        self, monkeypatch, split_grids, size, frozen
    ):
        compiled = []
        compile_round = clusterbp.cli.build_factors

        def recording(problem, cliques, **kwargs):
            items = compile_round(problem, cliques, **kwargs)
            compiled.append((problem, items))
            return items

        monkeypatch.setattr("clusterbp.cli.build_factors", recording)
        for text, n, full in split_grids:
            problem = sudoku_problem(text, n)
            if frozen:
                # Every third open cell, frozen to its solution's label.
                open_cells = [v for v in problem.variables if v not in problem.givens]
                extra = {v: full[v.id] - 1 for v in open_cells[::3]}
                problem = dataclasses.replace(
                    problem, givens={**problem.givens, **extra}
                )
            solve_problem(problem, "ltrip", size)
        assert len(compiled) >= len(split_grids)
        for problem, items in compiled:
            assert all(len(table.scope) <= size for _, table in items)
            parts = [set(c.vars) for c, _ in items]
            free = set(problem.variables).difference(problem.givens)
            assert free == set().union(*parts)
            for edge in problem.edges:
                a, b = edge
                if edge <= free:
                    assert any(a in part and b in part for part in parts), edge

    @pytest.mark.parametrize("size", ["3", "5"])
    def test_graph_shows_the_first_round(self, capsys, size):
        easy01 = str(BUNDLED[0])
        assert main(["graph", easy01, "--cluster-size", size]) == EXIT_OK
        graph_count = re.search(r"^clusters: (\d+) ", capsys.readouterr().out, re.M)
        assert main(["solve", easy01, "--cluster-size", size]) == EXIT_OK
        solve_count = re.search(r"clusters: (\d+)$", capsys.readouterr().out, re.M)
        assert graph_count[1] == solve_count[1]

    @pytest.mark.parametrize("command", ["solve", "graph"])
    def test_size_one_is_refused_when_nothing_splits(self, tmp_path, capsys, command):
        # With one open cell no clique has more free cells than 1.
        path = tmp_path / "grid.txt"
        path.write_text("." + WELL_DEFINED_4_SOLUTION[1:])
        assert main([command, str(path), "--cluster-size", "1"]) == EXIT_BAD_INPUT
        assert "cluster size must be >= 2 and an int, got 1" in capsys.readouterr().err


class TestColorMap:
    def test_seven_regions(self, map_file, capsys):
        assert main(["color-map", str(map_file)]) == EXIT_OK
        out = capsys.readouterr().out
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        assignment = {}
        for line in out.splitlines():
            name, label = line.split()
            assignment[variable_named(problem, name)] = int(label)
        assert verify_coloring(problem, assignment).valid

    def test_writes_output_file(self, map_file, tmp_path, capsys):
        target = tmp_path / "colors.txt"
        assert main(["color-map", str(map_file), "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].split()[0] == "A"

    def test_single_region(self, tmp_path, capsys):
        path = tmp_path / "lonely.txt"
        path.write_text("A\n")
        assert main(["color-map", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "A 0\n"

    def test_converged_but_invalid_names_the_clashing_borders(self, tmp_path, capsys):
        # Every clique is one border, which three labels satisfy, so the
        # unbiased run converges, and its decode clashes (exit 4).
        path = tmp_path / "myciel3.txt"
        path.write_text(MYCIEL3)
        argv = ["color-map", str(path), "--k", "3", "--bias", "0"]
        assert main(argv) == EXIT_NO_SOLUTION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no valid coloring found: labels clash across 1 border\n"

    def test_unanchored_unbiased_still_colors(self, rounds):
        # A given on an isolated region turns anchoring off, and without
        # bias every marginal of the seven regions is all ties, so the
        # argmax decode is invalid.  The ranked decode breaks the ties
        # itself, one region after another, in the first round.
        problem = with_givens(parse_adjacency(SEVEN_REGION_TEXT + "Z\n"), Z=0)
        outcome = color_problem(problem, bias_delta=0.0)
        assert outcome.valid
        assert rounds == [0]

    def test_unbiased_decimation_takes_rounds(self, rounds):
        # Here the first ranked decode still clashes, so a second round
        # runs on frozen labels, under the same seed: one attempt.
        outcome = color_problem(
            random_planar_map(8, 8, seed=8),
            options=InferenceOptions(damping=0.3),
            bias_delta=0.0,
        )
        assert outcome.valid
        assert len(rounds) > 1 and set(rounds) == {0}

    def test_one_label_isolated_regions(self):
        # A is anchored; B is open with a single label and no runner-up.
        outcome = color_problem(parse_adjacency("A\nB\n", 1))
        assert outcome.valid
        assert set(outcome.assignment.values()) == {0}

    def test_path_with_a_given(self):
        # Pinning the clique {A,B} to A=0, B=1 would clash with C=1.
        problem = with_givens(parse_adjacency("A B\nB C\n", 2), C=1)
        outcome = color_problem(problem)
        assert outcome.valid
        assert {v.name: x for v, x in outcome.assignment.items()} == {
            "A": 1, "B": 0, "C": 1,
        }

    def test_seven_regions_with_givens(self):
        # The anchor A,C,D,F = 0..3 would put F=3 next to B=3.
        problem = with_givens(parse_adjacency(SEVEN_REGION_TEXT), A=0, B=3)
        outcome = color_problem(problem)
        assert outcome.valid
        assert verify_coloring(problem, outcome.assignment).valid

    @pytest.mark.parametrize("flag", ["--anchor", "--no-anchor"])
    def test_parser_rejects_anchor(self, map_file, capsys, flag):
        # Whether to anchor follows from the givens; no flag decides it.
        with pytest.raises(SystemExit) as stop:
            main(["color-map", str(map_file), flag])
        assert stop.value.code == EXIT_BAD_INPUT
        assert flag in capsys.readouterr().err

    def test_oversized_clique_is_refused(self, tmp_path, capsys):
        path = tmp_path / "cliques.txt"
        path.write_text(TWO_TEN_CLIQUES)
        assert main(["color-map", str(path), "--k", "10"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "clique {b0,b1,b2,b3,b4,b5,b6,b7,b8,b9}" in err
        assert "3,628,800 entries" in err

    def test_too_few_colors(self, map_file, capsys):
        assert main(["color-map", str(map_file), "--k", "3"]) == EXIT_UNSATISFIABLE
        assert "unsatisfiable" in capsys.readouterr().err

    def test_empty_map(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert main(["color-map", str(path)]) == EXIT_BAD_INPUT

    def test_regions_without_borders(self, capsys):
        # A Sudoku grid reads as nine one-name lines: regions, no border.
        grid = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
        assert main(["color-map", str(grid)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(grid) in captured.err
        assert "no border" in captured.err

    @pytest.mark.parametrize(
        "text", [NUMERIC_TRIANGLE, NUMERIC_K4], ids=["triangle", "k4"]
    )
    def test_numeric_region_names_are_borders(self, tmp_path, capsys, text):
        path = tmp_path / "numeric.txt"
        path.write_text(text)
        assert main(["color-map", str(path)]) == EXIT_OK
        problem = parse_adjacency(text)
        assignment = {
            variable_named(problem, line.split()[0]): int(line.split()[1])
            for line in capsys.readouterr().out.splitlines()
        }
        assert len(assignment) == len(problem.variables)
        assert verify_coloring(problem, assignment).valid

    def test_every_attempt_dead_ends(self, tmp_path, capsys):
        path = tmp_path / "wheel.txt"
        path.write_text(WHEEL)
        assert main(["color-map", str(path), "--k", "3"]) == EXIT_UNSATISFIABLE
        assert capsys.readouterr().err.startswith("unsatisfiable:")

    def test_beliefs_leaving_the_float_range_end_the_round(self, tmp_path, capsys):
        # Undamped, a sepset cell of this map decays to a subnormal value
        # and a later quotient overflows; the run stops unconverged.
        problem = random_planar_map(5, 7, seed=5)
        names = [v.name for v in problem.variables]
        borders = [tuple(v.name for v in e) for e in problem.edges]
        assert color_by_backtracking(names, borders, 3) is None
        path = tmp_path / "map.txt"
        path.write_text(format_adjacency(problem))
        argv = ["color-map", str(path), "--k", "3", "--damping", "0"]
        assert main(argv) == EXIT_NO_SOLUTION
        assert capsys.readouterr().err.startswith("no valid coloring found")

    def test_library_reraises_the_last_dead_end(self, rounds):
        with pytest.raises(ContradictionError):
            color_problem(parse_adjacency(WHEEL, 3))
        # ATTEMPTS counts biased attempts: four of them, one round each,
        # then the unbiased rerun whose contradiction is raised.
        assert rounds == [*range(ATTEMPTS), 0] == [0, 1, 2, 3, 0]

    def test_unbiased_dead_end_runs_once(self, rounds):
        # Without bias every attempt would repeat the first one exactly.
        with pytest.raises(ContradictionError):
            color_problem(parse_adjacency(WHEEL, 3), bias_delta=0.0)
        assert rounds == [0]

    def test_dead_ended_rounds_count(self, monkeypatch):
        # A round of the first attempt dead-ends; the messages it sent
        # and the time it ran before the contradiction still count in the
        # totals.  Each run's own span nests inside the one solve_problem
        # times, so the spans, summed in the same order, cannot exceed it.
        returned = []
        spans = []  # (milliseconds, whether the run raised)
        pass_message = InferenceState.pass_message
        run = InferenceState.run

        def counting(state, src, dst):
            residual = pass_message(state, src, dst)
            returned.append(residual)
            return residual

        def timed(state):
            started = time.perf_counter()
            raised = True
            try:
                run(state)
                raised = False
            finally:
                spans.append(((time.perf_counter() - started) * 1000.0, raised))
            return state

        monkeypatch.setattr(InferenceState, "pass_message", counting)
        monkeypatch.setattr(InferenceState, "run", timed)
        problem = dataclasses.replace(random_planar_map(5, 7, seed=26), k=3)
        outcome = color_problem(
            problem, options=InferenceOptions(damping=0.3, max_messages=20_000)
        )
        assert outcome.messages == len(returned)
        assert any(raised for _, raised in spans)
        total = 0.0
        for span, _ in spans:
            total += span
        assert outcome.infer_ms >= total > 0.0

    def test_bias_is_checked_before_anchoring(self, tmp_path, capsys):
        # K4 cannot take three labels, so anchoring would raise
        # ContradictionError; the bad argument is reported first.
        with pytest.raises(ValueError, match="bias_delta must be finite and >= 0"):
            color_problem(parse_adjacency(NUMERIC_K4, 3), bias_delta=-1.0)
        path = tmp_path / "k4.txt"
        path.write_text(NUMERIC_K4)
        argv = ["color-map", str(path), "--k", "3", "--bias=-1"]
        assert main(argv) == EXIT_BAD_INPUT
        assert "error: bias_delta must be finite and >= 0" in capsys.readouterr().err


@st.composite
def decode_cases(draw):
    """A small planar map, 2 to 4 labels, givens and max-normalized marginals.

    Each region has a planted label from a greedy coloring in a drawn
    order.  Its marginal scores the planted label 1.0 and every other
    label 0 (left out), 0.25, 0.5 or 1.0, so scores and margins often
    tie.  Givens are planted labels on some regions, minus any clash.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    problem = random_planar_map(rows, cols, seed=draw(st.integers(0, 99)))
    problem = dataclasses.replace(problem, k=draw(st.integers(2, 4)))
    k = problem.k
    planted = {}
    for variable in draw(st.permutations(problem.variables)):
        taken = {planted.get(n) for n in neighbours(problem, variable)}
        planted[variable] = min(set(range(k)) - taken, default=0)
    givens = {}
    for variable in problem.variables:
        neighbors = neighbours(problem, variable)
        clash = any(givens.get(n) == planted[variable] for n in neighbors)
        if draw(st.booleans()) and draw(st.booleans()) and not clash:
            givens[variable] = planted[variable]
    marginals = {}
    for variable in problem.variables:
        if variable in givens:
            continue
        levels = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        scores = draw(st.lists(levels, min_size=k, max_size=k))
        scores[planted[variable]] = 1.0
        entries = {(x,): score for x, score in enumerate(scores) if score}
        marginals[variable] = SparseTable((variable,), (k,), entries)
    return dataclasses.replace(problem, givens=givens), marginals


def margin_order(marginals, k):
    def margin(variable):
        scores = sorted(marginals[variable][(x,)] for x in range(k))
        return scores[-1] - scores[-2]

    return sorted(marginals, key=lambda v: (-margin(v), v.id))


class TestRankedDecode:
    @given(decode_cases())
    @settings(deadline=None, max_examples=200)
    def test_a_proper_argmax_decode_comes_back_unchanged(self, case):
        problem, marginals = case
        argmax = dict(problem.givens)
        argmax.update({v: table.argmax()[0] for v, table in marginals.items()})
        assignment, _ = _ranked_decode(problem, marginals)
        if verify_coloring(problem, argmax).valid:
            assert assignment == argmax

    @given(decode_cases())
    @settings(deadline=None, max_examples=200)
    def test_no_label_taken_while_a_free_one_exists(self, case):
        problem, marginals = case
        assignment, free = _ranked_decode(problem, marginals)
        assert assignment.keys() == set(problem.variables)
        assert all(assignment[v] == x for v, x in problem.givens.items())
        decided = dict(problem.givens)
        got_free = []
        for variable in margin_order(marginals, problem.k):
            held = {decided[n] for n in neighbours(problem, variable) if n in decided}
            label = assignment[variable]
            if len(held) < problem.k:
                assert label not in held
                got_free.append(variable)
            else:
                assert label == marginals[variable].argmax()[0]
            decided[variable] = label
        assert free == got_free

    def test_best_free_label_and_lowest_tie(self):
        # B ranks first (margin 1.0) and takes 0; A's best label is then
        # held, and its two runners-up tie, so it takes the lower one.
        problem = parse_adjacency("A B\n", 3)
        a, b = variable_named(problem, "A"), variable_named(problem, "B")
        marginals = {
            a: SparseTable((a,), (3,), {(0,): 1.0, (1,): 0.5, (2,): 0.5}),
            b: SparseTable((b,), (3,), {(0,): 1.0}),
        }
        assert _ranked_decode(problem, marginals) == ({a: 1, b: 0}, [b, a])


def small_problem(seed):
    """A random coloring problem: 3-9 variables, k of 2-4, edge chance
    0.2-0.8, each variable given with probability 0.15.

    Returns the names, name-pair edges, k and given labels by name.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(3, 9))]
    k = rng.randint(2, 4)
    chance = rng.uniform(0.2, 0.8)
    edges = [
        pair for pair in itertools.combinations(names, 2) if rng.random() < chance
    ]
    givens = {name: rng.randrange(k) for name in names if rng.random() < 0.15}
    return names, edges, k, givens


class TestSmallInputFuzz:
    """Both entry points graded against brute force on tiny problems.

    A run may fail to find a coloring, but a contradiction must mean
    there is none, and an answer reported valid must be one.
    """

    BUDGET = 20_000

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=1000, derandomize=True)
    def test_answers_are_sound(self, seed):
        names, edges, k, givens = small_problem(seed)
        coloring = color_by_backtracking(names, edges, k, givens)
        variables = make_variables(names)
        by_name = dict(zip(names, variables))
        runs = {
            "solve_problem": lambda p: solve_problem(
                p, options=InferenceOptions(max_messages=self.BUDGET)
            ),
            "color_problem": lambda p: color_problem(
                p, options=InferenceOptions(damping=0.3, max_messages=self.BUDGET)
            ),
        }
        for name, run in runs.items():
            try:
                problem = ColoringProblem(
                    variables,
                    [(by_name[a], by_name[b]) for a, b in edges],
                    k,
                    {by_name[n]: x for n, x in givens.items()},
                )
                outcome = run(problem)
            except ContradictionError:
                assert coloring is None, (name, seed)
                continue
            if outcome.valid:
                labels = {v.name: x for v, x in outcome.assignment.items()}
                assert is_proper_coloring(names, edges, k, givens, labels), (
                    name,
                    seed,
                )


@pytest.mark.parametrize("command", ["solve", "color-map"])
@pytest.mark.parametrize("bias", ["-1", "nan", "inf", "-inf"])
def test_parser_rejects_unusable_bias(puzzle_file, map_file, capsys, command, bias):
    # The parser reads the float; the library's check rejects it.
    target = puzzle_file if command == "solve" else map_file
    assert main([command, str(target), f"--bias={bias}"]) == EXIT_BAD_INPUT
    assert "bias_delta must be finite and >= 0" in capsys.readouterr().err


# Each value flag's bad value, the commands that take it, and the
# library's message for it.
BAD_FLAG_VALUES = [
    (["--cluster-size", "1"], ("solve", "graph"), "cluster size must be >= 2"),
    (["--bias=-1"], ("solve", "color-map"), "bias_delta must be finite and >= 0"),
    (
        ["--bias", "1e300"],
        ("solve", "color-map"),
        "bias delta 1e+300 overflows a weight of clique",
    ),
    (
        ["--bias", "1e308"],
        ("solve", "color-map"),
        "bias delta 1e+308 overflows the nudge of",
    ),
    (
        ["--max-messages", "0"],
        ("solve", "color-map", "bench"),
        "max_messages must be >= 1",
    ),
    (["--damping", "1"], ("solve", "color-map"), "damping must lie in [0, 1)"),
    (["--k", "0"], ("color-map",), "label count must be >= 1"),
]


@pytest.mark.parametrize(
    "command, flag, message",
    [
        pytest.param(command, flag, message, id=f"{command} {' '.join(flag)}")
        for flag, commands, message in BAD_FLAG_VALUES
        for command in commands
    ],
)
def test_bad_flag_value_exits_2(
    tmp_path, puzzle_file, map_file, capsys, command, flag, message
):
    targets = {
        "solve": [str(puzzle_file)],
        "color-map": [str(map_file)],
        "graph": [str(map_file)],
        "bench": [str(tmp_path), "--out", str(tmp_path / "bench.csv")],
    }
    assert main([command, *targets[command], *flag]) == EXIT_BAD_INPUT
    assert f"error: {message}" in capsys.readouterr().err


# Every option string of every subcommand, --help aside: adding or
# dropping a flag changes this table.
OPTION_STRINGS = {
    "solve": [
        "--topology",
        "--cluster-size",
        "--bias",
        "--seed",
        "--max-messages",
        "--damping",
    ],
    "color-map": ["--k", "--out", "--bias", "--seed", "--max-messages", "--damping"],
    "bench": ["--sizes", "--out", "--max-messages"],
    "graph": ["--topology", "--cluster-size", "--dot"],
}


def test_option_strings():
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    found = {
        name: [
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for name, sub in commands.choices.items()
    }
    assert found == OPTION_STRINGS
    assert sum(map(len, found.values())) == 18


def test_parser_defaults_are_the_library_defaults():
    # Each default is read from the library, so the two cannot drift.
    parse = build_parser().parse_args
    solve = parse(["solve", "grid.txt"])
    cmap = parse(["color-map", "map.txt"])
    bench = parse(["bench", "puzzles"])
    library = InferenceOptions()
    assert solve.max_messages == cmap.max_messages == bench.max_messages
    assert solve.max_messages == library.max_messages
    assert solve.damping == library.damping
    assert cmap.damping == clusterbp.cli.MAP_DAMPING
    bias = {
        run: inspect.signature(run).parameters["bias_delta"].default
        for run in (solve_problem, color_problem)
    }
    assert solve.bias == bias[solve_problem]
    assert cmap.bias == bias[color_problem]
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for name in ("solve", "color-map"):
        (flag,) = [
            action
            for action in commands.choices[name]._actions
            if "--bias" in action.option_strings
        ]
        assert flag.help.endswith(f"attempt instead of {ATTEMPTS}")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("graph", ["--k", "4"]),
        ("solve", ["--threshold", "1e-8"]),
        ("bench", ["--semiring", "max"]),
        ("bench", ["--damping", "0.3"]),
        ("bench", ["--topologies", "ltrip"]),
        ("graph", ["--validate"]),
    ],
)
def test_parser_rejects_fixed_settings(
    tmp_path, puzzle_file, map_file, capsys, command, flag
):
    # graph reads no label count; the threshold and max-product are fixed,
    # and bench's unbiased grids hold only 0 and 1, which damping cannot move.
    # bench always compares both topologies, and graph always validates.
    targets = {
        "solve": [str(puzzle_file)],
        "graph": [str(map_file)],
        "bench": [str(tmp_path), "--out", str(tmp_path / "bench.csv")],
    }
    with pytest.raises(SystemExit) as stop:
        main([command, *targets[command], *flag])
    assert stop.value.code == EXIT_BAD_INPUT
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("run", [solve_problem, color_problem])
@pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf, True, "a"])
def test_library_rejects_unusable_bias(run, delta):
    problem = parse_adjacency(SEVEN_REGION_TEXT)
    with pytest.raises(ValueError, match="bias_delta must be finite and >= 0"):
        run(problem, bias_delta=delta)


@pytest.mark.parametrize("run", [solve_problem, color_problem])
@pytest.mark.parametrize("seed", ["a", 1.5, True])
def test_library_rejects_a_seed_that_is_not_an_int(run, seed):
    # 1.5 once seeded other preferences than 1, and "a" raised TypeError
    # late.  K4 at three labels would contradict: the seed is refused first.
    problem = parse_adjacency(NUMERIC_K4, 3)
    with pytest.raises(ValueError, match=f"^seed must be an int, got {seed!r}$"):
        run(problem, bias_delta=0.1, seed=seed)


@pytest.mark.parametrize("run", [solve_problem, color_problem])
@pytest.mark.parametrize("options", [{}, 0, True, {"damping": 0.5}])
def test_library_rejects_options_that_are_not_inference_options(
    run, options, monkeypatch
):
    # {} and 0 once ran with the defaults, and True or a dict raised
    # AttributeError from the kernel after the cliques were built.
    def no_cliques(problem):
        raise AssertionError("options are checked before the cliques")

    monkeypatch.setattr(clusterbp.cli, "maximal_cliques", no_cliques)
    got = re.escape(repr(options))
    message = f"^options must be InferenceOptions or None, got {got}$"
    with pytest.raises(ValueError, match=message):
        run(parse_adjacency(SEVEN_REGION_TEXT), options=options)


def test_color_problem_damps_by_default(monkeypatch):
    # `color-map` and the library call run at one damping.
    dampings = []
    setup = InferenceState.__init__

    def recording(self, graph, factors, options=None):
        dampings.append((options or InferenceOptions()).damping)
        setup(self, graph, factors, options)

    monkeypatch.setattr(InferenceState, "__init__", recording)
    assert color_problem(random_planar_map(4, 4, seed=1)).valid
    assert dampings and set(dampings) == {clusterbp.cli.MAP_DAMPING} == {0.3}


@pytest.mark.parametrize(
    "delta, message",
    [
        # Finite nudges whose product overflows to inf in one table.
        (
            1e100,
            "bias delta 1e+100 overflows a weight of clique "
            "{r1c2,r1c3,r1c5,r1c7,r1c8,r1c9}; use a smaller bias",
        ),
        # A nudge that is itself inf: named by the bias and its variable.
        (1e308, "bias delta 1e+308 overflows the nudge of r1c2; use a smaller bias"),
    ],
    ids=["product", "nudge"],
)
def test_overflowing_bias_is_refused(delta, message):
    # Refused while compiling, not left to turn into a NaN weight that
    # leaves no value to decode.
    grid = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
    problem = sudoku_problem(grid.read_text(), 9)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_problem(problem, "ltrip", 9, bias_delta=delta)


def test_overflowing_bias_is_not_a_contradiction():
    # A four-colorable map: an overflowed weight is a bad bias, not exit 3.
    message = "bias delta 1e+200 overflows a weight of clique {m002,m003}"
    with pytest.raises(ValueError, match=re.escape(message)):
        color_problem(
            random_planar_map(25, 10, seed=3),
            options=InferenceOptions(damping=0.3),
            bias_delta=1e200,
        )



class TestBench:
    def test_row_arithmetic(self, tmp_path, capsys):
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "one.txt").write_text(WELL_DEFINED_4)
        (directory / "two.txt").write_text(WELL_DEFINED_4)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", str(directory), "--sizes", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 2  # instances x topologies
        assert {row[1] for row in rows[1:]} == {"ltrip", "bethe"}
        assert all(row[5] == "true" for row in rows[1:])
        summary = capsys.readouterr().out
        assert "expected 0): 0" in summary

    def test_empty_directory(self, tmp_path, capsys):
        directory = tmp_path / "nothing"
        directory.mkdir()
        out = tmp_path / "bench.csv"
        assert main(["bench", str(directory), "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows == [list(CSV_COLUMNS)]

    def test_broken_instance_recorded_not_fatal(self, tmp_path, capsys):
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "bad.txt").write_text("this is not a grid\n")
        (directory / "good.txt").write_text(WELL_DEFINED_4)
        out = tmp_path / "bench.csv"
        code = main(["bench", str(directory), "--sizes", "4", "--out", str(out)])
        assert code == EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [row[:2] for row in rows] == [
            [name, topology]
            for name in ("bad.txt", "good.txt")
            for topology in ("ltrip", "bethe")
        ]
        failed = ["4", "0", "false", "false", "0", "0.000", "0.000"]
        assert [row[2:] for row in rows[:2]] == [failed, failed]
        assert [row[5] for row in rows[2:]] == ["true", "true"]
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ltrip: 1/2 runs found a valid solution",
            "bethe: 1/2 runs found a valid solution",
            "runs where bethe succeeded but ltrip failed (expected 0): 0",
        ]

    def test_unsatisfiable_instance_recorded_not_fatal(self, tmp_path, capsys):
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "cornered.txt").write_text(CORNERED_4)
        out = tmp_path / "bench.csv"
        code = main(["bench", str(directory), "--sizes", "3,4", "--out", str(out)])
        assert code == EXIT_OK
        assert list(csv.reader(out.read_text().splitlines()))[1:] == [
            ["cornered.txt", topology, size, "0", "false", "false", "0", "0.000", "0.000"]
            for topology in ("ltrip", "bethe")
            for size in ("3", "4")
        ]
        summary = capsys.readouterr().out
        assert "ltrip: 0/2 runs found a valid solution" in summary
        assert "bethe: 0/2 runs found a valid solution" in summary

    def test_upsets_are_counted_and_named(self, tmp_path, monkeypatch, capsys, caplog):
        # A stub pipeline that fails every ltrip run and solves every
        # bethe one, so each (instance, size) is an upset.
        def stub(problem, topology, size, *, options):
            clash = () if topology == "bethe" else ((problem.variables[0],) * 2,)
            return SolveOutcome({}, True, VerifyReport(clash, ()), 1, 1, 0.0, 0.0)

        monkeypatch.setattr("clusterbp.cli.solve_problem", stub)
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "one.txt").write_text(WELL_DEFINED_4)
        out = tmp_path / "bench.csv"
        code = main(["bench", str(directory), "--sizes", "3,4", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ltrip: 0/2 runs found a valid solution",
            "bethe: 2/2 runs found a valid solution",
            "runs where bethe succeeded but ltrip failed (expected 0): 2",
        ]
        assert "bethe out-solved ltrip on: one.txt M=3, one.txt M=4" in caplog.text

    @pytest.mark.parametrize("sizes", ["1", "3,x"])
    def test_parser_rejects_sizes(self, tmp_path, capsys, sizes):
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as stop:
            main(["bench", str(tmp_path), "--sizes", sizes, "--out", str(out)])
        assert stop.value.code == EXIT_BAD_INPUT
        assert "--sizes" in capsys.readouterr().err

    def test_reruns_identical_modulo_timing(self, tmp_path):
        directory = tmp_path / "suite"
        directory.mkdir()
        (directory / "one.txt").write_text(WELL_DEFINED_4)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["bench", str(directory), "--sizes", "3,4", "--out", str(first)])
        main(["bench", str(directory), "--sizes", "3,4", "--out", str(second)])
        strip = lambda path: [
            row[:7] for row in csv.reader(path.read_text().splitlines())
        ]
        assert strip(first) == strip(second)

    def test_not_a_directory(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "gone")]) == EXIT_BAD_INPUT

    def test_parser_rejects_seed(self, tmp_path, capsys):
        # bench never sets a bias, so a seed would change nothing.
        out = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as stop:
            main(["bench", str(tmp_path), "--seed", "1", "--out", str(out)])
        assert stop.value.code == EXIT_BAD_INPUT
        assert "--seed" in capsys.readouterr().err


class TestGraph:
    def test_nine_by_nine_report(self, tmp_path, capsys):
        path = tmp_path / "blank9.txt"
        path.write_text("." * 81)
        assert main(["graph", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kind: ltrip" in out
        assert "clusters: 27 (sizes 9..9)" in out
        assert "variables: 81" in out
        assert "validation: passed" in out

    def test_bethe_validates(self, tmp_path, capsys):
        path = tmp_path / "blank4.txt"
        path.write_text("." * 16)
        code = main(["graph", str(path), "--topology", "bethe"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "kind: bethe" in out
        assert "validation: passed" in out

    def test_dot_export_lists_every_cluster(self, tmp_path, capsys):
        grid = tmp_path / "blank4.txt"
        grid.write_text("." * 16)
        dot = tmp_path / "graph.dot"
        assert main(["graph", str(grid), "--dot", str(dot)]) == EXIT_OK
        text = dot.read_text()
        assert text.startswith("graph cluster_graph {")
        assert sum(1 for line in text.splitlines() if "[label=" in line and "--" not in line) == 12

    def test_adjacency_input(self, map_file, capsys):
        assert main(["graph", str(map_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "clusters: 5" in out
        assert "variables: 7" in out
        assert "validation: passed" in out

    def test_violations_are_listed_and_exit_4(
        self, tmp_path, map_file, monkeypatch, capsys
    ):
        # A builder that joins nothing: each of the 7 shared variables has
        # too few sepsets and unconnected holders.  The DOT is still written.
        unjoined = lambda clusters: ClusterGraph(tuple(clusters), ())
        monkeypatch.setattr("clusterbp.cli.ltrip", unjoined)
        dot = tmp_path / "unjoined.dot"
        assert main(["graph", str(map_file), "--dot", str(dot)]) == EXIT_NO_SOLUTION
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:5] == ["edges: 0", "variables: 7", "validation: 14 violations"]
        assert lines[5] == (
            "  - variable A: 2 clusters hold it but 0 sepset edges carry it "
            "(a tree needs 1)"
        )
        assert sum(line.startswith("  - variable ") for line in lines) == 14
        assert lines[-1] == f"wrote {dot}"
        assert dot.exists()

    def test_fully_given_grid(self, tmp_path, capsys):
        path = tmp_path / "done.txt"
        path.write_text(WELL_DEFINED_4_SOLUTION)
        assert main(["graph", str(path)]) == EXIT_OK
        assert "empty" in capsys.readouterr().out

    def test_fully_given_grid_writes_the_empty_dot(self, tmp_path, capsys):
        path = tmp_path / "done.txt"
        path.write_text(WELL_DEFINED_4_SOLUTION)
        dot = tmp_path / "empty.dot"
        argv = ["graph", str(path), "--dot", str(dot)]
        assert main(argv) == EXIT_OK
        assert dot.read_text() == "graph cluster_graph {\n  node [shape=ellipse];\n}\n"
        assert capsys.readouterr().out.splitlines() == [
            "every variable is given; the graph is empty",
            "validation: passed",
            f"wrote {dot}",
        ]

    @pytest.mark.parametrize("text", ["", "# nothing here\n"], ids=["empty", "comment"])
    def test_no_regions(self, tmp_path, capsys, text):
        # The same file color-map rejects: no region, so nothing to build.
        path = tmp_path / "empty.txt"
        path.write_text(text)
        assert main(["graph", str(path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {path}: no regions found" in captured.err

    def test_numeric_region_names_are_borders(self, tmp_path, capsys):
        path = tmp_path / "numeric.txt"
        path.write_text(NUMERIC_TRIANGLE)
        assert main(["graph", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "clusters: 1 (sizes 3..3)" in out
        assert "variables: 3" in out


class TestLoaders:
    def test_sniffs_grid_and_adjacency(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text(WELL_DEFINED_4)
        regions = tmp_path / "regions.txt"
        regions.write_text("A B\n")
        assert len(load_problem(grid).variables) == 16
        assert len(load_problem(regions).variables) == 2

    def test_rejects_off_size_grid(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("." * 25)
        with pytest.raises(ValueError, match="16 or 81"):
            load_puzzle(path)

    def test_solve_problem_rejects_unknown_topology(self):
        problem = sudoku_problem(WELL_DEFINED_4, 4)
        with pytest.raises(ValueError, match="unknown topology"):
            solve_problem(problem, "loopy")


class TestDeterminismAcrossProcesses:
    """The same command prints the same answer under any hash seed."""

    def run_cli(self, args, hash_seed):
        source = str(Path(clusterbp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "clusterbp.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        kept = [
            line for line in done.stdout.splitlines() if not line.startswith("build:")
        ]
        return done.returncode, kept, done.stderr

    def test_solve(self, puzzle_file):
        args = ["solve", str(puzzle_file), "--cluster-size", "3", "--bias", "0.01"]
        first = self.run_cli(args, 0)
        assert first[0] == EXIT_OK
        assert "valid: yes" in first[1]
        assert self.run_cli(args, 1) == first

    def test_color_map(self):
        regions = Path(clusterbp.__file__).parent / "data" / "maps" / "seven_regions.txt"
        first = self.run_cli(["color-map", str(regions)], 0)
        assert first[0] == EXIT_OK
        assert len(first[1]) == 7
        assert self.run_cli(["color-map", str(regions)], 1) == first

    def test_graph_dot(self, tmp_path):
        puzzle = Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
        dots = []
        for hash_seed in (0, 1):
            dot = tmp_path / f"seed{hash_seed}.dot"
            args = ["graph", str(puzzle), "--cluster-size", "3", "--dot", str(dot)]
            assert self.run_cli(args, hash_seed)[0] == EXIT_OK
            dots.append(dot.read_text())
        assert dots[0] == dots[1]

    def test_error_exit(self, tmp_path):
        # Read as a 4x4 grid, the K4 border list has several pairs of
        # clashing givens; the message must name the same pair under any
        # hash seed.
        path = tmp_path / "k4.txt"
        path.write_text(NUMERIC_K4)
        first = self.run_cli(["graph", str(path)], 0)
        assert first[0] == EXIT_UNSATISFIABLE
        assert first[2].startswith("unsatisfiable: givens assign")
        assert self.run_cli(["graph", str(path)], 1) == first

    def test_clashing_grid(self, tmp_path):
        # Givens that clash on four edges of the shared 9x9 board: the
        # message names the smallest clash under any hash seed.
        rows = ["." * 9] * 9
        rows[0] = "11.2....."
        rows[1] = "...2....."
        rows[4] = "....33..."
        rows[7] = "........7"
        rows[8] = "........7"
        path = tmp_path / "clash9.txt"
        path.write_text("\n".join(rows) + "\n")
        first = self.run_cli(["solve", str(path)], 0)
        assert first[0] == EXIT_UNSATISFIABLE
        assert first[2] == (
            "unsatisfiable: givens assign r1c1 and r1c2 the same label 0 "
            "across an edge\n"
        )
        assert self.run_cli(["solve", str(path)], 1) == first


def test_import_leaves_numpy_out():
    # The package has no runtime dependency: importing it and its CLI
    # must not pull in numpy, which would cost start-up time and memory.
    source = str(Path(clusterbp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, clusterbp, clusterbp.cli; print('numpy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
