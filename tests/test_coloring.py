"""Coloring problems: builders, clique machinery, potentials, verification."""

import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp.coloring import (
    ColoringProblem,
    anchor_largest_clique,
    build_factors,
    format_adjacency,
    format_sudoku,
    label_preferences,
    maximal_cliques,
    parse_adjacency,
    purged_clusters,
    random_planar_map,
    split_cliques,
    sudoku_problem,
    verify_coloring,
)
from clusterbp.factors import (
    ContradictionError,
    SparseTable,
    Variable,
    make_variables,
)
from clusterbp.graphs import Cluster
from conftest import (
    SEVEN_REGION_CLIQUES,
    SEVEN_REGION_TEXT,
    all_different,
    neighbours,
    variable_named,
)
from oracles import (
    DenseFactor,
    color_by_backtracking,
    dense_joint,
    maximal_cliques_brute,
    solve_sudoku,
)

EASY01 = (
    Path(clusterbp.__file__).parent / "data" / "puzzles" / "easy01.txt"
).read_text()


def triangle_problem(k=3, givens=None):
    a, b, c = make_variables("ABC")
    edges = frozenset(
        frozenset(e) for e in [(a, b), (b, c), (a, c)]
    )
    return ColoringProblem((a, b, c), edges, k=k, givens=givens or {})


class TestProblem:
    def test_rejects_duplicate_names(self):
        dup = (Variable(0, "A"), Variable(1, "A"))
        with pytest.raises(ValueError, match="duplicate"):
            ColoringProblem(dup, frozenset(), k=2)

    def test_rejects_duplicate_ids(self):
        dup = (Variable(0, "A"), Variable(0, "B"))
        with pytest.raises(ValueError, match="duplicate"):
            ColoringProblem(dup, frozenset(), k=2)

    def test_rejects_edge_with_stranger(self):
        a, b, c = make_variables("ABC")
        with pytest.raises(ValueError, match="unknown"):
            ColoringProblem((a, b), frozenset({frozenset({a, c})}), k=2)

    def test_rejects_self_edge(self):
        a, b = make_variables("AB")
        with pytest.raises(ValueError, match="exactly two"):
            ColoringProblem((a, b), frozenset({frozenset({a})}), k=2)

    def test_rejects_out_of_range_given(self):
        a, b, c = make_variables("ABC")
        with pytest.raises(ValueError, match="outside"):
            triangle_problem(givens={a: 3})

    def test_rejects_conflicting_givens(self):
        a, b, c = make_variables("ABC")
        with pytest.raises(ContradictionError, match="same label"):
            triangle_problem(givens={a: 1, b: 1})

    def test_rejects_nonpositive_label_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            ColoringProblem((), frozenset(), k=0)

    @pytest.mark.parametrize("k", [3.0, True])
    def test_rejects_a_label_count_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match=f"and an int, got {k!r}$"):
            triangle_problem(k=k)

    @pytest.mark.parametrize("label", [1.5, True])
    def test_rejects_a_given_that_is_not_an_int(self, label):
        # A float label once solved "valid", with B holding 1.5.
        problem = sudoku_problem("1...\n..2.\n.3..\n...4\n", 4)
        givens = {**problem.givens, variable_named(problem, "B"): label}
        with pytest.raises(ValueError, match=f"given B={label!r} is not an int"):
            ColoringProblem(problem.variables, problem.edges, 4, givens)

    def test_rejects_a_given_for_an_unknown_variable(self):
        a, b, c = make_variables("abc")
        with pytest.raises(ValueError, match="^given for unknown variable c$"):
            ColoringProblem((a, b), frozenset({frozenset({a, b})}), 3, {c: 0})


class TestMaximalCliques:
    def test_seven_region_cliques(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        cliques = maximal_cliques(problem)
        labels = [tuple(v.name for v in c.sorted_vars()) for c in cliques]
        assert labels == SEVEN_REGION_CLIQUES
        assert len(cliques) == 5

    def test_four_by_four_units(self):
        problem = sudoku_problem("." * 16, n=4)
        cliques = maximal_cliques(problem)
        assert len(cliques) == 12
        assert all(len(c.vars) == 4 for c in cliques)
        labels = {c.label() for c in cliques}
        assert "A,B,C,D" in labels  # first row
        assert "A,E,I,M" in labels  # first column
        assert "A,B,E,F" in labels  # first box

    def test_nine_by_nine_units(self):
        problem = sudoku_problem("." * 81)
        cliques = maximal_cliques(problem)
        assert len(cliques) == 27
        assert {len(c.vars) for c in cliques} == {9}

    def test_isolated_vertices_become_singletons(self):
        a, b, c = make_variables("ABC")
        problem = ColoringProblem((a, b, c), frozenset({frozenset({a, b})}), k=2)
        cliques = maximal_cliques(problem)
        assert [c.label() for c in cliques] == ["A,B", "C"]

    def test_deterministic(self):
        problem = random_planar_map(4, 4, seed=9)
        assert maximal_cliques(problem) == maximal_cliques(problem)

    def test_empty_problem_has_no_cliques(self):
        assert maximal_cliques(ColoringProblem((), frozenset(), k=2)) == []

    @given(st.integers(1, 10), st.sampled_from(["some", "none", "all"]), st.data())
    @settings(deadline=None, max_examples=150)
    def test_matches_brute_force(self, n, shape, data):
        # Ids are gapped and out of position order: the search indexes
        # positions, while the result is ordered by id.
        ids = data.draw(
            st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)
        )
        variables = [Variable(i, "ABCDEFGHIJ"[p]) for p, i in enumerate(ids)]
        pool = list(itertools.combinations(variables, 2))
        if shape == "some":
            keep = data.draw(
                st.lists(st.booleans(), min_size=len(pool), max_size=len(pool))
            )
            picked = list(itertools.compress(pool, keep))
        else:
            picked = pool if shape == "all" else []
        edges = frozenset(frozenset(p) for p in picked)
        problem = ColoringProblem(tuple(variables), edges, k=4)
        by_name = {v.name: v for v in variables}
        expected = sorted(
            (
                tuple(sorted((by_name[name] for name in clique), key=lambda v: v.id))
                for clique in maximal_cliques_brute(
                    [v.name for v in variables],
                    [tuple(v.name for v in e) for e in edges],
                )
            ),
            key=lambda members: [v.id for v in members],
        )
        ours = maximal_cliques(problem)
        assert len(ours) == len(expected)
        assert [c.sorted_vars() for c in ours] == expected
        assert [c.vars for c in ours] == [frozenset(m) for m in expected]


class TestSplitCliques:
    def test_small_cliques_pass_through(self):
        cliques = [Cluster(frozenset(make_variables("AB")))]
        assert split_cliques(cliques, 3) == cliques

    def test_triangle_at_two_becomes_pairs(self):
        cliques = [Cluster(frozenset(make_variables("ABC")))]
        split = split_cliques(cliques, 2)
        assert [c.label() for c in split] == ["A,B", "A,C", "B,C"]

    def test_nine_clique_at_three(self):
        # Each pick covers the most uncovered pairs, ties to the
        # lexicographically first triple.
        cliques = [Cluster(frozenset(make_variables("ABCDEFGHI")))]
        split = split_cliques(cliques, 3)
        assert [c.label() for c in split] == [
            "A,B,C", "A,D,E", "A,F,G", "A,H,I", "B,D,F", "B,E,G", "C,D,G",
            "C,E,F", "B,C,H", "B,C,I", "D,E,H", "D,E,I", "F,G,H", "F,G,I",
        ]
        covered = set()
        for c in split:
            covered |= {
                frozenset(p) for p in itertools.combinations(c.vars, 2)
            }
        assert len(covered) == 36  # every pair of the nine

    @pytest.mark.parametrize("size,parts", [(3, 14), (4, 8), (5, 5), (6, 3), (7, 3)])
    def test_nine_clique_part_counts(self, size, parts):
        members = make_variables("ABCDEFGHI")
        split = split_cliques([Cluster(frozenset(members))], size)
        assert len(split) == parts
        assert all(len(c.vars) == size for c in split)
        have = {frozenset(p) for c in split for p in itertools.combinations(c.vars, 2)}
        assert have == {frozenset(p) for p in itertools.combinations(members, 2)}

    def test_cover_is_the_same_under_any_hash_seed(self):
        script = (
            "from clusterbp import make_variables\n"
            "from clusterbp.coloring import split_cliques\n"
            "from clusterbp.graphs import Cluster\n"
            "nine = Cluster(frozenset(make_variables('ABCDEFGHI')))\n"
            "for size in range(3, 8):\n"
            "    print([c.label() for c in split_cliques([nine], size)])\n"
        )
        source = str(Path(clusterbp.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in (0, 1):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 5
        assert outputs[0] == outputs[1]

    def test_duplicates_and_subsets_pruned(self):
        # Splitting drops the repeated {A,B}; the contained one survives
        # it once, and purged_clusters, where contained scopes go, drops it.
        a, b, c, d = make_variables("ABCD")
        cliques = [
            Cluster(frozenset({a, b, c, d})),
            Cluster(frozenset({a, b})),
            Cluster(frozenset({a, b})),
        ]
        split = split_cliques(cliques, 3)
        assert [c.label() for c in split] == ["A,B,C", "A,B,D", "A,C,D", "A,B"]
        problem = ColoringProblem((a, b, c, d), frozenset(), k=4)
        purged = purged_clusters(problem, split)
        assert [c.label() for c in purged] == ["A,B,C", "A,B,D", "A,C,D"]

    @given(
        st.sampled_from(["map", "grid4", "grid9"]),
        st.integers(0, 30),
        st.integers(2, 5),
    )
    @settings(deadline=None, max_examples=40)
    def test_split_maximal_cliques_hold_no_contained_scope(self, source, seed, size):
        # Why split_cliques needs no subset prune of its own.
        if source == "map":
            problem = random_planar_map(2 + seed % 6, 3 + seed % 5, seed=seed)
        else:
            side = 4 if source == "grid4" else 9
            problem = sudoku_problem("." * side * side, side)
        scopes = [c.vars for c in split_cliques(maximal_cliques(problem), size)]
        assert len(set(scopes)) == len(scopes)
        for mine in scopes:
            assert not any(mine < other for other in scopes if len(other) > len(mine))

    def test_renumbered_sequentially(self):
        # A cluster's number is its position: the cover comes back in the
        # order its combinations were chosen.
        cliques = [Cluster(frozenset(make_variables("ABCDE")))]
        split = split_cliques(cliques, 3)
        assert [c.label() for c in split] == ["A,B,C", "A,D,E", "B,C,D", "B,C,E"]

    def test_rejects_size_below_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            split_cliques([], 1)

    @pytest.mark.parametrize("size", [2.5, 3.0, math.nan, True])
    def test_rejects_a_size_that_is_not_an_int(self, size):
        cliques = [Cluster(frozenset(make_variables("ABCD")))]
        with pytest.raises(ValueError, match="cluster size must be >= 2 and an int"):
            split_cliques(cliques, size)

    @given(st.integers(3, 8), st.integers(2, 4))
    @settings(deadline=None, max_examples=40)
    def test_cover_property(self, n, size):
        members = make_variables("ABCDEFGH"[:n])
        split = split_cliques([Cluster(frozenset(members))], size)
        want = {frozenset(p) for p in itertools.combinations(members, 2)}
        have = set()
        for c in split:
            assert len(c.vars) <= size
            have |= {frozenset(p) for p in itertools.combinations(c.vars, 2)}
        assert want <= have


PUZZLE_4 = """
    1 . . 4
    . . . .
    . . . .
    4 . . 1
    """


def board_edges(variables, n):
    """Pairs of cells in one row, one column or one box of the n×n board."""
    box = math.isqrt(n)

    def units(i):
        r, c = divmod(i, n)
        return {("row", r), ("col", c), ("box", r // box, c // box)}

    return frozenset(
        frozenset((variables[i], variables[j]))
        for i, j in itertools.combinations(range(n * n), 2)
        if units(i) & units(j)
    )


class TestSudoku:
    def test_structure_counts(self):
        problem = sudoku_problem("." * 81)
        assert len(problem.variables) == 81
        assert len(problem.edges) == 810
        assert problem.k == 9

    def test_cell_names(self):
        small = sudoku_problem("." * 16, n=4)
        assert [v.name for v in small.variables[:5]] == ["A", "B", "C", "D", "E"]
        assert small.variables[-1].name == "P"
        big = sudoku_problem("." * 81)
        assert big.variables[0].name == "r1c1"
        assert big.variables[10].name == "r2c2"
        assert big.variables[-1].name == "r9c9"

    def test_givens_are_zero_based(self):
        problem = sudoku_problem(PUZZLE_4, n=4)
        by_name = {v.name: x for v, x in problem.givens.items()}
        assert by_name == {"A": 0, "D": 3, "M": 3, "P": 0}

    def test_zero_and_dot_both_blank(self):
        with_dots = sudoku_problem("1..4" + "." * 12, n=4)
        with_zeros = sudoku_problem("1004" + "0" * 12, n=4)
        assert with_dots.givens == with_zeros.givens

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 16 cells"):
            sudoku_problem("1234", n=4)

    def test_rejects_bad_character(self):
        with pytest.raises(ValueError, match="not a digit"):
            sudoku_problem("5" + "." * 15, n=4)

    def test_rejects_odd_grid_side(self):
        with pytest.raises(ValueError, match="must be 4 or 9"):
            sudoku_problem("." * 36, n=6)

    def test_rejects_contradictory_grid(self):
        with pytest.raises(ContradictionError):
            sudoku_problem("11.." + "." * 12, n=4)

    def test_grids_of_one_side_share_the_board(self):
        for n, first, second in [
            (4, PUZZLE_4, "." * 16),
            (9, EASY01, "." * 81),
        ]:
            one, two = sudoku_problem(first, n), sudoku_problem(second, n)
            assert one.givens != two.givens
            assert one.variables is two.variables
            shared = {id(edge) for edge in one.edges}
            assert all(id(edge) in shared for edge in two.edges)

    @pytest.mark.parametrize("n", [4, 9])
    def test_edges_join_cells_sharing_a_unit(self, n):
        problem = sudoku_problem("." * (n * n), n)
        assert problem.edges == board_edges(problem.variables, n)

    @pytest.mark.parametrize(
        "bad, error",
        [("5" + "." * 15, ValueError), ("11.." + "." * 12, ContradictionError)],
        ids=["bad character", "clashing givens"],
    )
    def test_a_failed_parse_leaves_the_board_intact(self, bad, error):
        before = sudoku_problem(PUZZLE_4, n=4)
        with pytest.raises(error):
            sudoku_problem(bad, n=4)
        after = sudoku_problem(PUZZLE_4, n=4)
        names = "ABCDEFGHIJKLMNOP"
        variables = tuple(Variable(i, name) for i, name in enumerate(names))
        named = dict(zip(names, variables))
        fresh = ColoringProblem(
            variables,
            board_edges(variables, 4),
            k=4,
            givens={named[c]: x for c, x in zip("ADMP", (0, 3, 3, 0))},
        )
        assert after == before == fresh

    def test_format_round_trip(self):
        problem = sudoku_problem(PUZZLE_4, n=4)
        text = format_sudoku(problem, problem.givens)
        assert text == "1..4\n....\n....\n4..1\n"
        assert sudoku_problem(text, n=4).givens == problem.givens

    def test_format_full_solution(self):
        problem = sudoku_problem("." * 16, n=4)
        full = {v: i % 4 for i, v in enumerate(problem.variables)}
        assert format_sudoku(problem, full) == "1234\n" * 4


class TestAdjacency:
    def test_seven_region_parse(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        assert [v.name for v in problem.variables] == list("ABCDEFG")
        assert len(problem.edges) == 14
        assert problem.k == 4

    def test_comments_and_blanks_ignored(self):
        problem = parse_adjacency("# hi\n\nA B  # border\nB C\n")
        assert len(problem.edges) == 2

    def test_single_name_declares_isolated_region(self):
        problem = parse_adjacency("A B\nC\n")
        assert [v.name for v in problem.variables] == ["A", "B", "C"]
        assert len(problem.edges) == 1

    def test_duplicate_borders_collapse(self):
        problem = parse_adjacency("A B\nB A\nA B\n")
        assert len(problem.edges) == 1

    def test_rejects_self_border(self):
        with pytest.raises(ValueError, match="line 2.*borders itself"):
            parse_adjacency("A B\nC C\n")

    def test_rejects_extra_tokens(self):
        with pytest.raises(ValueError, match="line 1.*one or two"):
            parse_adjacency("A B C\n")

    def test_format_round_trip(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        again = parse_adjacency(format_adjacency(problem))
        assert again.variables == problem.variables
        assert again.edges == problem.edges

    def test_format_keeps_isolated_regions(self):
        text = format_adjacency(parse_adjacency("A B\nC\n"))
        assert text == "A B\nC\n"


class TestBuildFactors:
    def test_refuses_a_given_edge_no_scope_holds(self):
        # a's only edge runs to the given b, and no scope holds a.
        a, b, c = make_variables("abc")
        edges = frozenset({frozenset({a, b}), frozenset({b, c})})
        problem = ColoringProblem((a, b, c), edges, 3, {b: 0})
        message = "edge a-b is not inside any clique; the cover is incomplete"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_factors(problem, [Cluster(frozenset({b, c}))])

    def test_refuses_an_oversized_table_before_building_it(self):
        # P(11, 11) = 39,916,800 entries: refused by counting, not by
        # running out of memory.
        variables = tuple(Variable(i, f"v{i:02d}") for i in range(11))
        problem = ColoringProblem(
            variables,
            frozenset(map(frozenset, itertools.combinations(variables, 2))),
            k=11,
        )
        with pytest.raises(ValueError, match=r"v00,.*,v10.* 39,916,800 entries"):
            build_factors(problem, maximal_cliques(problem))

    def test_table_bound_admits_its_limit(self, monkeypatch):
        # A triangle over k labels enumerates P(k, 3) entries: 6 for k=3.
        monkeypatch.setattr("clusterbp.coloring.MAX_TABLE_ENTRIES", 6)
        problem = triangle_problem(k=3)
        (_, table), = build_factors(problem, maximal_cliques(problem))
        assert len(table) == 6
        problem = triangle_problem(k=4)
        with pytest.raises(ValueError, match="24 entries"):
            build_factors(problem, maximal_cliques(problem))

    def test_too_few_labels_are_refused_before_any_key(self, monkeypatch):
        # Each member of a 10-clique has its own neighbour given label 0,
        # so the clique's domains hold 9 of its 10 labels.  No clique
        # holds a given and one of the members, and P(9, 10) = 0 entries.
        def enumerating(domains):
            raise AssertionError("keys enumerated for a table with none")

        monkeypatch.setattr("clusterbp.coloring._distinct_keys", enumerating)
        members = [Variable(i, f"v{i}") for i in range(10)]
        givens = {Variable(10 + i, f"g{i}"): 0 for i in range(10)}
        edges = {frozenset(p) for p in itertools.combinations(members, 2)}
        edges |= {frozenset(p) for p in zip(members, givens)}
        problem = ColoringProblem((*members, *givens), edges, k=10, givens=givens)
        message = r"clique \{v0,.*,v9\} needs 10 distinct labels but its domains hold only 9"
        with pytest.raises(ContradictionError, match=message):
            build_factors(problem, maximal_cliques(problem))

    def test_plain_triangle(self):
        problem = triangle_problem()
        items = build_factors(problem, maximal_cliques(problem))
        assert len(items) == 1
        cluster, table = items[0]
        assert cluster.vars == frozenset(problem.variables)
        assert len(table) == 6  # the 3! proper colorings

    def test_cluster_ids_track_tables(self):
        problem = sudoku_problem("." * 16, n=4)
        items = build_factors(problem, maximal_cliques(problem))
        assert len(items) == 12
        for cluster, table in items:
            assert cluster.vars == frozenset(table.scope)

    def test_given_is_conditioned_out(self):
        a, b, c = make_variables("ABC")
        problem = triangle_problem(givens={a: 0})
        items = build_factors(problem, maximal_cliques(problem))
        (cluster, table), = items
        assert cluster.vars == {b, c}
        assert set(table) == {(1, 2), (2, 1)}

    def test_fully_observed_cliques_drop_out(self):
        a, b, c = make_variables("ABC")
        d = Variable(3, "D")
        edges = frozenset(
            frozenset(e) for e in [(a, b), (b, c), (a, c), (c, d)]
        )
        problem = ColoringProblem(
            (a, b, c, d), edges, k=3, givens={a: 0, b: 1, c: 2}
        )
        items = build_factors(problem, maximal_cliques(problem))
        assert [c.label() for c, _ in items] == ["D"]
        (cluster, table), = items
        assert set(table) == {(0,), (1,)}

    def test_everything_observed_leaves_nothing(self):
        a, b = make_variables("AB")
        problem = ColoringProblem(
            (a, b), frozenset({frozenset({a, b})}), k=2, givens={a: 0, b: 1}
        )
        assert build_factors(problem, maximal_cliques(problem)) == []

    def test_rejects_uncovered_edge(self):
        problem = triangle_problem()
        a, b, c = problem.variables
        partial = [Cluster(frozenset({a, b})), Cluster(frozenset({b, c}))]
        with pytest.raises(ValueError, match="A-C.*not inside any clique"):
            build_factors(problem, partial)

    def test_bias_nudges_without_changing_support(self):
        problem = triangle_problem()
        cliques = maximal_cliques(problem)
        prefs = {problem.variables[0]: (2, 0, 1)}
        plain = build_factors(problem, cliques)[0][1]
        nudged = build_factors(problem, cliques, bias=prefs, delta=0.5)[0][1]
        assert set(nudged) == set(plain)
        key = (0, 1, 2)  # A=0 gets preference 2 -> factor 1 + 0.5*2
        assert nudged[key] == pytest.approx(plain[key] * 2.0)
        other = (1, 0, 2)  # A=1 gets preference 0 -> unchanged
        assert nudged[other] == pytest.approx(plain[other])

    def test_bias_must_cover_every_label(self):
        problem = triangle_problem()
        prefs = {problem.variables[0]: (1, 0)}
        with pytest.raises(ValueError, match="expected 3"):
            build_factors(problem, maximal_cliques(problem), bias=prefs)

    def test_overflowing_nudge_names_the_bias_and_the_variable(self):
        problem = triangle_problem()
        prefs = {problem.variables[1]: (0, 2, 1)}
        message = "bias delta 1e+308 overflows the nudge of B; use a smaller bias"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_factors(problem, maximal_cliques(problem), bias=prefs, delta=1e308)

    def test_negative_and_nan_nudges_are_still_refused(self):
        problem = triangle_problem()
        for weight in (-3.0, math.nan):
            prefs = {problem.variables[0]: (0, weight, 1)}
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                build_factors(problem, maximal_cliques(problem), bias=prefs, delta=1.0)

    def test_clique_without_an_assignment_is_a_contradiction(self):
        # Each of C, D and G keeps a label and the three pool {2,3,4}, so
        # the count check passes; but C and D may each only take 4.
        grid = "32..\n...1\n...3\n....\n"
        assert solve_sudoku([3, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0], 4) == []
        problem = sudoku_problem(grid, 4)
        message = r"^clique \{C,D,G\} has no assignment its domains allow$"
        with pytest.raises(ContradictionError, match=message):
            build_factors(problem, maximal_cliques(problem))

    def test_oversized_clique_is_a_contradiction(self):
        problem = triangle_problem(k=2)
        with pytest.raises(ContradictionError, match="2 .* remain|only"):
            build_factors(problem, maximal_cliques(problem))

    @given(st.integers(0, 40), st.integers(0, 24))
    @settings(deadline=None, max_examples=30)
    def test_purged_clusters_mirror_the_factor_build(self, seed, reveal):
        problem = random_planar_map(4, 4, seed=seed)
        solution = color_by_backtracking(
            [v.name for v in problem.variables],
            [tuple(sorted(v.name for v in e)) for e in problem.edges],
            4,
        )
        shown = sorted(problem.variables)[:reveal]
        problem = ColoringProblem(
            problem.variables,
            problem.edges,
            4,
            {v: solution[v.name] for v in shown},
        )
        cliques = maximal_cliques(problem)
        items = build_factors(problem, cliques)
        assert purged_clusters(problem, cliques) == [c for c, _ in items]

    @given(st.integers(2, 5), st.data())
    @settings(deadline=None, max_examples=60)
    def test_matches_observing_a_full_table(self, k, data):
        size = data.draw(st.integers(1, k))
        members = make_variables("WXYZG"[:size])
        observed = data.draw(st.integers(0, size))
        labels = data.draw(
            st.permutations(range(k)).map(lambda p: p[:observed])
        )
        givens = dict(zip(members[:observed], labels))
        edges = frozenset(
            frozenset(p) for p in itertools.combinations(members, 2)
        )
        problem = ColoringProblem(tuple(members), edges, k=k, givens=givens)
        items = build_factors(problem, [Cluster(frozenset(members))])
        reference = all_different(members, k)
        for variable in members:
            if variable in givens:
                reference = reference.observe(variable, givens[variable])
        if not reference.scope:
            assert items == []
        else:
            assert items[0][1] == reference


def compile_cover(cover, k=4, givens=None, bias=None, delta=0.01):
    """Compile cliques named by strings over a problem whose edges are
    exactly the pairs inside them; `givens` and `bias` are keyed by name."""
    variables = make_variables(sorted(set("".join(cover))))
    by_name = {v.name: v for v in variables}
    cliques = [Cluster(frozenset(by_name[n] for n in names)) for names in cover]
    edges = frozenset(
        frozenset(pair)
        for clique in cliques
        for pair in itertools.combinations(clique.vars, 2)
    )
    problem = ColoringProblem(
        tuple(variables),
        edges,
        k,
        {by_name[n]: x for n, x in (givens or {}).items()},
    )
    bias = None if bias is None else {by_name[n]: w for n, w in bias.items()}
    return build_factors(problem, cliques, bias=bias, delta=delta)


def ids_and_scopes(items):
    return [(i, c.label()) for i, (c, _) in enumerate(items)]


def purged_pairwise(problem, cliques):
    """`purged_clusters` as it compared every pair: each scope, walked
    largest first, then by sorted scope, then by index, is kept unless
    an already kept scope contains it."""
    scopes = [
        frozenset(v for v in clique.vars if v not in problem.givens)
        for clique in cliques
    ]
    order = sorted(
        (i for i, scope in enumerate(scopes) if scope),
        key=lambda i: (-len(scopes[i]), tuple(sorted(scopes[i])), i),
    )
    kept = []
    for i in order:
        if not any(scopes[i] <= scopes[j] for j in kept):
            kept.append(i)
    return [Cluster(scopes[i]) for i in sorted(kept)]


class TestPurgedClusters:
    @given(st.data())
    @settings(deadline=None, max_examples=200)
    def test_matches_the_pairwise_walk(self, data):
        variables = make_variables("ABCDEF")
        pick = st.sampled_from(variables)
        scopes = data.draw(st.lists(st.frozensets(pick, min_size=1), max_size=12))
        # Repeats and nested subsets of the scopes drawn so far.
        for _ in range(data.draw(st.integers(0, 6)) if scopes else 0):
            base = sorted(data.draw(st.sampled_from(scopes)))
            scopes.append(data.draw(st.frozensets(st.sampled_from(base), min_size=1)))
        scopes = data.draw(st.permutations(scopes))
        # Givens can empty a scope or make two scopes equal.
        shown = data.draw(st.sets(pick))
        problem = ColoringProblem(
            tuple(variables), frozenset(), k=4, givens=dict.fromkeys(shown, 0)
        )
        cliques = [Cluster(scope) for scope in scopes]
        assert purged_clusters(problem, cliques) == purged_pairwise(problem, cliques)


def two_step_clusters(problem, cliques, size):
    """A round's clusters as two calls decided them: `cli._split_free`
    conditioned the givens out and split, then `purged_clusters`
    conditioned the parts again and dropped contained scopes."""
    scopes = [clique.vars.difference(problem.givens) for clique in cliques]
    parts = [Cluster(scope) for scope in scopes if scope]
    if size is not None:
        parts = split_cliques(parts, size)
    scopes = [part.vars.difference(problem.givens) for part in parts]
    order = sorted(
        (i for i, scope in enumerate(scopes) if scope),
        key=lambda i: (-len(scopes[i]), i),
    )
    kept = []
    holders = {}
    for i in order:
        if not any(scopes[i] <= scopes[j] for j in holders.get(min(scopes[i]), ())):
            kept.append(i)
            for variable in scopes[i]:
                holders.setdefault(variable, []).append(i)
    return [Cluster(scopes[i]) for i in sorted(kept)]


def anchored(problem):
    cliques = maximal_cliques(problem)
    givens = anchor_largest_clique(problem, cliques)
    return ColoringProblem(problem.variables, problem.edges, problem.k, givens)


PUZZLES = sorted(
    (Path(clusterbp.__file__).parent / "data" / "puzzles").glob("*.txt")
)


class TestRoundClustersMatchTheTwoStepPath:
    """One `purged_clusters(problem, cliques, size)` call decides the
    clusters that conditioning, splitting and purging in two calls did,
    equal and in the same order."""

    def assert_same(self, problem, size):
        cliques = maximal_cliques(problem)
        expected = two_step_clusters(problem, cliques, size)
        assert purged_clusters(problem, cliques, size) == expected

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 10_000),
        st.sampled_from([None, 2, 3, 4, 5]),
        st.data(),
    )
    @settings(deadline=None, max_examples=150)
    def test_maps_with_givens_and_frozen_labels(self, rows, cols, seed, size, data):
        problem = random_planar_map(rows, cols, seed=seed)
        found = color_by_backtracking(
            [v.name for v in problem.variables],
            [tuple(sorted(v.name for v in e)) for e in problem.edges],
            4,
        )
        pick = st.sampled_from(problem.variables)
        givens = {v: found[v.name] for v in data.draw(st.sets(pick))}
        # Frozen labels, as decimation freezes them: any label no given
        # neighbour holds, right or wrong.
        for variable in data.draw(st.sets(pick)):
            if variable not in givens:
                held = {givens.get(u) for u in neighbours(problem, variable)}
                labels = [x for x in range(4) if x not in held]
                if labels:
                    givens[variable] = data.draw(st.sampled_from(labels))
        problem = ColoringProblem(problem.variables, problem.edges, 4, givens)
        self.assert_same(problem, size)

    @pytest.mark.parametrize("size", [None, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("path", PUZZLES, ids=lambda p: p.stem)
    def test_bundled_puzzles(self, path, size):
        self.assert_same(sudoku_problem(path.read_text(), 9), size)

    @pytest.mark.parametrize("size", [None, 2, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("side", [4, 9])
    def test_blank_grids_anchored(self, side, size):
        self.assert_same(anchored(sudoku_problem("." * side * side, side)), size)

    @pytest.mark.parametrize("size", [None, 2, 3])
    def test_map250_anchored(self, size):
        self.assert_same(anchored(random_planar_map(25, 10, seed=3)), size)

    @pytest.mark.parametrize("size", [1, 2.5, True])
    def test_bad_sizes_raise_the_same_error(self, size):
        problem = sudoku_problem(EASY01, 9)
        cliques = maximal_cliques(problem)
        with pytest.raises(ValueError) as old:
            two_step_clusters(problem, cliques, size)
        with pytest.raises(ValueError, match=f"^{re.escape(str(old.value))}$"):
            purged_clusters(problem, cliques, size)


class TestFoldSubsets:
    """`build_factors` drops cliques whose conditioned scope lies inside
    another's, so its output is subset-free.  G and H are always given;
    the labels they take leave the domains of their clique neighbours, in
    every table that holds them."""

    def test_subset_folds_into_superset(self):
        # {A,B} is inside both; the larger one takes it, not the earlier.
        items = compile_cover(["ABE", "ABCD", "ABG"], givens={"G": 0})
        assert ids_and_scopes(items) == [(0, "A,B,E"), (1, "A,B,C,D")]
        # G=0 leaves A and B without label 0 in both tables.
        assert len(items[0][1]) == 12  # A and B from 1..3, E one of the two left
        assert not any(0 in key[:2] for key in items[0][1])
        assert len(items[1][1]) == 12  # 0 sits at C or D: 2 * 3!
        assert not any(0 in key[:2] for key in items[1][1])
        # On a tie in size the earliest superset takes it.
        items = compile_cover(["ABC", "ABD", "ABG"], givens={"G": 0})
        assert ids_and_scopes(items) == [(0, "A,B,C"), (1, "A,B,D")]
        for _, table in items:
            assert len(table) == 12
            assert not any(0 in key[:2] for key in table)

    def test_survivors_keep_order_and_renumber(self):
        items = compile_cover(["AB", "BG", "BC"], k=3, givens={"G": 0})
        assert ids_and_scopes(items) == [(0, "A,B"), (1, "B,C")]
        # {B} lies inside {A,B}: largest first, then by clique index.
        # G=0 leaves B the domain {1, 2} in both tables.
        assert set(items[0][1]) == {(0, 1), (0, 2), (1, 2), (2, 1)}
        assert set(items[1][1]) == {(1, 0), (1, 2), (2, 0), (2, 1)}

    def test_identical_clusters_merge(self):
        items = compile_cover(
            ["ABG", "ABH"],
            givens={"G": 0, "H": 1},
            bias={"A": (0, 1, 2, 3)},
            delta=0.5,
        )
        assert ids_and_scopes(items) == [(0, "A,B")]
        # the one table holding A applies its nudge once: 1 + 0.5 * 2
        assert items[0][1].entries == {(2, 3): 2.0, (3, 2): 2.5}

    def test_chain_of_subsets(self):
        items = compile_cover(["AG", "ABC", "ABH"], givens={"G": 0, "H": 1})
        assert ids_and_scopes(items) == [(0, "A,B,C")]
        expected = {
            key
            for key in itertools.permutations(range(4), 3)
            if key[0] not in (0, 1) and key[1] != 1
        }
        assert set(items[0][1]) == expected

    def test_no_subsets_is_identity(self, seven_cliques):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        items = build_factors(problem, maximal_cliques(problem))
        assert [c for c, _ in items] == seven_cliques
        for cluster, table in items:
            assert table == all_different(cluster.sorted_vars(), 4)


def clique_by_clique_reference(problem, cliques, bias, delta):
    """The dense joint of one all-different factor per clique, givens
    observed, built from the oracles; only the nudge count comes from the
    package: each free variable's nudge is applied once per
    `purged_clusters` cluster that holds it."""
    k = problem.k
    factors = []
    for clique in cliques:
        members = tuple(sorted(clique.vars, key=lambda v: v.id))
        factor = DenseFactor.from_function(
            members, (k,) * len(members), lambda key: len(set(key)) == len(key)
        )
        for variable in members:
            if variable in problem.givens:
                factor = factor.observe(variable, problem.givens[variable])
        factors.append(factor)
    if bias is not None:
        for cluster in purged_clusters(problem, cliques):
            for variable in cluster.vars:
                if variable in bias:
                    factors.append(
                        DenseFactor.from_function(
                            (variable,),
                            (k,),
                            lambda key: 1 + delta * bias[variable][key[0]],
                        )
                    )
    return dense_joint(factors)


def assert_joint_matches(problem, cliques, bias, delta):
    items = build_factors(problem, cliques, bias=bias, delta=delta)
    scopes = [c.vars for c, _ in items]
    assert not any(a < b for a in scopes for b in scopes)
    reference = clique_by_clique_reference(problem, cliques, bias, delta)
    if not items:
        assert reference.scope == ()
        return
    joint = dense_joint([DenseFactor.from_sparse(t) for _, t in items])
    assert set(joint.scope) == set(reference.scope)
    for key, expected in reference.values.items():
        got = joint.value_of(dict(zip(reference.scope, key)))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFoldMatchesDenseOracle:
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 10_000),
        st.sampled_from([None, 2, 3]),
        st.sampled_from([0.0, 0.01, 0.3]),
        st.data(),
    )
    @settings(deadline=None, max_examples=40)
    def test_small_maps(self, rows, cols, seed, size, delta, data):
        problem = random_planar_map(rows, cols, seed=seed)
        solution = color_by_backtracking(
            [v.name for v in problem.variables],
            [tuple(sorted(v.name for v in e)) for e in problem.edges],
            4,
        )
        hidden = data.draw(st.sets(st.sampled_from(problem.variables), max_size=5))
        problem = ColoringProblem(
            problem.variables,
            problem.edges,
            4,
            {v: solution[v.name] for v in problem.variables if v not in hidden},
        )
        cliques = maximal_cliques(problem)
        if size is not None:
            cliques = split_cliques(cliques, size)
        bias = label_preferences(problem, seed) if delta else None
        assert_joint_matches(problem, cliques, bias, delta)

    @given(
        st.integers(0, 287),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.01, 0.3]),
        st.data(),
    )
    @settings(deadline=None, max_examples=25)
    def test_grids_split_at_three(self, which, seed, delta, data):
        full = solve_sudoku([0] * 16, 4)[which]
        blanks = data.draw(st.sets(st.integers(0, 15), min_size=1, max_size=5))
        grid = "".join("." if i in blanks else str(d) for i, d in enumerate(full))
        problem = sudoku_problem(grid, n=4)
        cliques = split_cliques(maximal_cliques(problem), 3)
        bias = label_preferences(problem, seed) if delta else None
        assert_joint_matches(problem, cliques, bias, delta)


def labels_of_given_neighbours(problem):
    return {
        v: {problem.givens[u] for u in neighbours(problem, v) if u in problem.givens}
        for v in problem.variables
        if v not in problem.givens
    }


def assert_no_given_neighbour_label(problem, cliques):
    banned = labels_of_given_neighbours(problem)
    for _, table in build_factors(problem, cliques):
        for key in table.entries:
            for variable, label in zip(table.scope, key):
                assert label not in banned[variable]


class TestDomains:
    """Each free variable's domain loses its given neighbours' labels, and
    every table is built over those domains."""

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 10_000),
        st.sampled_from([None, 2]),
        st.data(),
    )
    @settings(deadline=None, max_examples=40)
    def test_maps_with_givens(self, rows, cols, seed, size, data):
        problem = random_planar_map(rows, cols, seed=seed)
        solution = color_by_backtracking(
            [v.name for v in problem.variables],
            [tuple(sorted(v.name for v in e)) for e in problem.edges],
            4,
        )
        revealed = data.draw(st.sets(st.sampled_from(problem.variables)))
        problem = ColoringProblem(
            problem.variables,
            problem.edges,
            4,
            {v: solution[v.name] for v in revealed},
        )
        cliques = maximal_cliques(problem)
        if size is not None:
            cliques = split_cliques(cliques, size)
        assert_no_given_neighbour_label(problem, cliques)

    @given(st.integers(0, 287), st.data())
    @settings(deadline=None, max_examples=25)
    def test_grids_split_at_three(self, which, data):
        full = solve_sudoku([0] * 16, 4)[which]
        blanks = data.draw(st.sets(st.integers(0, 15), min_size=1, max_size=10))
        grid = "".join("." if i in blanks else str(d) for i, d in enumerate(full))
        problem = sudoku_problem(grid, n=4)
        assert_no_given_neighbour_label(
            problem, split_cliques(maximal_cliques(problem), 3)
        )

    @pytest.mark.parametrize(
        "grid,n,size",
        [
            ("....\n3.12\n2..3\n....\n", 4, None),
            ("1..4\n....\n....\n4..1\n", 4, 3),
            (EASY01, 9, 3),
        ],
        ids=["grid4", "corners4-split3", "easy01-split3"],
    )
    def test_keys_are_permutations_within_domains(self, grid, n, size):
        problem = sudoku_problem(grid, n)
        domains = {
            v: set(range(n)) - banned
            for v, banned in labels_of_given_neighbours(problem).items()
        }
        cliques = maximal_cliques(problem)
        if size is not None:
            cliques = split_cliques(cliques, size)
        for _, table in build_factors(problem, cliques):
            expected = [
                key
                for key in itertools.permutations(range(n), len(table.scope))
                if all(x in domains[v] for v, x in zip(table.scope, key))
            ]
            assert list(table.entries) == expected

    def test_empty_table_names_its_clique(self):
        # G=1 and H=2 leave A and B only label 0, which they cannot share.
        with pytest.raises(ContradictionError, match=r"clique \{A,B\} needs 2"):
            compile_cover(
                ["AB", "AG", "AH", "BG", "BH"], k=3, givens={"G": 1, "H": 2}
            )


def split_with_givens(problem, cliques, size):
    """`cli._split_free` as it gave each part its clique's givens back:
    a clique with at most `size` free variables passed whole."""
    if size is None:
        return cliques
    parts = []
    for clique in cliques:
        free = clique.vars.difference(problem.givens)
        if len(free) <= size:
            parts.append(clique)
            continue
        given = clique.vars - free
        parts += [Cluster(p.vars | given) for p in split_cliques([Cluster(free)], size)]
    return parts


def per_clique_factors(problem, cliques, bias, delta):
    """`build_factors` as it read the givens clique by clique: each free
    member's domain lost the labels of the givens in its cliques, and a
    one-variable table checked each nudge.  Returns (cluster, scope,
    entries) per table."""
    covered = {frozenset(p) for c in cliques for p in itertools.combinations(c.vars, 2)}
    assert problem.edges <= covered
    k = problem.k
    domains, nudges = {}, {}
    for clique in cliques:
        members = clique.sorted_vars()
        taken = {problem.givens[v] for v in members if v in problem.givens}
        free = [v for v in members if v not in problem.givens]
        if len(free) > k - len(taken):
            raise ContradictionError("too few labels remain")
        for variable in free:
            domain = domains.setdefault(variable, set(range(k)))
            domain -= taken
            if not domain:
                raise ContradictionError("an emptied domain")
            if bias is not None and variable not in nudges:
                nudge = {(x,): 1.0 + delta * bias[variable][x] for x in range(k)}
                weights = SparseTable((variable,), (k,), nudge)
                nudges[variable] = tuple(weights[(x,)] for x in range(k))
    out = []
    for cluster in purged_pairwise(problem, cliques):
        scope = cluster.sorted_vars()
        keys = [
            key
            for key in itertools.product(*(sorted(domains[v]) for v in scope))
            if len(set(key)) == len(key)
        ]
        weights = [(p, nudges[v]) for p, v in enumerate(scope) if v in nudges]
        entries = {}
        for key in keys:
            weight = math.prod(w[key[p]] for p, w in weights) if weights else 1.0
            if weight:
                entries[key] = weight
        if not entries:
            raise ContradictionError("an empty table")
        out.append((cluster, scope, entries))
    return out


class TestCompileMatchesPerCliqueGivens:
    """Parts without givens, and domains read off the edges, compile the
    tables the per-clique rule compiled, bit for bit and in order."""

    @given(
        st.sampled_from(["map", "grid"]),
        st.integers(0, 10_000),
        st.sampled_from([None, 2, 3, 4, 5]),
        st.sampled_from([0.0, 0.01, 0.3]),
        st.data(),
    )
    @settings(deadline=None, max_examples=150)
    def test_same_tables(self, source, seed, size, delta, data):
        if source == "map":
            rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
            problem = random_planar_map(rows, cols, seed=seed)
            found = color_by_backtracking(
                [v.name for v in problem.variables],
                [tuple(sorted(v.name for v in e)) for e in problem.edges],
                4,
            )
            solution = {v: found[v.name] for v in problem.variables}
        else:
            full = solve_sudoku([0] * 16, 4)[seed % 288]
            problem = sudoku_problem("." * 16, n=4)
            solution = {v: full[v.id] - 1 for v in problem.variables}
        pick = st.sampled_from(problem.variables)
        givens = {v: solution[v] for v in data.draw(st.sets(pick))}
        # Frozen cells, as decimation freezes them: any label that no
        # given neighbour holds, right or wrong.
        for variable in data.draw(st.sets(pick)):
            if variable not in givens:
                held = {givens.get(u) for u in neighbours(problem, variable)}
                labels = [x for x in range(4) if x not in held]
                if labels:
                    givens[variable] = data.draw(st.sampled_from(labels))
        problem = ColoringProblem(problem.variables, problem.edges, 4, givens)
        cliques = maximal_cliques(problem)
        bias = label_preferences(problem, seed) if delta else None
        try:
            expected = per_clique_factors(
                problem, split_with_givens(problem, cliques, size), bias, delta
            )
        except ContradictionError:
            with pytest.raises(ContradictionError):
                build_factors(problem, cliques, bias, delta, size=size)
            return
        got = build_factors(problem, cliques, bias, delta, size=size)
        assert [c for c, _ in got] == [c for c, _, _ in expected]
        for (_, table), (_, scope, entries) in zip(got, expected):
            assert table.scope == scope
            assert [(key, value.hex()) for key, value in table.entries.items()] == [
                (key, value.hex()) for key, value in entries.items()
            ]


class TestPreferences:
    def test_each_is_a_label_permutation(self):
        problem = sudoku_problem("." * 16, n=4)
        prefs = label_preferences(problem, seed=3)
        assert set(prefs) == set(problem.variables)
        for order in prefs.values():
            assert sorted(order) == [0, 1, 2, 3]

    def test_reproducible_and_seed_sensitive(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        assert label_preferences(problem, 5) == label_preferences(problem, 5)
        assert label_preferences(problem, 5) != label_preferences(problem, 6)

    def test_neighbors_disagree_somewhere(self):
        problem = random_planar_map(5, 5, seed=0)
        prefs = label_preferences(problem)
        assert len(set(prefs.values())) > 1


class TestAnchor:
    def test_seven_region_anchor(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        anchored = anchor_largest_clique(problem, maximal_cliques(problem))
        assert {v.name: x for v, x in anchored.items()} == {
            "A": 0, "C": 1, "D": 2, "F": 3,
        }

    def test_size_ties_break_lexically(self):
        a, b, c, d = make_variables("ABCD")
        cliques = [Cluster(frozenset({c, d})), Cluster(frozenset({a, b}))]
        problem = ColoringProblem(
            (a, b, c, d),
            frozenset({frozenset({a, b}), frozenset({c, d})}),
            k=2,
        )
        anchored = anchor_largest_clique(problem, cliques)
        assert anchored == {a: 0, b: 1}

    def test_preserves_compatible_givens(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        a = variable_named(problem, "A")
        b = variable_named(problem, "B")
        pinned = ColoringProblem(
            problem.variables, problem.edges, problem.k, {a: 0, b: 3}
        )
        anchored = anchor_largest_clique(pinned, maximal_cliques(pinned))
        # Pinning A,C,D,F to 0..3 would give F the label 3 that B, its
        # neighbor, already has; the givens alone come back.
        assert anchored == {a: 0, b: 3}

    def test_givens_come_back_unchanged(self):
        # A=2 disagrees with the pin A=0 a problem without givens gets.
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        a = variable_named(problem, "A")
        pinned = ColoringProblem(
            problem.variables, problem.edges, problem.k, {a: 2}
        )
        anchored = anchor_largest_clique(pinned, maximal_cliques(pinned))
        assert anchored == {a: 2}

    def test_too_few_labels_is_a_contradiction(self):
        problem = triangle_problem(k=2)
        with pytest.raises(ContradictionError, match="only 2 labels"):
            anchor_largest_clique(problem, maximal_cliques(problem))

    def test_rejects_empty_clique_list(self):
        with pytest.raises(ValueError, match="no cliques"):
            anchor_largest_clique(triangle_problem(), [])


class TestVerify:
    def test_accepts_proper_coloring(self):
        problem = parse_adjacency(SEVEN_REGION_TEXT)
        names = [v.name for v in problem.variables]
        edges = [tuple(sorted(v.name for v in e)) for e in problem.edges]
        solution = color_by_backtracking(names, edges, 4)
        report = verify_coloring(
            problem, {variable_named(problem, n): x for n, x in solution.items()}
        )
        assert report.valid and bool(report)

    def test_reports_violated_edges(self):
        problem = triangle_problem()
        a, b, c = problem.variables
        report = verify_coloring(problem, {a: 0, b: 0, c: 1})
        assert not report
        assert report.violated_edges == ((a, b),)

    def test_reports_ignored_givens(self):
        a, b = make_variables("AB")
        problem = ColoringProblem(
            (a, b), frozenset({frozenset({a, b})}), k=3, givens={a: 2}
        )
        report = verify_coloring(problem, {a: 0, b: 1})
        assert report.given_mismatches == ((a, 2, 0),)
        assert not report.violated_edges

    def test_rejects_partial_assignment(self):
        problem = triangle_problem()
        a, b, c = problem.variables
        with pytest.raises(ValueError, match="misses 1 variables"):
            verify_coloring(problem, {a: 0, b: 1})

    def test_rejects_out_of_range_label(self):
        problem = triangle_problem()
        a, b, c = problem.variables
        with pytest.raises(ValueError, match="outside 0..2"):
            verify_coloring(problem, {a: 0, b: 1, c: 3})


class TestPlanarMap:
    def test_deterministic_per_seed(self):
        one = random_planar_map(6, 4, seed=11)
        two = random_planar_map(6, 4, seed=11)
        assert one.variables == two.variables and one.edges == two.edges
        assert one.edges != random_planar_map(6, 4, seed=12).edges

    def test_grid_without_diagonals(self):
        grid = random_planar_map(3, 5, seed=0, diagonal_rate=0.0)
        assert len(grid.variables) == 15
        assert len(grid.edges) == 3 * 4 + 2 * 5  # right + down neighbors

    def test_one_diagonal_per_block_caps_cliques(self):
        dense = random_planar_map(6, 6, seed=1, diagonal_rate=1.0)
        assert len(dense.edges) == 2 * 6 * 5 + 25
        assert max(len(c.vars) for c in maximal_cliques(dense)) == 3

    def test_small_maps_are_four_colorable(self):
        for seed in range(5):
            problem = random_planar_map(4, 5, seed=seed)
            solution = color_by_backtracking(
                [v.name for v in problem.variables],
                [tuple(sorted(v.name for v in e)) for e in problem.edges],
                4,
            )
            assert solution is not None
            assignment = {
                variable_named(problem, n): x for n, x in solution.items()
            }
            assert verify_coloring(problem, assignment).valid

    def test_names_sort_like_ids(self):
        problem = random_planar_map(5, 5, seed=0)
        names = [v.name for v in problem.variables]
        assert names == sorted(names)

    def test_rejects_degenerate_shape(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_planar_map(0, 3)
