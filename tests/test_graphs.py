"""Cluster-graph construction, weights, spanning trees, and validation.

Covers:
* structural checks on Cluster / Sepset / ClusterGraph
* the layer weight rule, frozen against a fully hand-computed example
* layer spanning trees, cross-checked by enumerating every labeled tree
* layered construction: forced edges, sepset contents, determinism
* the Bethe construction and its single-variable hubs
* running-intersection validation on valid, broken, and random graphs
* DOT export
* ltrip against a copy of the dense per-layer matrix build it replaced
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterbp
from clusterbp import make_variables
from clusterbp.coloring import (
    anchor_largest_clique,
    maximal_cliques,
    purged_clusters,
    random_planar_map,
    sudoku_problem,
)
from clusterbp.graphs import (
    Cluster,
    ClusterGraph,
    RipReport,
    Sepset,
    _layer_tree,
    bethe_graph,
    export_dot,
    ltrip,
    validate_rip,
)
from clusterbp.inference import InferenceState
from oracles import all_spanning_trees

VARS = make_variables("ABCDEFG")
A, B, C, D, E, F, G = VARS
BY_NAME = {v.name: v for v in VARS}


def cl(names):
    return Cluster(frozenset(BY_NAME[n] for n in names))


def names_of(vars_):
    return "".join(sorted(v.name for v in vars_))


def overlaps(clusters):
    """Shared-variable counts of every pair of positions, (low, high) keyed."""
    return {
        (i, j): len(a.vars & b.vars)
        for (i, a), (j, b) in itertools.combinations(enumerate(clusters), 2)
    }


def rule_weights(overlap, members):
    """`ltrip`'s edge weights for one layer, worked out here: the overlap
    plus, per endpoint, its layer edges that reach the top overlap."""
    edges = list(itertools.combinations(members, 2))
    top = max(overlap[e] for e in edges)
    reach = {i: sum(1 for e in edges if i in e and overlap[e] == top) for i in members}
    return {e: overlap[e] + reach[e[0]] + reach[e[1]] for e in edges}


def layered_by_hand(clusters):
    """The layered construction applied layer by layer, no subset screening.

    The five-cluster worked layer below contains a subset pair, which
    `ltrip` refuses by contract; assembling its graph from the per-layer
    trees shows they still line up.
    """
    overlap = overlaps(clusters)
    sepset_vars = {}
    for variable in sorted({v for c in clusters for v in c.vars}):
        members = [i for i, c in enumerate(clusters) if variable in c.vars]
        for edge in _layer_tree(members, overlap):
            sepset_vars.setdefault(edge, set()).add(variable)
    sepsets = tuple(
        Sepset(edge, frozenset(vs)) for edge, vs in sorted(sepset_vars.items())
    )
    return ClusterGraph(tuple(clusters), sepsets)


# A five-cluster layer whose weight matrix was worked out by hand:
# overlaps peak at 3, clusters 0 and 1 attain that twice resp. once,
# and the top edge lands at 3 + 2 + 1 = 6.
WORKED_LAYER = [
    cl("BCDEF"),
    cl("ABCD"),
    cl("BEF"),
    cl("BCG"),
    cl("ABG"),
]
WORKED_WEIGHTS = {
    (0, 1): 6, (0, 2): 6, (0, 3): 4, (0, 4): 3,
    (1, 2): 3, (1, 3): 3, (1, 4): 3,
    (2, 3): 2, (2, 4): 2,
    (3, 4): 2,
}


class TestStructures:
    def test_cluster_requires_variables(self):
        with pytest.raises(ValueError, match="no variables"):
            Cluster(frozenset())

    def test_cluster_repr_is_its_variables(self):
        # A cluster carries no number; its graph numbers it by position.
        assert repr(cl("BA")) == "Cluster({A,B})"

    def test_sepset_normalizes_endpoint_order(self):
        assert Sepset((3, 1), frozenset({A})).clusters == (1, 3)

    def test_sepset_rejects_self_loop(self):
        with pytest.raises(ValueError, match="differ"):
            Sepset((2, 2), frozenset({A}))

    def test_graph_rejects_dangling_sepset(self):
        with pytest.raises(ValueError, match="past the clusters"):
            ClusterGraph((cl("A"),), (Sepset((0, 1), frozenset({A})),))

    def test_graph_rejects_negative_endpoint(self):
        clusters = (cl("AB"), cl("AC"), cl("AD"))
        with pytest.raises(ValueError, match="past the clusters"):
            ClusterGraph(clusters, (Sepset((-1, 0), frozenset({A})),))

    def test_graph_rejects_duplicate_edges(self):
        sep = Sepset((0, 1), frozenset({A}))
        with pytest.raises(ValueError, match="duplicate"):
            ClusterGraph((cl("AB"), cl("AC")), (sep, sep))

    def test_neighbors_and_lookup(self, seven_graph):
        # A cluster's neighbours are the other ends of the sepsets naming it.
        ends = [s.clusters for s in seven_graph.sepsets if 3 in s.clusters]
        assert sorted(j if i == 3 else i for i, j in ends) == [1, 2, 4]
        carried = {s.clusters: s.vars for s in seven_graph.sepsets}
        assert (0, 4) not in carried
        assert names_of(carried[3, 4]) == "DE"

    def test_variables_union(self, seven_graph):
        assert [v.name for v in seven_graph.variables()] == list("ABCDEFG")


class TestConnectionWeights:
    """The weight rule, seen through the trees it makes."""

    def test_single_cluster_layer(self):
        assert _layer_tree([4], {}) == []

    def test_both_endpoint_bonuses_count(self):
        # Every overlap is 2 but (0,1)'s: clusters 2 and 3 reach it three
        # times, 0 and 1 twice, so (2,3) weighs 2 + 3 + 3 = 8 and goes
        # first, then (0,2) and (1,2) at 7.  Raw overlap, or only the
        # larger endpoint bonus, would take (0,2), (0,3) and (1,2).
        overlap = dict.fromkeys(itertools.combinations(range(4), 2), 2)
        overlap[0, 1] = 1
        assert _layer_tree(range(4), overlap) == [(2, 3), (0, 2), (1, 2)]

    def test_worked_five_cluster_layer(self):
        # The rule as the optimality check below computes it.
        assert rule_weights(overlaps(WORKED_LAYER), range(5)) == WORKED_WEIGHTS


class TestMaxSpanningTree:
    def test_tie_break_prefers_low_ids(self):
        overlap = dict.fromkeys(itertools.combinations(range(3), 2), 1)
        assert _layer_tree([0, 1, 2], overlap) == [(0, 1), (0, 2)]

    def test_global_ids_are_respected(self):
        overlap = dict.fromkeys(itertools.combinations([3, 7, 9], 2), 1)
        assert _layer_tree([3, 7, 9], overlap) == [(3, 7), (3, 9)]

    def test_worked_layer_tree(self):
        # Raw overlap would take (1,4) where the bonus takes (0,4).
        got = _layer_tree(range(5), overlaps(WORKED_LAYER))
        assert got == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def _total(self, edges, weights):
        return sum(weights[edge] for edge in edges)

    def test_optimal_against_exhaustive_enumeration(self):
        trees = all_spanning_trees(5)
        assert len(trees) == 125  # Cayley: 5^3 labeled trees
        rng = random.Random(20260814)
        layers = [overlaps(WORKED_LAYER)]
        for _ in range(40):
            pairs = itertools.combinations(range(5), 2)
            layers.append({pair: rng.randint(1, 4) for pair in pairs})
        for overlap in layers:
            weights = rule_weights(overlap, range(5))
            got = _layer_tree(range(5), overlap)
            assert len(got) == 4
            assert frozenset(got) in trees
            best = max(self._total(t, weights) for t in trees)
            assert self._total(got, weights) == best


def assert_the_empty_graph(graph):
    # Nothing to infer: a state over it converges with no message.
    assert graph == ClusterGraph((), ())
    state = InferenceState(graph, []).run()
    assert state.converged and state.stats.messages == 0
    assert state.marginals == {}


class TestLayeredConstruction:
    def test_empty_input_is_the_empty_graph(self):
        assert_the_empty_graph(ltrip([]))

    def test_subset_clusters_rejected(self):
        with pytest.raises(ValueError, match="fold subsets"):
            ltrip([cl("ABC"), cl("AB")])

    def test_containment_error_names_the_first_pair(self):
        with pytest.raises(
            ValueError, match=re.escape("cluster 0 ({A,B}) is contained in cluster 1")
        ):
            ltrip([cl("AB"), cl("AB")])
        # The first contained cluster in input order, then its first holder.
        with pytest.raises(
            ValueError, match=re.escape("cluster 0 ({C,D}) is contained in cluster 1")
        ):
            ltrip([cl("CD"), cl("ABCD"), cl("BCD")])

    def test_triangle_of_pairwise_cliques(self):
        # Every variable lives in exactly two clusters, so each layer is
        # forced to a single edge and all three edges appear.
        graph = ltrip([cl("AB"), cl("BC"), cl("AC")])
        got = {s.clusters: names_of(s.vars) for s in graph.sepsets}
        assert got == {(0, 1): "B", (0, 2): "A", (1, 2): "C"}
        assert validate_rip(graph).valid

    def test_worked_layer_contains_a_subset_and_is_refused(self):
        with pytest.raises(ValueError, match="fold subsets"):
            ltrip(WORKED_LAYER)

    def test_worked_example_graph_assembled_by_layers(self):
        graph = layered_by_hand(WORKED_LAYER)
        got = {s.clusters: names_of(s.vars) for s in graph.sepsets}
        assert got == {
            (0, 1): "BCD",
            (0, 2): "BEF",
            (0, 3): "BC",
            (0, 4): "B",
            (1, 4): "A",
            (3, 4): "G",
        }
        assert validate_rip(graph).valid

    def test_seven_region_layers_are_recorded(self, seven_cliques):
        # A variable's tree is recorded as the sepsets that carry it.
        graph = ltrip(seven_cliques)
        trees = {
            v.name: [s.clusters for s in graph.sepsets if v in s.vars]
            for v in graph.variables()
        }
        d_holders = [
            i for i, c in enumerate(seven_cliques) if "D" in names_of(c.vars)
        ]
        assert d_holders == [1, 3, 4]
        weights = rule_weights(overlaps(seven_cliques), d_holders)
        assert weights == {(1, 3): 5, (1, 4): 3, (3, 4): 5}
        assert trees["D"] == [(1, 3), (3, 4)]
        assert trees["A"] == [(0, 1)]
        assert set(trees) == set("ABCDEFG") and all(trees.values())

    def test_lone_variable_contributes_nothing(self):
        graph = ltrip([cl("AB"), cl("BC"), cl("D")])
        assert all("D" not in names_of(s.vars) for s in graph.sepsets)
        assert validate_rip(graph).valid

    def test_seven_region_cliques(self, seven_cliques):
        graph = ltrip(seven_cliques)
        got = {s.clusters: names_of(s.vars) for s in graph.sepsets}
        assert got == {
            (0, 1): "AF",
            (0, 2): "B",
            (1, 3): "CD",
            (2, 4): "EG",
            (3, 4): "DE",
        }
        assert validate_rip(graph).valid

    def test_construction_is_deterministic(self, seven_cliques):
        assert ltrip(seven_cliques) == ltrip(seven_cliques)
        assert layered_by_hand(WORKED_LAYER) == layered_by_hand(WORKED_LAYER)

    def test_sepsets_are_never_widened(self, seven_cliques):
        # Sepsets must equal the union of layer contributions exactly, each
        # variable's tree recomputed here from its layer alone.
        for clusters in (seven_cliques, [cl("AB"), cl("BC"), cl("AC")]):
            graph = ltrip(clusters)
            overlap = overlaps(clusters)
            contributions = {}
            for variable in graph.variables():
                members = [i for i, c in enumerate(clusters) if variable in c.vars]
                for edge in _layer_tree(members, overlap):
                    contributions.setdefault(edge, set()).add(variable)
            assert {s.clusters: set(s.vars) for s in graph.sepsets} == contributions


class TestBetheConstruction:
    def test_empty_input_is_the_empty_graph(self):
        assert_the_empty_graph(bethe_graph([]))

    def test_seven_region_hubs(self, seven_cliques):
        graph = bethe_graph(seven_cliques)
        originals, hubs = graph.clusters[:5], graph.clusters[5:]
        assert tuple(originals) == tuple(seven_cliques)
        assert [names_of(h.vars) for h in hubs] == list("ABCDEFG")
        # one edge per (cluster, member variable), each a single-variable sepset
        assert len(graph.sepsets) == sum(len(c.vars) for c in seven_cliques)
        assert all(len(s.vars) == 1 for s in graph.sepsets)
        assert validate_rip(graph).valid

    def test_hub_edges_point_at_the_right_hub(self, seven_cliques):
        graph = bethe_graph(seven_cliques)
        for sepset in graph.sepsets:
            original, hub = sepset.clusters
            (variable,) = sepset.vars
            assert graph.clusters[hub].vars == frozenset({variable})
            assert variable in graph.clusters[original].vars


class TestRipValidation:
    def test_hand_drawn_graph_is_valid(self, seven_graph):
        report = validate_rip(seven_graph)
        assert report.valid
        assert bool(report)
        assert report.violations == ()

    def test_single_cluster_no_edges_is_valid(self):
        assert validate_rip(ClusterGraph((cl("AB"),), ())).valid

    def test_widened_sepset_creates_two_paths(self, seven_graph):
        # Adding E to the (2,4) sepset gives E's clusters {2,3,4} three
        # carrying edges: a cycle, hence two paths between some pair.
        sepsets = tuple(
            Sepset(s.clusters, s.vars | {E}) if s.clusters == (2, 4) else s
            for s in seven_graph.sepsets
        )
        report = validate_rip(ClusterGraph(seven_graph.clusters, sepsets))
        assert not report.valid
        assert any("E" in v and "tree" in v for v in report.violations)

    def test_missing_connection_is_reported(self):
        graph = ClusterGraph((cl("AB"), cl("AC")), ())
        report = validate_rip(graph)
        assert not report.valid
        assert any("A" in v for v in report.violations)

    def test_empty_sepset_is_reported(self):
        graph = ClusterGraph(
            (cl("AB"), cl("AC")),
            (Sepset((0, 1), frozenset()), ),
        )
        assert any("empty" in v for v in validate_rip(graph).violations)

    def test_stray_sepset_variable_is_reported(self):
        graph = ClusterGraph(
            (cl("AB"), cl("AC")),
            (Sepset((0, 1), frozenset({A, B})),),
        )
        report = validate_rip(graph)
        assert any("not shared" in v for v in report.violations)

    def test_random_layered_graphs_satisfy_rip(self):
        rng = random.Random(424242)
        pool = VARS
        for _ in range(100):
            raw = []
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(1, min(5, len(pool)))
                raw.append(frozenset(rng.sample(pool, size)))
            # drop strict subsets and duplicates, keeping first occurrences
            maximal = [s for s in raw if not any(s < t for t in raw)]
            seen, clusters = set(), []
            for s in maximal:
                if s not in seen:
                    seen.add(s)
                    clusters.append(Cluster(s))
            assert validate_rip(ltrip(clusters)).valid
            assert validate_rip(bethe_graph(clusters)).valid

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_reports_match_a_per_variable_scan(self, data):
        graph = data.draw(rip_graphs())
        assert validate_rip(graph) == per_variable_scan(graph)


def per_variable_scan(graph):
    """`validate_rip` as it was first written: every cluster and every
    sepset scanned once per variable.  The reference for the indexed check.
    """
    violations = []
    for sepset in graph.sepsets:
        i, j = sepset.clusters
        if not sepset.vars:
            violations.append(f"sepset ({i},{j}) is empty")
            continue
        stray = sepset.vars - (graph.clusters[i].vars & graph.clusters[j].vars)
        if stray:
            names = ",".join(v.name for v in sorted(stray))
            violations.append(
                f"sepset ({i},{j}) carries {{{names}}} not shared by both endpoints"
            )
    for variable in graph.variables():
        holders = {i for i, c in enumerate(graph.clusters) if variable in c.vars}
        edges = [
            s.clusters
            for s in graph.sepsets
            if variable in s.vars and s.clusters[0] in holders and s.clusters[1] in holders
        ]
        if len(edges) != len(holders) - 1:
            violations.append(
                f"variable {variable.name}: {len(holders)} clusters hold it but "
                f"{len(edges)} sepset edges carry it (a tree needs {len(holders) - 1})"
            )
        if not connected(holders, edges):
            violations.append(
                f"variable {variable.name}: the clusters holding it are not "
                f"connected by the sepsets carrying it"
            )
    return RipReport(tuple(violations))


def connected(nodes, edges):
    if not nodes:
        return True
    adjacency = {n: [] for n in nodes}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    stack = [next(iter(nodes))]
    seen = set(stack)
    while stack:
        for peer in adjacency[stack.pop()]:
            if peer not in seen:
                seen.add(peer)
                stack.append(peer)
    return seen == nodes


@st.composite
def rip_graphs(draw):
    """Cluster graphs over A..G, valid and broken.

    Either the layered or Bethe graph of drawn clusters, with some of
    its sepsets dropped, emptied or widened, or drawn clusters joined by
    drawn sepsets.  Widened and drawn sepsets may carry variables an
    endpoint lacks or no cluster holds; dropped edges disconnect a
    layer, added ones close cycles.
    """
    names = st.frozensets(st.sampled_from(VARS), min_size=1, max_size=5)
    scopes = draw(st.lists(names, min_size=1, max_size=7, unique=True))
    clusters = [Cluster(scope) for scope in scopes]
    if draw(st.booleans()) and not any(a < b for a in scopes for b in scopes):
        built = draw(st.sampled_from([ltrip, bethe_graph]))(clusters)
        clusters = list(built.clusters)
        sepsets = []
        for sepset in built.sepsets:
            edit = draw(st.sampled_from(["keep", "keep", "drop", "empty", "widen"]))
            if edit == "empty":
                sepset = Sepset(sepset.clusters, frozenset())
            elif edit == "widen":
                sepset = Sepset(sepset.clusters, sepset.vars | {draw(st.sampled_from(VARS))})
            if edit != "drop":
                sepsets.append(sepset)
    else:
        pairs = [(i, j) for j in range(len(clusters)) for i in range(j)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        sepsets = []
        for i, j in chosen:
            shared = sorted(clusters[i].vars & clusters[j].vars)
            carried = draw(st.frozensets(st.sampled_from(shared))) if shared else frozenset()
            if draw(st.booleans()):
                carried |= draw(st.frozensets(st.sampled_from(VARS), max_size=2))
            sepsets.append(Sepset((i, j), carried))
    return ClusterGraph(tuple(clusters), tuple(sepsets))


class TestDotExport:
    def test_empty_graph_is_header_and_footer(self):
        text = export_dot(ClusterGraph((), ()))
        assert text == "graph cluster_graph {\n  node [shape=ellipse];\n}\n"

    def test_hand_drawn_graph_rendering(self, seven_graph):
        text = export_dot(seven_graph)
        lines = text.splitlines()
        assert lines[0] == "graph cluster_graph {"
        assert '  c1 [label="A,C,D,F"];' in lines
        assert '  c0 -- c1 [label="A,F"];' in lines
        assert '  c3 -- c4 [label="D,E"];' in lines
        assert lines[-1] == "}"
        assert text.endswith("}\n")
        # five node statements, six edge statements
        assert sum(1 for l in lines if "--" in l) == 6
        assert sum(1 for l in lines if "label" in l and "--" not in l) == 5

    def test_labels_escape_quotes_and_backslashes(self):
        quoted, slashed, x, y = make_variables(['a"b', "d\\", "x", "y"])
        graph = ltrip(
            [
                Cluster(frozenset({quoted, slashed, x})),
                Cluster(frozenset({quoted, slashed, y})),
            ]
        )
        lines = export_dot(graph).splitlines()
        assert '  c0 [label="a\\"b,d\\\\,x"];' in lines
        assert '  c0 -- c1 [label="a\\"b,d\\\\"];' in lines

    def test_edges_are_sorted_by_endpoints(self, seven_graph):
        text = export_dot(seven_graph)
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert edge_lines == sorted(edge_lines)


# -- ltrip against the dense-matrix build it replaced -------------------------


def matrix_connection_weights(clusters):
    """`connection_weights` as it was: one layer's dense weight matrix."""
    n = len(clusters)
    overlap = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            overlap[i][j] = overlap[j][i] = len(clusters[i].vars & clusters[j].vars)
    m = max(map(max, overlap), default=0)
    bonus = [
        sum(1 for j in range(n) if j != i and overlap[i][j] == m) for i in range(n)
    ]
    return tuple(
        tuple(0 if i == j else overlap[i][j] + bonus[i] + bonus[j] for j in range(n))
        for i in range(n)
    )


def matrix_max_spanning_tree(ids, weights):
    """`max_spanning_tree` as it was: Kruskal on a dense matrix."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate node ids: {ids}")
    widths = [len(row) for row in weights]
    if widths != [len(ids)] * len(ids):
        raise ValueError(
            f"weight matrix shape does not fit {len(ids)} nodes: rows of "
            f"lengths {widths}"
        )
    candidates = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            low, high = sorted((ids[a], ids[b]))
            candidates.append((-float(weights[a][b]), low, high))
    candidates.sort()
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for _, low, high in candidates:
        root_low, root_high = find(low), find(high)
        if root_low != root_high:
            parent[root_low] = root_high
            tree.append((low, high))
    return tree


def matrix_ltrip(clusters):
    """`ltrip` as it was: each layer's matrix, then its tree."""
    clusters = tuple(clusters)
    holders = {}
    for i, cluster in enumerate(clusters):
        for variable in cluster.vars:
            holders.setdefault(variable, []).append(i)
    for i, a in enumerate(clusters):
        for j in holders[min(a.vars)]:
            if i != j and a.vars <= clusters[j].vars:
                raise ValueError(
                    f"cluster {i} ({{{a.label()}}}) is contained in cluster {j} "
                    f"({{{clusters[j].label()}}}); fold subsets into supersets "
                    f"first (build_factors does)"
                )
    sepset_vars = {}
    for variable in sorted(holders):
        members = holders[variable]
        if len(members) < 2:
            continue
        weights = matrix_connection_weights([clusters[i] for i in members])
        for edge in matrix_max_spanning_tree(members, weights):
            sepset_vars.setdefault(edge, set()).add(variable)
    sepsets = tuple(
        Sepset(edge, frozenset(vars_)) for edge, vars_ in sorted(sepset_vars.items())
    )
    return ClusterGraph(clusters, sepsets)


def first_round_clusters(problem, size):
    """The clusters a pipeline's first round builds its graph over."""
    cliques = maximal_cliques(problem)
    if not problem.givens:
        anchor = anchor_largest_clique(problem, cliques)
        problem = dataclasses.replace(problem, givens=anchor)
    return purged_clusters(problem, cliques, size)


class TestLtripMatchesTheMatrixBuild:
    """Weights read off the variable index give the graphs the dense
    per-layer matrix gave, and the same refusals."""

    def test_random_cluster_sets(self):
        rng = random.Random(31)
        pool = make_variables([f"v{i}" for i in range(12)])
        for trial in range(1000):
            raw = [
                frozenset(rng.sample(pool, rng.randint(1, 6)))
                for _ in range(rng.randint(1, 16))
            ]
            if trial % 4:  # most sets subset-free, the rest as drawn
                raw = [s for s in raw if not any(s < t for t in raw)]
            clusters = [Cluster(s) for s in dict.fromkeys(raw)]
            try:
                expected = matrix_ltrip(clusters)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    ltrip(clusters)
                continue
            assert ltrip(clusters) == expected

    @pytest.mark.parametrize("size", [3, 5, 9])
    def test_split_sudoku_rounds(self, size):
        puzzles = Path(clusterbp.__file__).parent / "data" / "puzzles"
        texts = [p.read_text() for p in sorted(puzzles.glob("*.txt"))]
        for text in texts + ["." * 81]:
            clusters = first_round_clusters(sudoku_problem(text, 9), size)
            assert ltrip(clusters) == matrix_ltrip(clusters)

    def test_map250(self):
        clusters = first_round_clusters(random_planar_map(25, 10, seed=3), None)
        assert ltrip(clusters) == matrix_ltrip(clusters)
