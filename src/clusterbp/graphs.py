"""Cluster-graph construction and structural validation.

A cluster graph packages clusters (sets of variables) with sepsets (the
variable sets messages travel over).  Graphs are built either layer by
layer — one maximum spanning tree per variable, superimposed into shared
edges — or as a Bethe graph, the hub-and-spoke shape a factor graph
takes in cluster form.  `validate_rip` checks the running-intersection
property from first principles, independent of how a graph was built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from clusterbp.factors import Variable


@dataclass(frozen=True)
class Cluster:
    """A node of a cluster graph: a non-empty variable set, numbered by position."""

    vars: frozenset[Variable]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", frozenset(self.vars))
        if not self.vars:
            raise ValueError("a cluster has no variables")

    def sorted_vars(self) -> tuple[Variable, ...]:
        return tuple(sorted(self.vars))

    def label(self) -> str:
        return ",".join(v.name for v in self.sorted_vars())

    def __repr__(self) -> str:
        return f"Cluster({{{self.label()}}})"


@dataclass(frozen=True)
class Sepset:
    """An edge of a cluster graph: two cluster positions and shared variables.

    Endpoints are normalized to (low, high), and the variable set must
    not be empty: no message can travel over an empty sepset.
    """

    clusters: tuple[int, int]
    vars: frozenset[Variable]

    def __post_init__(self) -> None:
        i, j = self.clusters
        if i == j:
            raise ValueError(f"sepset endpoints must differ, got ({i}, {j})")
        object.__setattr__(self, "clusters", (min(i, j), max(i, j)))
        object.__setattr__(self, "vars", frozenset(self.vars))
        if not self.vars:
            raise ValueError(f"sepset {self.clusters} carries no variable")

    def label(self) -> str:
        return ",".join(v.name for v in sorted(self.vars))

    def __repr__(self) -> str:
        return f"Sepset({self.clusters}, {{{self.label()}}})"


@dataclass(frozen=True)
class ClusterGraph:
    """An undirected graph of clusters joined by sepsets.

    The two fields are the whole record: a cluster is numbered by its
    position in `clusters`, its neighbours are the other ends of the
    sepsets that name it, and no neighbour list is kept beside them.
    It does not record which builder made it.  Construction refuses an
    endpoint out of range, a second sepset between the same clusters and
    a sepset variable that an endpoint lacks; `validate_rip` checks RIP.
    """

    clusters: tuple[Cluster, ...]
    sepsets: tuple[Sepset, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(self, "sepsets", tuple(self.sepsets))
        seen: set[tuple[int, int]] = set()
        for sepset in self.sepsets:
            i, j = sepset.clusters
            if i < 0 or j >= len(self.clusters):
                raise ValueError(f"sepset {sepset.clusters} points past the clusters")
            if sepset.clusters in seen:
                raise ValueError(f"duplicate sepset between clusters {i} and {j}")
            seen.add(sepset.clusters)
            for end in sepset.clusters:
                cluster = self.clusters[end]
                if not sepset.vars <= cluster.vars:
                    raise ValueError(
                        f"sepset {sepset.clusters} carries "
                        f"{min(sepset.vars - cluster.vars)}, but cluster {end} "
                        f"covers only {{{cluster.label()}}}"
                    )

    def variables(self) -> tuple[Variable, ...]:
        return tuple(sorted({v for c in self.clusters for v in c.vars}))


def ltrip(clusters: Sequence[Cluster]) -> ClusterGraph:
    """Build a cluster graph one variable layer at a time.

    For each variable, the clusters holding it form a layer, joined by a
    maximum spanning tree whose every edge carries that variable in its
    sepset.  An edge weighs its overlap (the variables its endpoints
    share) plus, for each endpoint, how many of its layer edges reach the
    layer's largest overlap: the bonus steers trees through the
    best-connected clusters.  Kruskal takes the heaviest edge first, ties
    in ascending (low, high) order.  Overlaps are counted once, off the
    variable index.  Sepsets are exact unions of layer contributions, the
    per-variable trees make the running-intersection property hold by
    construction, and a variable's tree is the sepsets that carry it.

    Clusters are numbered by their input positions.  Input clusters must
    already be subset-free, as `build_factors` leaves them; a cluster
    contained in another is an error, checked against the holders of
    its smallest variable, as any superset is one.  No cluster gives the
    empty graph.
    """
    clusters = tuple(clusters)
    holders: dict[Variable, list[int]] = {}  # variable -> ascending positions
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
    overlap: Counter[tuple[int, int]] = Counter()  # (low, high) -> shared count
    for members in holders.values():
        overlap.update(itertools.combinations(members, 2))
    sepset_vars: dict[tuple[int, int], set[Variable]] = {}
    for variable in sorted(holders):
        for edge in _layer_tree(holders[variable], overlap):
            sepset_vars.setdefault(edge, set()).add(variable)
    sepsets = tuple(
        Sepset(edge, frozenset(vars_)) for edge, vars_ in sorted(sepset_vars.items())
    )
    return ClusterGraph(clusters, sepsets)


def _layer_tree(
    members: Sequence[int], overlap: Mapping[tuple[int, int], int]
) -> list[tuple[int, int]]:
    """One layer's maximum spanning tree under `ltrip`'s weight rule.

    `members` are the layer's positions, ascending, and `overlap` maps
    each (low, high) pair to its shared-variable count.  Edges come back
    as (low, high) pairs in the order taken.
    """
    edges = list(itertools.combinations(members, 2))
    top = max((overlap[edge] for edge in edges), default=0)
    bonus = Counter(end for edge in edges if overlap[edge] == top for end in edge)
    edges.sort(key=lambda e: (-(overlap[e] + bonus[e[0]] + bonus[e[1]]), e))
    root = {i: i for i in members}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    tree = []
    for low, high in edges:
        root_low, root_high = find(low), find(high)
        if root_low != root_high:
            root[root_low] = root_high
            tree.append((low, high))
    return tree


def bethe_graph(clusters: Sequence[Cluster]) -> ClusterGraph:
    """The factor-graph topology, expressed as a cluster graph.

    Every variable gets a fresh single-variable hub cluster appended
    after the originals; each original cluster links to the hub of every
    variable it contains.  All traffic between original clusters funnels
    through single-variable sepsets, which trivially satisfies the
    running-intersection property — and is exactly what limits how much
    context this topology can carry.  No cluster gives the empty graph.
    """
    clusters = tuple(clusters)
    nodes = list(clusters)
    hub_of: dict[Variable, int] = {}
    for variable in sorted({v for c in clusters for v in c.vars}):
        hub_of[variable] = len(nodes)
        nodes.append(Cluster(frozenset({variable})))
    sepsets = [
        Sepset((i, hub_of[variable]), frozenset({variable}))
        for i, cluster in enumerate(clusters)
        for variable in cluster.sorted_vars()
    ]
    sepsets.sort(key=lambda s: s.clusters)
    return ClusterGraph(tuple(nodes), tuple(sepsets))


@dataclass(frozen=True)
class RipReport:
    """Outcome of a running-intersection check: empty means valid."""

    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.valid


def validate_rip(graph: ClusterGraph) -> RipReport:
    """Check the running-intersection property from first principles.

    For every variable, the sepset edges carrying it must form a tree
    spanning exactly the clusters that contain it.  That each sepset is
    non-empty and held by both endpoints, `ClusterGraph` already checked.
    Judges only the finished graph — never how it was built — so it
    serves as an independent check on any construction.
    """
    holders: dict[Variable, set[int]] = {}
    for i, cluster in enumerate(graph.clusters):
        for variable in cluster.vars:
            holders.setdefault(variable, set()).add(i)
    carried: dict[Variable, list[tuple[int, int]]] = {v: [] for v in holders}
    violations: list[str] = []
    for sepset in graph.sepsets:
        for variable in sepset.vars:
            carried[variable].append(sepset.clusters)
    for variable in sorted(holders):
        held, edges = holders[variable], carried[variable]
        if len(edges) != len(held) - 1:
            violations.append(
                f"variable {variable.name}: {len(held)} clusters hold it but "
                f"{len(edges)} sepset edges carry it (a tree needs {len(held) - 1})"
            )
        if not _connected(held, edges):
            violations.append(
                f"variable {variable.name}: the clusters holding it are not "
                f"connected by the sepsets carrying it"
            )
    return RipReport(tuple(violations))


def _connected(nodes: set[int], edges: Sequence[tuple[int, int]]) -> bool:
    adjacency: dict[int, list[int]] = {n: [] for n in nodes}
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


def export_dot(graph: ClusterGraph) -> str:
    """Render the graph as DOT text with escaped labels, in a fixed order."""
    lines = ["graph cluster_graph {", "  node [shape=ellipse];"]
    for i, cluster in enumerate(graph.clusters):
        lines.append(f"  c{i} [label={_quoted(cluster.label())}];")
    for sepset in sorted(graph.sepsets, key=lambda s: s.clusters):
        i, j = sepset.clusters
        lines.append(f"  c{i} -- c{j} [label={_quoted(sepset.label())}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
