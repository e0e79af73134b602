"""Graph-coloring problems and their translation into cluster potentials.

A coloring problem is variables, disagreement edges, a shared label
count, and optional fixed labels.  Builders turn Sudoku grids and map
adjacency lists into problems; the machinery here enumerates maximal
cliques, optionally splits oversized ones, compiles cliques into
all-different potential tables over each variable's domain (the labels
its given neighbours leave), with an optional symmetry-breaking bias,
and verifies decoded assignments.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from clusterbp.factors import (
    ContradictionError,
    SparseTable,
    Variable,
    _is_int,
    make_variables,
)
from clusterbp.graphs import Cluster

# Most entries one compiled table may enumerate.  A blank 9x9 row,
# P(9, 9) = 362,880, fits; a 10-clique over 10 labels does not.
MAX_TABLE_ENTRIES = 1_000_000


@dataclass(frozen=True)
class ColoringProblem:
    """A k-coloring instance: adjacent variables must take distinct labels.

    `k` and every given label are ints, not bools; anything else is a
    ValueError, as is a label outside 0..k-1.
    """

    variables: tuple[Variable, ...]
    edges: frozenset[frozenset[Variable]]
    k: int
    givens: Mapping[Variable, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "edges", frozenset(frozenset(e) for e in self.edges)
        )
        object.__setattr__(self, "givens", dict(self.givens))
        if not _is_int(self.k) or self.k < 1:
            raise ValueError(f"label count must be >= 1 and an int, got {self.k!r}")
        if len({v.id for v in self.variables}) != len(self.variables):
            raise ValueError("duplicate variable ids")
        if len({v.name for v in self.variables}) != len(self.variables):
            raise ValueError("duplicate variable names")
        members = set(self.variables)
        givens = self.givens
        clashes = []
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edge {set(edge)} must join exactly two variables")
            if not edge <= members:
                raise ValueError(f"edge {set(edge)} mentions unknown variables")
            a, b = edge
            if a in givens and givens.get(b) == givens[a]:
                clashes.append(edge)
        for variable, label in givens.items():
            if variable not in members:
                raise ValueError(f"given for unknown variable {variable}")
            if not _is_int(label) or not 0 <= label < self.k:
                raise ValueError(
                    f"given {variable.name}={label!r} is not an int or lies "
                    f"outside 0..{self.k - 1}"
                )
        if clashes:
            # The smallest clash, so the message does not depend on the
            # hash seed that orders the edge set.
            a, b = min(sorted(edge) for edge in clashes)
            raise ContradictionError(
                f"givens assign {a.name} and {b.name} the same label "
                f"{givens[a]} across an edge"
            )


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking an assignment against a problem."""

    violated_edges: tuple[tuple[Variable, Variable], ...]
    given_mismatches: tuple[tuple[Variable, int, int], ...]

    @property
    def valid(self) -> bool:
        return not self.violated_edges and not self.given_mismatches

    def __bool__(self) -> bool:
        return self.valid


def maximal_cliques(problem: ColoringProblem) -> list[Cluster]:
    """Every maximal clique of the disagreement graph, deterministically.

    Bron-Kerbosch with pivoting on bitmasks: bit p stands for
    `problem.variables[p]`, and the pivot is the candidate or seen
    vertex with the most candidate neighbours.  The result is sorted by
    the cliques' sorted variable tuples.
    """
    variables = problem.variables
    if not variables:
        return []
    position = {v: p for p, v in enumerate(variables)}
    adjacency = [0] * len(variables)
    for edge in problem.edges:
        a, b = map(position.__getitem__, edge)
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    found: list[int] = []

    def expand(grown: int, candidates: int, seen: int) -> None:
        if not candidates | seen:
            found.append(grown)
            return
        most = -1
        for u in _bits(candidates | seen):
            count = (candidates & adjacency[u]).bit_count()
            if count > most:
                most, pivot = count, u
        for v in _bits(candidates & ~adjacency[pivot]):
            bit = 1 << v
            expand(grown | bit, candidates & adjacency[v], seen & adjacency[v])
            candidates &= ~bit
            seen |= bit

    expand(0, (1 << len(variables)) - 1, 0)
    cliques = [[variables[p] for p in _bits(mask)] for mask in found]
    cliques.sort(key=sorted)
    return [Cluster(frozenset(vars_)) for vars_ in cliques]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def split_cliques(cliques: Sequence[Cluster], size: int) -> list[Cluster]:
    """Break cliques larger than `size` into covering sub-cliques.

    Each oversized clique is replaced by a greedy max-coverage cover:
    each pick is the size-combination of its sorted variables that
    covers the most pairs no earlier pick covers, ties to the
    lexicographically first; parts come in pick order.  Pairs are
    bitmasks, and a pick scans all C(n, size) combinations of n members.
    Smaller cliques pass through, in input order, and repeats are
    dropped.  `purged_clusters` splits each round's free scopes here and
    then drops any scope that lies inside another.
    """
    if not _is_int(size) or size < 2:
        raise ValueError(f"cluster size must be >= 2 and an int, got {size!r}")
    chosen: list[frozenset[Variable]] = []
    for clique in cliques:
        members = clique.sorted_vars()
        n = len(members)
        if n <= size:
            chosen.append(clique.vars)
            continue
        masks = [
            (combo, sum(1 << i * n + j for i, j in itertools.combinations(combo, 2)))
            for combo in itertools.combinations(range(n), size)
        ]
        uncovered = sum(1 << i * n + j for i, j in itertools.combinations(range(n), 2))
        while uncovered:
            # max keeps the first, so the lexicographically first, of ties.
            combo, mask = max(masks, key=lambda m: (m[1] & uncovered).bit_count())
            chosen.append(frozenset(members[i] for i in combo))
            uncovered &= ~mask
    return [Cluster(vars_) for vars_ in dict.fromkeys(chosen)]


def sudoku_problem(text: str, n: int = 9) -> ColoringProblem:
    """Parse an n×n Sudoku grid into a coloring problem.

    The text holds n*n characters row-major — digits 1..n for givens,
    '0' or '.' for blanks — with all whitespace ignored.  Cells become
    variables (named A..P for the 4×4 board, r{i}c{j} for 9×9), labels
    are digits minus one, and every row, column, and box is a clique of
    disagreement edges.  Each side's board is built once, so problems of
    one side share its `Variable` objects and edge frozensets: those are
    identical, not only equal.
    """
    if n not in (4, 9):
        raise ValueError(f"grid side must be 4 or 9, got {n}")
    cells = "".join(text.split())
    if len(cells) != n * n:
        raise ValueError(f"expected {n * n} cells, got {len(cells)}")
    digits = "".join(str(d) for d in range(1, n + 1))
    variables, edges = _board(n)
    givens: dict[Variable, int] = {}
    for i, char in enumerate(cells):
        if char in ("0", "."):
            continue
        if char not in digits:
            raise ValueError(f"cell {i}: {char!r} is not a digit 1..{n} or blank")
        givens[variables[i]] = int(char) - 1
    return ColoringProblem(variables, edges, k=n, givens=givens)


@functools.cache
def _board(n: int) -> tuple[tuple[Variable, ...], frozenset[frozenset[Variable]]]:
    """The n×n board's cell variables and its disagreement edges."""
    if n == 4:
        names = [chr(ord("A") + i) for i in range(16)]
    else:
        names = [f"r{i // n + 1}c{i % n + 1}" for i in range(n * n)]
    variables = tuple(make_variables(names))
    # Every pair inside each row, column and box; a pair sharing two
    # units is one edge.
    box = math.isqrt(n)
    rows = [range(r * n, (r + 1) * n) for r in range(n)]
    cols = [range(c, n * n, n) for c in range(n)]
    boxes = [
        [(b // box * box + i // box) * n + b % box * box + i % box for i in range(n)]
        for b in range(n)
    ]
    edges = frozenset(
        frozenset(pair)
        for unit in rows + cols + boxes
        for pair in itertools.combinations([variables[i] for i in unit], 2)
    )
    return variables, edges


def format_sudoku(problem: ColoringProblem, assignment: Mapping[Variable, int]) -> str:
    """Render a (possibly partial) assignment as grid text, row by row."""
    n = math.isqrt(len(problem.variables))
    rows = []
    for r in range(n):
        row = problem.variables[r * n : (r + 1) * n]
        rows.append(
            "".join(
                str(assignment[v] + 1) if v in assignment else "." for v in row
            )
        )
    return "\n".join(rows) + "\n"


def parse_adjacency(text: str, k: int = 4) -> ColoringProblem:
    """Parse "name name" border lines into a coloring problem.

    One edge per line as two whitespace-separated names; a line with a
    single name declares an isolated region; '#' starts a comment.
    Variables are sorted by name and numbered in that order.
    """
    names: set[str] = set()
    name_edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            names.add(parts[0])
            continue
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected one or two names, got {len(parts)}"
            )
        a, b = parts
        if a == b:
            raise ValueError(f"line {lineno}: region {a!r} borders itself")
        names.update(parts)
        name_edges.add((min(a, b), max(a, b)))
    variables = tuple(make_variables(sorted(names)))
    by_name = {v.name: v for v in variables}
    edges = frozenset(
        frozenset({by_name[a], by_name[b]}) for a, b in name_edges
    )
    return ColoringProblem(variables, edges, k=k)


def format_adjacency(problem: ColoringProblem) -> str:
    """Render a problem back into adjacency text (sorted, one edge a line)."""
    lines = []
    connected: set[Variable] = set()
    for edge in sorted(problem.edges, key=lambda e: tuple(sorted(v.name for v in e))):
        a, b = sorted(edge, key=lambda v: v.name)
        connected.update((a, b))
        lines.append(f"{a.name} {b.name}")
    for variable in problem.variables:
        if variable not in connected:
            lines.append(variable.name)
    return "\n".join(lines) + "\n"


def build_factors(
    problem: ColoringProblem,
    cliques: Sequence[Cluster],
    bias: Mapping[Variable, Sequence[float]] | None = None,
    delta: float = 0.01,
    *,
    size: int | None = None,
) -> list[tuple[Cluster, SparseTable]]:
    """Compile cliques into subset-free all-different tables over domains.

    One table is built per `purged_clusters(problem, cliques, size)`
    cluster, so a fully-given problem compiles to an empty list.  One
    pass over the edges reads the givens: each removes its label from
    the domain of every free neighbour (node consistency, which leaves
    the joint unchanged), and an edge whose free ends no one scope holds
    is refused, since the compiled problem would silently drop its
    constraint.  A table's keys are its scope's sorted domains with no
    label used twice, in lexicographic order.  `bias` optionally assigns
    each variable a per-label preference, applied once per table that
    holds it as a multiplicative nudge of 1 + delta * preference —
    strong enough to break ties after convergence, weak enough to never
    beat a hard zero.  Before a table's keys are built, their count
    P(labels its domains hold, scope size) is checked: 0 is a
    ContradictionError, over MAX_TABLE_ENTRIES a ValueError.  A nudge
    that is negative, NaN or inf, or nudges whose product is inf, are a
    ValueError too.  An emptied domain or an empty table is a
    ContradictionError naming the variable or the clique.
    """
    clusters = purged_clusters(problem, cliques, size)
    scopes = [cluster.sorted_vars() for cluster in clusters]
    holders: dict[Variable, int] = {}  # variable -> bitmask of its scopes
    for i, scope in enumerate(scopes):
        for variable in scope:
            holders[variable] = holders.get(variable, 0) | 1 << i
    domains = {variable: set(range(problem.k)) for variable in holders}
    missing = []
    for a, b in problem.edges:
        if a in problem.givens:
            a, b = b, a  # b is the given end, if either is
        if b not in problem.givens:
            if not holders.get(a, 0) & holders.get(b, 0):
                missing.append((a, b))
        elif a in domains:
            domains[a].discard(problem.givens[b])
        elif a not in problem.givens:
            missing.append((a, b))
    if missing:
        a, b = min(sorted(edge) for edge in missing)
        raise ValueError(
            f"edge {a.name}-{b.name} is not inside any clique; "
            f"the cover is incomplete"
        )
    nudges: dict[Variable, tuple[float, ...]] = {}
    for variable, domain in domains.items():
        if not domain:
            raise ContradictionError(
                f"the givens around {variable.name} take all {problem.k} labels"
            )
        preference = None if bias is None else bias.get(variable)
        if preference is None:
            continue
        if len(preference) != problem.k:
            raise ValueError(
                f"bias for {variable.name} lists {len(preference)} "
                f"weights; expected {problem.k}"
            )
        nudge = tuple(1.0 + delta * w for w in preference)
        if math.inf in nudge:
            raise ValueError(
                f"bias delta {delta} overflows the nudge of "
                f"{variable.name}; use a smaller bias"
            )
        if not all(w >= 0.0 for w in nudge):  # refuses NaN too
            raise ValueError(
                f"the nudges of {variable.name}, {nudge}, must be finite and >= 0"
            )
        nudges[variable] = nudge
    out: list[tuple[Cluster, SparseTable]] = []
    for cluster, scope in zip(clusters, scopes):
        pooled = set().union(*(domains[v] for v in scope))
        count = math.perm(len(pooled), len(scope))
        if not count:
            raise ContradictionError(
                f"clique {{{cluster.label()}}} needs {len(scope)} distinct "
                f"labels but its domains hold only {len(pooled)}"
            )
        if count > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"clique {{{cluster.label()}}} would compile {count:,} "
                f"entries, over the limit of {MAX_TABLE_ENTRIES:,}; "
                f"split it into smaller clusters"
            )
        keys = _distinct_keys([sorted(domains[v]) for v in scope])
        weights = [(p, nudges[v]) for p, v in enumerate(scope) if v in nudges]
        if weights:
            entries = {}
            for key in keys:
                weight = math.prod(w[key[p]] for p, w in weights)
                if weight == math.inf:
                    raise ValueError(
                        f"bias delta {delta} overflows a weight of clique "
                        f"{{{cluster.label()}}}; use a smaller bias"
                    )
                if weight:  # a zero nudge, or underflow, makes no entry
                    entries[key] = weight
        else:
            entries = dict.fromkeys(keys, 1.0)
        if not entries:
            raise ContradictionError(
                f"clique {{{cluster.label()}}} has no assignment its "
                f"domains allow"
            )
        table = SparseTable._trusted(scope, (problem.k,) * len(scope), entries)
        out.append((cluster, table))
    return out


def _distinct_keys(domains: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every key taking position i from sorted `domains[i]`, no label twice.

    Keys come in lexicographic order, as `itertools.permutations` gives
    them over a shared label range.
    """
    keys: list[tuple[int, ...]] = [()]
    for domain in domains:
        keys = [key + (x,) for key in keys for x in domain if x not in key]
    return keys


def purged_clusters(
    problem: ColoringProblem, cliques: Sequence[Cluster], size: int | None = None
) -> list[Cluster]:
    """A round's clusters: the cliques minus the givens, split, subset-free.

    The givens are conditioned out of every clique and emptied scopes
    vanish.  When `size` is set, `split_cliques` covers each free scope
    of more than `size` variables.  Walking the rest largest first, then
    by position, a scope inside a kept scope that holds its smallest
    variable (as any superset must) is dropped, and otherwise kept; kept
    clusters come back in order.  `build_factors` builds one table per
    cluster.  Nothing here checks the givens, so unsatisfiable problems
    still get their cluster shape.
    """
    scopes = (clique.vars.difference(problem.givens) for clique in cliques)
    clusters = [Cluster(scope) for scope in scopes if scope]
    if size is not None:
        clusters = split_cliques(clusters, size)
    order = sorted(range(len(clusters)), key=lambda i: (-len(clusters[i].vars), i))
    kept: list[int] = []
    holders: dict[Variable, list[int]] = {}  # variable -> kept scopes
    for i in order:
        scope = clusters[i].vars
        if not any(scope <= clusters[j].vars for j in holders.get(min(scope), ())):
            kept.append(i)
            for variable in scope:
                holders.setdefault(variable, []).append(i)
    return [clusters[i] for i in sorted(kept)]


def label_preferences(
    problem: ColoringProblem, seed: int = 0
) -> dict[Variable, tuple[int, ...]]:
    """A deterministic pseudo-random label preference per variable.

    Each variable gets a permutation of 0..k-1 drawn from its own
    seeded stream, so preferences are reproducible and uncorrelated
    across neighbors — which is what lets a slight bias break the label
    symmetry without fighting the constraints.
    """
    prefs: dict[Variable, tuple[int, ...]] = {}
    for variable in problem.variables:
        rng = random.Random(seed * 1_000_003 + variable.id)
        order = list(range(problem.k))
        rng.shuffle(order)
        prefs[variable] = tuple(order)
    return prefs


def anchor_largest_clique(
    problem: ColoringProblem, cliques: Sequence[Cluster]
) -> dict[Variable, int]:
    """The givens decimation starts from: an anchor when none are given.

    Without givens every proper coloring relabels into one that takes
    labels 0,1,2,... on one largest clique, so pinning that clique loses
    no solution up to relabelling and removes the tie between them.
    Givens fix labels a relabelling would move, so a problem that has
    any gets them back unchanged.
    """
    if not cliques:
        raise ValueError("no cliques to anchor")
    largest = min(cliques, key=lambda c: (-len(c.vars), c.sorted_vars()))
    if len(largest.vars) > problem.k:
        raise ContradictionError(
            f"clique {{{largest.label()}}} has {len(largest.vars)} mutually "
            f"adjacent variables but only {problem.k} labels exist"
        )
    if problem.givens:
        return dict(problem.givens)
    return {v: label for label, v in enumerate(largest.sorted_vars())}


def verify_coloring(
    problem: ColoringProblem, assignment: Mapping[Variable, int]
) -> VerifyReport:
    """Check that an assignment colors properly and honors the givens."""
    missing = [v for v in problem.variables if v not in assignment]
    if missing:
        names = ",".join(v.name for v in missing[:5])
        raise ValueError(f"assignment misses {len(missing)} variables ({names}...)")
    for variable in problem.variables:
        if not 0 <= assignment[variable] < problem.k:
            raise ValueError(
                f"label {assignment[variable]} for {variable.name} outside "
                f"0..{problem.k - 1}"
            )
    violated = []
    for edge in problem.edges:
        a, b = sorted(edge)
        if assignment[a] == assignment[b]:
            violated.append((a, b))
    mismatched = [
        (v, label, assignment[v])
        for v, label in sorted(problem.givens.items())
        if assignment[v] != label
    ]
    return VerifyReport(tuple(sorted(violated)), tuple(mismatched))


def random_planar_map(
    rows: int, cols: int, seed: int = 0, diagonal_rate: float = 0.5
) -> ColoringProblem:
    """A synthetic planar adjacency: a grid with random diagonal braces.

    Regions tile a rows×cols grid; every region borders its right and
    down neighbors, and each interior 2×2 block gets one diagonal with
    probability `diagonal_rate` (direction random).  One diagonal per
    block keeps the graph planar, so four colors always suffice.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    rng = random.Random(seed)
    width = len(str(rows * cols - 1)) if rows * cols > 1 else 1
    names = [f"m{str(i).zfill(width)}" for i in range(rows * cols)]
    variables = tuple(make_variables(names))

    def at(r: int, c: int) -> Variable:
        return variables[r * cols + c]

    edges: set[frozenset[Variable]] = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add(frozenset({at(r, c), at(r, c + 1)}))
            if r + 1 < rows:
                edges.add(frozenset({at(r, c), at(r + 1, c)}))
    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < diagonal_rate:
                if rng.random() < 0.5:
                    edges.add(frozenset({at(r, c), at(r + 1, c + 1)}))
                else:
                    edges.add(frozenset({at(r, c + 1), at(r + 1, c)}))
    return ColoringProblem(variables, frozenset(edges), k=4)
