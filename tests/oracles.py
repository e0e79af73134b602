"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately naive and materializes full
joint spaces or searches exhaustively, so it is slow but obviously
correct.  Nothing here reuses clusterbp's algebra: dense factors are
plain dicts over the complete cartesian product, puzzle solving is a
straight backtracking search, spanning trees are enumerated by decoding
every Pruefer sequence, and pairwise consistency is a plain worklist
over table rows.
"""

from __future__ import annotations

import itertools
import math
import random


def _space(cards):
    return itertools.product(*[range(c) for c in cards])


class DenseFactor:
    """A dense factor: every cell of the joint space is materialized.

    `values` maps every full assignment tuple to a float, zeros included.
    Variables can be any hashable handles.
    """

    def __init__(self, scope, cards, values):
        self.scope = tuple(scope)
        self.cards = tuple(cards)
        self.values = dict(values)
        expected = math.prod(self.cards)
        assert len(self.values) == expected, "joint space not fully covered"

    @classmethod
    def from_function(cls, scope, cards, fn):
        return cls(scope, cards, {key: float(fn(key)) for key in _space(cards)})

    @classmethod
    def from_sparse(cls, table):
        """Densify a clusterbp SparseTable; absent assignments become 0."""
        return cls.from_function(table.scope, table.cards, lambda key: table[key])

    def card_by_var(self):
        return dict(zip(self.scope, self.cards))

    def value_of(self, bound):
        """Potential at a {var: value} binding covering this scope."""
        return self.values[tuple(bound[v] for v in self.scope)]

    def multiply(self, other):
        scope = self.scope + tuple(v for v in other.scope if v not in self.scope)
        card_by = other.card_by_var() | self.card_by_var()
        cards = tuple(card_by[v] for v in scope)
        values = {}
        for key in _space(cards):
            bound = dict(zip(scope, key))
            values[key] = self.value_of(bound) * other.value_of(bound)
        return DenseFactor(scope, cards, values)

    def divide(self, other):
        values = {}
        for key in _space(self.cards):
            bound = dict(zip(self.scope, key))
            num = self.values[key]
            den = other.value_of(bound)
            if den == 0.0:
                if num != 0.0:
                    raise ZeroDivisionError(f"{key}: {num} / 0")
                values[key] = 0.0
            else:
                values[key] = num / den
        return DenseFactor(self.scope, self.cards, values)

    def marginalize(self, keep, semiring="sum"):
        keep_set = set(keep)
        kept = [v for v in self.scope if v in keep_set]
        positions = [self.scope.index(v) for v in kept]
        cards = tuple(self.cards[p] for p in positions)
        values = {key: 0.0 for key in _space(cards)}
        for key, value in self.values.items():
            proj = tuple(key[p] for p in positions)
            if semiring == "sum":
                values[proj] += value
            else:
                values[proj] = max(values[proj], value)
        return DenseFactor(kept, cards, values)

    def normalize(self, mode="sum"):
        total = (
            sum(self.values.values()) if mode == "sum" else max(self.values.values())
        )
        if total == 0.0:
            raise ValueError("all-zero factor cannot be normalized")
        return DenseFactor(
            self.scope, self.cards, {k: v / total for k, v in self.values.items()}
        )

    def observe(self, var, value):
        pos = self.scope.index(var)
        scope = self.scope[:pos] + self.scope[pos + 1 :]
        cards = self.cards[:pos] + self.cards[pos + 1 :]
        values = {
            key[:pos] + key[pos + 1 :]: v
            for key, v in self.values.items()
            if key[pos] == value
        }
        return DenseFactor(scope, cards, values)

    def is_zero(self):
        return all(v == 0.0 for v in self.values.values())

    def argmax(self):
        best_key, best_value = None, -math.inf
        for key in sorted(self.values):
            if self.values[key] > best_value:
                best_key, best_value = key, self.values[key]
        return best_key

    def nonzero(self):
        """Support as a {assignment: value} dict, for sparse comparison."""
        return {k: v for k, v in self.values.items() if v != 0.0}


def dense_kl(new, old):
    """D(new || old) after sum-normalizing both dense factors."""
    ordered = DenseFactor.from_function(
        new.scope, new.cards, lambda key: old.value_of(dict(zip(new.scope, key)))
    )
    p = new.normalize("sum")
    q = ordered.normalize("sum")
    total = 0.0
    for key, pv in p.values.items():
        if pv == 0.0:
            continue
        qv = q.values[key]
        if qv == 0.0:
            return math.inf
        total += pv * math.log(pv / qv)
    return max(total, 0.0)


def dense_joint(factors):
    """The full joint: the dense product of every factor in the list."""
    result = factors[0]
    for factor in factors[1:]:
        result = result.multiply(factor)
    return result


def pairwise_closure(scopes, rows, sepsets):
    """The greatest subset of each table's rows that every neighbour supports.

    `scopes[i]` lists table i's variable ids in row order, `rows[i]` its
    rows as tuples, and `sepsets` maps each linked pair (i, j) to the ids
    they share.  A row stays only while, on every sepset at its table,
    some row kept by the table across projects to the same values.  The
    greatest such subset is unique, so the order in which the worklist
    visits links does not matter.  Returns one set of rows per table.
    """
    kept = [set(r) for r in rows]
    links = {}  # (a, b): where the shared ids sit in a's rows and in b's
    against = {a: [] for a in range(len(scopes))}  # links pruning a neighbour by a
    for (i, j), shared in sepsets.items():
        ids = sorted(shared)
        at_i = [scopes[i].index(v) for v in ids]
        at_j = [scopes[j].index(v) for v in ids]
        links[i, j], links[j, i] = (at_i, at_j), (at_j, at_i)
        against[i].append((j, i))
        against[j].append((i, j))
    work = list(links)
    queued = set(work)
    while work:
        a, b = link = work.pop()
        queued.discard(link)
        at_a, at_b = links[link]
        seen = {tuple(row[p] for p in at_b) for row in kept[b]}
        keep = {row for row in kept[a] if tuple(row[p] for p in at_a) in seen}
        if keep != kept[a]:
            kept[a] = keep
            for other in against[a]:
                if other not in queued:
                    queued.add(other)
                    work.append(other)
    return kept


def closure_of(tables, sepsets):
    """`pairwise_closure` over a cluster graph's tables and sepsets.

    Reads only each table's `.scope` (of objects with an `.id`) and
    `.entries`, and each sepset's `.clusters` and `.vars`.
    """
    return pairwise_closure(
        [tuple(v.id for v in t.scope) for t in tables],
        [tuple(t.entries) for t in tables],
        {s.clusters: {v.id for v in s.vars} for s in sepsets},
    )


# -- exhaustive puzzle search ----------------------------------------------


def solve_sudoku(grid, n, limit=None):
    """Every completion of a partial grid, by plain backtracking.

    `grid` is a flat row-major sequence of n*n ints with 0 for blanks and
    1..n for givens.  Returns solved grids as tuples, in a deterministic
    order.  `limit` stops the search early (useful for uniqueness checks).
    """
    box = math.isqrt(n)
    assert box * box == n
    cells = range(n * n)
    peers = [[] for _ in cells]
    for c in cells:
        r, k = divmod(c, n)
        for c2 in cells:
            r2, k2 = divmod(c2, n)
            if c2 != c and (
                r2 == r
                or k2 == k
                or (r2 // box == r // box and k2 // box == k // box)
            ):
                peers[c].append(c2)
    work = list(grid)
    solutions = []

    def backtrack():
        best, best_cands = None, None
        for c in cells:
            if work[c] != 0:
                continue
            taken = {work[p] for p in peers[c]}
            cands = [v for v in range(1, n + 1) if v not in taken]
            if best is None or len(cands) < len(best_cands):
                best, best_cands = c, cands
                if len(cands) <= 1:
                    break
        if best is None:
            solutions.append(tuple(work))
            return
        for v in best_cands:
            work[best] = v
            backtrack()
            work[best] = 0
            if limit is not None and len(solutions) >= limit:
                return

    backtrack()
    return solutions


def count_sudoku_solutions(grid, n, cap=2):
    return len(solve_sudoku(grid, n, limit=cap))


def grid_text(grid):
    return "".join(str(d) if d else "." for d in grid)


def exhaustive_4x4_suite(seed=0):
    """One well-defined puzzle per complete 4x4 grid.

    Every complete grid is thinned greedily: a given is blanked whenever
    the remaining ones still force a unique completion.  Seed 0 thins
    each grid in row-major cell order; any other seed thins each grid,
    in turn, in a fresh cell order drawn from `random.Random(seed)`.
    288 grids exist, so the suite has 288 puzzles, each returned with
    its completion.
    """
    rng = random.Random(seed)
    suite = []
    for full in solve_sudoku([0] * 16, 4):
        puzzle = list(full)
        order = list(range(16))
        if seed:
            rng.shuffle(order)
        for cell in order:
            held, puzzle[cell] = puzzle[cell], 0
            if count_sudoku_solutions(puzzle, 4, cap=2) != 1:
                puzzle[cell] = held
        suite.append((tuple(puzzle), full))
    return suite


def maximal_cliques_brute(names, edges):
    """All maximal cliques by testing every vertex subset.

    `edges` are name pairs; isolated names count as singleton cliques.
    Exponential, so keep the graphs small.
    """
    names = list(names)
    edge_set = {frozenset(e) for e in edges}

    def is_clique(subset):
        return all(
            frozenset(p) in edge_set for p in itertools.combinations(subset, 2)
        )

    cliques = set()
    for r in range(1, len(names) + 1):
        for subset in itertools.combinations(names, r):
            if is_clique(subset):
                cliques.add(frozenset(subset))
    return {
        c
        for c in cliques
        if not any(c < other for other in cliques)
    }


def color_by_backtracking(names, edges, k, givens=None):
    """One proper k-coloring (deterministic), or None if there is none.

    `edges` are name pairs; `givens` maps names to fixed labels.
    """
    names = list(names)
    givens = dict(givens or {})
    adjacency = {name: set() for name in names}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    assignment = dict(givens)

    def backtrack(i):
        if i == len(names):
            return True
        name = names[i]
        if name in givens:
            return (
                all(assignment.get(nb) != assignment[name] for nb in adjacency[name])
                and backtrack(i + 1)
            )
        for label in range(k):
            if all(assignment.get(nb) != label for nb in adjacency[name]):
                assignment[name] = label
                if backtrack(i + 1):
                    return True
                del assignment[name]
        return False

    return dict(assignment) if backtrack(0) else None


def is_proper_coloring(names, edges, k, givens, labels):
    """Whether `labels` (name -> label) is a proper k-coloring.

    Every name needs a label in 0..k-1, the givens must keep theirs, and
    no edge may join two names of one label.
    """
    return (
        set(labels) == set(names)
        and all(labels[name] in range(k) for name in names)
        and all(labels[name] == label for name, label in (givens or {}).items())
        and all(labels[a] != labels[b] for a, b in edges)
    )


# -- spanning-tree enumeration ----------------------------------------------


def prufer_to_tree(seq, n):
    """Decode a Pruefer sequence into the edge list of a labeled tree."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for y in range(n):
            if degree[y] == 1:
                edges.append((min(x, y), max(x, y)))
                degree[x] -= 1
                degree[y] -= 1
                break
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.append((min(u, v), max(u, v)))
    return edges


def all_spanning_trees(n):
    """Edge sets of every labeled tree on n nodes (n^(n-2) of them)."""
    if n == 1:
        return [frozenset()]
    if n == 2:
        return [frozenset({(0, 1)})]
    return [
        frozenset(prufer_to_tree(seq, n))
        for seq in itertools.product(range(n), repeat=n - 2)
    ]
