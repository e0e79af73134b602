"""Loopy max-product BP over cluster graphs, with division-based updates.

A message over an edge is the source belief max-marginalized onto the sepset;
the target belief is multiplied by the ratio of that marginal to the
belief the sepset last carried.  Each delivery is scored by how much the
sepset belief moved (KL divergence), and those scores both schedule the
next messages — biggest mover first — and decide convergence: the run is
done when no queued score reaches `THRESHOLD`.  Sending (s, d) queues
(d, s) at or above its score, and sending (d, s) re-queues (s, d) at or
above its own, so every directed edge's last score then sits below it.
Max-product is the one semiring: each belief is divided by its largest
value, and every float sum is a `math.fsum`: a run sends the same messages
on every supported Python, in whatever order a factor lists its rows.

`InferenceState.run` returns the state itself.  Its `marginals` and
`assignment` are read off the current beliefs on each access, so a run
builds no table that nobody reads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from clusterbp.factors import (
    ContradictionError,
    SparseTable,
    Variable,
    _is_int,
    _is_real,
    kl_divergence,
    uniform_factor,
)
from clusterbp.graphs import ClusterGraph

DirectedEdge = tuple[int, int]

# The residual below which a directed edge counts as settled.
THRESHOLD = 1e-8
# The largest edge divergence a calibrated state shows.
CALIBRATION_TOL = 1e-9


@dataclass(frozen=True)
class InferenceOptions:
    """Knobs for a max-product propagation run.

    `max_messages`, an int (not a bool) of at least 1, caps the run.
    `damping`, a real number in [0, 1) and not a bool, geometrically
    mixes each new sepset belief with the stored one — it leaves fixed
    points untouched but tames the oscillation loopy graphs with soft
    potentials are prone to.  The residual a directed edge must fall
    below to count as settled is the module constant `THRESHOLD`.
    """

    max_messages: int = 1_000_000
    damping: float = 0.0

    def __post_init__(self) -> None:
        budget, damping = self.max_messages, self.damping
        if not _is_int(budget) or budget < 1:
            raise ValueError(f"max_messages must be >= 1 and an int, got {budget!r}")
        if not _is_real(damping) or not 0.0 <= damping < 1.0:
            raise ValueError(
                f"damping must lie in [0, 1) and not be a bool, got {damping!r}"
            )


def _checked_options(options: InferenceOptions | None) -> InferenceOptions:
    """`options`, or the defaults for None; anything else is a ValueError."""
    if options is not None and not isinstance(options, InferenceOptions):
        raise ValueError(f"options must be InferenceOptions or None, got {options!r}")
    return InferenceOptions() if options is None else options


@dataclass(frozen=True)
class CalibrationReport:
    """Pairwise sepset-marginal agreement across every edge."""

    per_edge: dict[tuple[int, int], float]

    @property
    def max_divergence(self) -> float:
        return max(self.per_edge.values(), default=0.0)

    @property
    def calibrated(self) -> bool:
        return self.max_divergence <= CALIBRATION_TOL


class InferenceState:
    """Mutable state of one max-product propagation run over a cluster graph.

    Construction performs the setup: cluster beliefs start as the given
    factors divided by their largest value, sepset beliefs start
    vacuous, and every directed edge is queued at infinite residual.
    `options` None means the defaults.  Each factor is checked against its
    cluster in the pass that records it; the graph checked its sepsets.
    A cluster's neighbours are the keys of its cell index, and its
    outgoing edges are queued in ascending neighbour order, whatever
    order the graph lists its sepsets in.

    Messages run over lists, not tables.  The state keeps each factor it
    was given (tables are never mutated): a cluster's rows are its
    factor's entry keys, in entry order, for the whole run, and the
    cluster keeps one value per row.  Belief update only shrinks
    supports, so a row that leaves the support holds 0.0 from then on; it
    never raises a max, stays 0.0 under any ratio, and no read-out lists
    it.  A sepset belief is a list with one cell per assignment of its
    sorted scope that a row of either endpoint projects to, numbered as
    those rows first reach it (over one variable, one cell per value),
    and each cluster keeps, per neighbor, the cell each of its rows
    projects to.  No other cell can ever hold mass, but the vacuous
    belief's total still counts all k^|S| assignments, so every residual
    is that of the dense table.  `beliefs` and `sepset_beliefs` show the
    state as tables; a sepset's table lists the cells holding mass in
    cell order, or every assignment while no message has crossed it.
    """

    def __init__(
        self,
        graph: ClusterGraph,
        factors: Sequence[SparseTable],
        options: InferenceOptions | None = None,
    ) -> None:
        options = _checked_options(options)
        if len(factors) != len(graph.clusters):
            raise ValueError(
                f"{len(graph.clusters)} clusters need {len(graph.clusters)} "
                f"factors, got {len(factors)}"
            )
        cards: dict[Variable, int] = {}
        self.graph = graph
        self.options = options
        self.messages = 0  # sent, refused ones not counted
        self._cards = cards
        # _vals[i]: one value per entry of _factors[i], in entry order.
        self._factors = tuple(factors)
        self._vals: list[list[float]] = []
        for i, (cluster, factor) in enumerate(zip(graph.clusters, factors)):
            if set(factor.scope) != set(cluster.vars):
                raise ValueError(
                    f"cluster {i} covers {{{cluster.label()}}} but its "
                    f"factor has a different scope"
                )
            if not factor.entries:
                raise ContradictionError(f"cluster {i} starts with an empty factor")
            for var in factor.scope:
                card = factor.card_of(var)
                if cards.setdefault(var, card) != card:
                    raise ValueError(
                        f"variable {var} has cardinality {card} in cluster "
                        f"{i} but {cards[var]} elsewhere"
                    )
            vals = list(factor.entries.values())
            top = max(vals)
            self._vals.append([v / top for v in vals])
        # _cells[i][j]: the cell of the (i, j) sepset each row of i projects to.
        self._cells: list[dict[int, list[int]]] = [{} for _ in factors]
        self._sepset_scope: dict[tuple[int, int], tuple[Variable, ...]] = {}
        # Each sepset's cells, as assignments of its scope, in cell order.
        self._reached: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._sepsets: dict[tuple[int, int], list[float]] = {}
        # Each sepset's total, the math.fsum of its last message, which the
        # next residual divides by.  A vacuous sepset's total is k^|S|, the
        # count of its dense cells, reached or not.
        self._totals: dict[tuple[int, int], float] = {}
        for sepset in graph.sepsets:
            key = sepset.clusters
            scope = tuple(sorted(sepset.vars))
            ends = []
            for end in key:
                pick = itemgetter(*map(factors[end]._pos.get, scope))
                ends.append(list(map(pick, factors[end].entries)))
            if len(scope) == 1:
                # Over one variable, the value is the cell.
                reached = [(x,) for x in range(cards[scope[0]])]
            else:
                cell_of: dict[tuple[int, ...], int] = {}
                ends = [[cell_of.setdefault(a, len(cell_of)) for a in r] for r in ends]
                reached = list(cell_of)
            self._sepset_scope[key] = scope
            self._reached[key] = reached
            self._sepsets[key] = [1.0] * len(reached)
            self._totals[key] = float(math.prod(cards[v] for v in scope))
            self._cells[key[0]][key[1]], self._cells[key[1]][key[0]] = ends
        # Heap entries are (-priority, ticket, edge); the ticket breaks ties
        # first-queued first.  `_queued` maps each queued edge to its live
        # entry, and entries it no longer points at are stale.
        self._heap: list[tuple[float, int, DirectedEdge]] = []
        self._queued: dict[DirectedEdge, tuple[float, int, DirectedEdge]] = {}
        self._ticket = itertools.count()
        edges = [e for i, j in sorted(self._sepset_scope) for e in ((i, j), (j, i))]
        self.residuals: dict[DirectedEdge, float] = dict.fromkeys(edges, math.inf)
        # Each cluster's outgoing edges, re-queued when it takes a message:
        # its neighbours are the keys of its cell index, taken in ascending
        # order whatever order the graph lists its sepsets in.
        self._out = [
            tuple((i, j) for j in sorted(cells)) for i, cells in enumerate(self._cells)
        ]
        self._push(edges, math.inf)

    # -- queue plumbing ----------------------------------------------------

    def _push(self, edges: Sequence[DirectedEdge], priority: float) -> None:
        """Queue each edge at `priority`, or at its own last residual if higher.

        Flooring at its own residual keeps an edge not yet certified below
        threshold reachable.  A queued entry is only ever strengthened: a
        later, weaker residual overwriting a pending one can starve an edge
        that still has real information to deliver.
        """
        residuals = self.residuals
        queued = self._queued
        for edge in edges:
            own = residuals[edge]
            at = own if own > priority else priority
            entry = queued.get(edge)
            if entry is not None and -entry[0] >= at:
                continue
            entry = queued[edge] = (-at, next(self._ticket), edge)
            heapq.heappush(self._heap, entry)
        if len(self._heap) > 4 * len(residuals) + 16:
            self._heap = [e for e in self._heap if self._queued.get(e[2]) is e]
            heapq.heapify(self._heap)

    def _loud(self) -> bool:
        """Whether a queued edge holds a priority at or above THRESHOLD.

        The queue alone records pending work, so this alone decides if a
        run goes on.  Drops stale entries on top, leaving the top live.
        """
        heap = self._heap
        while heap and self._queued.get(heap[0][2]) is not heap[0]:
            heapq.heappop(heap)
        return bool(heap) and -heap[0][0] >= THRESHOLD

    @property
    def converged(self) -> bool:
        """A fixed point, read off the queue alone: no entry reaches THRESHOLD."""
        return not self._loud()

    # -- propagation -------------------------------------------------------

    def pass_message(self, src: int, dst: int) -> float:
        """Send one message from cluster `src` to cluster `dst`.

        Returns the divergence between the new sepset belief and the one
        it replaced.  The target's outgoing edges are re-queued at that
        residual, so a big change fans out quickly while a quiet one lets
        the queue drain.  A message that fails raises before it changes
        anything.

        Each float operation is that of the table algebra, and every sum
        (the message's total, kept for the next residual, and the
        residual's terms) is a `math.fsum`, so visiting order moves no bit.
        An undamped message equal to the stored one, total included,
        returns 0.0 at once: every quotient would be 1.0, and the target,
        whose largest value is 1.0, would neither change nor rescale.
        """
        key = (src, dst) if src < dst else (dst, src)
        stored = self._sepsets.get(key)
        if stored is None:
            raise ValueError(f"no sepset between clusters {src} and {dst}")
        damping = self.options.damping
        message = [0.0] * len(stored)
        for value, cell in zip(self._vals[src], self._cells[src][dst]):
            if value > message[cell]:
                message[cell] = value
        # An equal message has the stored total too (math.fsum is exact in
        # any order), unless the sepset is vacuous with unreached cells, its
        # total k^|S| above its length.  Undamped, no live target row meets
        # a zero cell; a damped mix that underflows to 0.0 could leave one.
        if not damping and message == stored and self._totals[key] <= len(stored):
            self.residuals[src, dst] = 0.0
            self._push(self._out[dst], 0.0)
            self.messages += 1
            return 0.0
        if damping > 0.0:
            # Geometric mixing: message support never exceeds the stored
            # support, so every mixed cell meets a positive stored value.
            keep = 1.0 - damping
            message = [
                value**keep * held**damping if value else 0.0
                for value, held in zip(message, stored)
            ]

        # The residual D(message || stored), as kl_divergence computes it,
        # and the ratio message / stored that updates the target.
        new_total = math.fsum(message)
        old_total = self._totals[key]
        terms = []
        ratio = [0.0] * len(stored)
        for cell, value in enumerate(message):
            if not value:
                continue
            held = stored[cell]
            # A zero or underflowed stored cell would make the target
            # belief infinite, then NaN.
            quotient = value / held if held else math.inf
            if quotient == math.inf:
                raise ZeroDivisionError(
                    f"message {src}->{dst} puts mass on cell {cell}, where "
                    f"the sepset belief holds {held!r}: the quotient "
                    f"leaves the float range"
                )
            p = value / new_total
            if p:  # a subnormal value can leave p at 0.0, and p log p -> 0
                terms.append(p * math.log(p / (held / old_total)))
            ratio[cell] = quotient
        residual = max(math.fsum(terms), 0.0)

        targets = self._cells[dst][src]
        updated = [value * ratio[cell] for value, cell in zip(self._vals[dst], targets)]
        total = max(updated)
        if not total:
            scope = ",".join(v.name for v in self._sepset_scope[key])
            raise ContradictionError(
                f"message {src}->{dst} over {{{scope}}} annihilated the "
                f"target belief"
            )
        # The largest value is often exactly 1.0, and x / 1.0 is x.
        if total != 1.0:
            updated = [value / total for value in updated]
        self._vals[dst] = updated
        self._sepsets[key] = message
        self._totals[key] = new_total
        self.residuals[src, dst] = residual
        self._push(self._out[dst], residual)
        self.messages += 1
        return residual

    @property
    def beliefs(self) -> tuple[SparseTable, ...]:
        """Each cluster's current belief, as a table built on each read."""
        return tuple(map(self._belief, range(len(self._vals))))

    def _belief(self, i: int) -> SparseTable:
        """Cluster `i`'s belief: its factor's rows that still hold mass."""
        factor = self._factors[i]
        entries = {row: v for row, v in zip(factor.entries, self._vals[i]) if v}
        return SparseTable._trusted(factor.scope, factor.cards, entries)

    @property
    def sepset_beliefs(self) -> dict[tuple[int, int], SparseTable]:
        """Each sepset's current belief, as a table over its sorted scope."""
        out = {}
        for key, scope in self._sepset_scope.items():
            cards = tuple(self._cards[v] for v in scope)
            if self._totals[key] == math.prod(cards):
                # No message has crossed it: every dense cell holds 1.0.
                out[key] = uniform_factor(scope, cards)
            else:
                values = self._sepsets[key]
                entries = {a: v for a, v in zip(self._reached[key], values) if v}
                out[key] = SparseTable._trusted(scope, cards, entries)
        return out

    def run(self) -> InferenceState:
        """Propagate to a fixed point (`converged`) or until the budget ends.

        The queue alone decides: the top edge is sent while `_loud`.
        Returns the state itself, so `run().assignment` reads the decode.
        Exhausting the message budget is not an error: the state comes
        back with `converged` False and whatever the beliefs hold.  So
        does a message whose quotient leaves the float range.
        Contradictions (a message emptying a belief) do raise.  A refused
        message changes nothing and is queued again at its priority.
        """
        budget = self.options.max_messages
        while self.messages < budget and self._loud():
            entry = heapq.heappop(self._heap)
            edge = entry[2]
            del self._queued[edge]
            try:
                self.pass_message(*edge)
            except ZeroDivisionError:
                self._push([edge], -entry[0])
                break  # the beliefs left the float range; stop unconverged
            except ContradictionError:
                self._push([edge], -entry[0])
                raise
        return self

    @property
    def marginals(self) -> dict[Variable, SparseTable]:
        """Each variable's max-marginal, its largest entry 1.0.

        It is `marginalize((v,), "max")` of the belief of the first cluster
        holding `v`, which peaks at 1.0; each such belief is built once.
        """
        first: dict[Variable, int] = {}
        for i, factor in enumerate(self._factors):
            for variable in factor.scope:
                first.setdefault(variable, i)
        beliefs = {i: self._belief(i) for i in set(first.values())}
        return {v: beliefs[first[v]].marginalize((v,), "max") for v in sorted(first)}

    @property
    def assignment(self) -> dict[Variable, int]:
        """Each variable's argmax label, ties to the lowest."""
        return {v: marginal.argmax()[0] for v, marginal in self.marginals.items()}

    def check_calibration(self) -> CalibrationReport:
        """How far each edge's two endpoint marginals are from agreeing.

        After convergence on a tree the divergences are zero; on loopy
        graphs they measure what is left; calibrated means none tops CALIBRATION_TOL.
        """
        per_edge: dict[tuple[int, int], float] = {}
        beliefs = self.beliefs
        for key, scope in self._sepset_scope.items():
            i, j = key
            from_i = beliefs[i].marginalize(scope, "max").normalize("sum")
            from_j = beliefs[j].marginalize(scope, "max").normalize("sum")
            if set(from_i.entries) != set(from_j.reorder(from_i.scope).entries):
                per_edge[key] = float("inf")
            else:
                per_edge[key] = max(
                    kl_divergence(from_i, from_j), kl_divergence(from_j, from_i)
                )
        return CalibrationReport(per_edge=per_edge)
