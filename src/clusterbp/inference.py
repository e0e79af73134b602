"""Loopy belief propagation over cluster graphs, with division-based updates.

A message over an edge is the source belief marginalized onto the sepset;
the target belief is multiplied by the ratio of that marginal to the
belief the sepset last carried.  Each delivery is scored by how much the
sepset belief moved (KL divergence), and those scores both schedule the
next messages — biggest mover first — and decide convergence: the run is
done when every directed edge's most recent score sits below threshold.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, replace
from typing import Sequence

from clusterbp.factors import (
    ContradictionError,
    Semiring,
    SparseTable,
    Variable,
    kl_divergence,
    uniform_factor,
)
from clusterbp.graphs import ClusterGraph

DirectedEdge = tuple[int, int]


@dataclass(frozen=True)
class InferenceOptions:
    """Knobs for a propagation run.

    `semiring` picks sum-product (marginal mass) or max-product (best
    completion scores); `threshold` is the residual level below which a
    directed edge counts as settled; `max_messages` caps the run.
    `damping` geometrically mixes each new sepset belief with the stored
    one — it leaves fixed points untouched but tames the oscillation
    loopy graphs with soft potentials are prone to.
    """

    semiring: Semiring = "max"
    threshold: float = 1e-8
    max_messages: int = 1_000_000
    damping: float = 0.0

    def __post_init__(self) -> None:
        if self.semiring not in ("sum", "max"):
            raise ValueError(f"unknown semiring {self.semiring!r}")
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be > 0, got {self.threshold}")
        if self.max_messages < 1:
            raise ValueError(f"max_messages must be >= 1, got {self.max_messages}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(
                f"damping must lie in [0, 1), got {self.damping}"
            )


@dataclass
class RunStats:
    messages: int = 0
    wall_ms: float = 0.0


@dataclass(frozen=True)
class Posterior:
    """What a run produced: per-variable marginals and their decoding."""

    marginals: dict[Variable, SparseTable]
    assignment: dict[Variable, int]
    beliefs: tuple[SparseTable, ...]
    converged: bool
    stats: RunStats


@dataclass(frozen=True)
class CalibrationReport:
    """Pairwise sepset-marginal agreement across every edge."""

    tol: float
    per_edge: dict[tuple[int, int], float]

    @property
    def max_divergence(self) -> float:
        return max(self.per_edge.values(), default=0.0)

    @property
    def calibrated(self) -> bool:
        return self.max_divergence <= self.tol


class InferenceState:
    """Mutable state of one propagation run over a cluster graph.

    Construction performs the setup: cluster beliefs start as the given
    factors (max-normalized under the max semiring), sepset beliefs start
    vacuous, and every directed edge is queued at infinite residual.
    """

    def __init__(
        self,
        graph: ClusterGraph,
        factors: Sequence[SparseTable],
        options: InferenceOptions | None = None,
    ) -> None:
        options = options or InferenceOptions()
        if len(factors) != len(graph.clusters):
            raise ValueError(
                f"{len(graph.clusters)} clusters need {len(graph.clusters)} "
                f"factors, got {len(factors)}"
            )
        cards: dict[Variable, int] = {}
        for cluster, factor in zip(graph.clusters, factors):
            if set(factor.scope) != set(cluster.vars):
                raise ValueError(
                    f"cluster {cluster.id} covers {{{cluster.label()}}} but its "
                    f"factor has a different scope"
                )
            if not factor.entries:
                raise ContradictionError(
                    f"cluster {cluster.id} starts with an empty factor"
                )
            for var in factor.scope:
                card = factor.card_of(var)
                if cards.setdefault(var, card) != card:
                    raise ValueError(
                        f"variable {var} has cardinality {card} in cluster "
                        f"{cluster.id} but {cards[var]} elsewhere"
                    )
        for sepset in graph.sepsets:
            for var in sepset.vars:
                if var not in cards:
                    raise ValueError(
                        f"sepset {sepset.clusters} carries {var}, which no "
                        f"factor covers"
                    )

        self.graph = graph
        self.options = options
        self.stats = RunStats()
        if options.semiring == "max":
            self.beliefs = [f.normalize("max") for f in factors]
        else:
            self.beliefs = list(factors)
        self.sepset_beliefs: dict[tuple[int, int], SparseTable] = {}
        self._sepset_scope: dict[tuple[int, int], tuple[Variable, ...]] = {}
        for sepset in graph.sepsets:
            scope = tuple(sorted(sepset.vars))
            self._sepset_scope[sepset.clusters] = scope
            self.sepset_beliefs[sepset.clusters] = uniform_factor(
                scope, tuple(cards[v] for v in scope)
            )
        self.residuals: dict[DirectedEdge, float] = {}
        # Heap entries are (-priority, ticket, edge); the ticket breaks ties
        # first-queued first.  `_queued` maps each queued edge to its live
        # entry, and entries it no longer points at are stale.
        self._heap: list[tuple[float, int, DirectedEdge]] = []
        self._queued: dict[DirectedEdge, tuple[float, int, DirectedEdge]] = {}
        self._ticket = itertools.count()
        self._hot = 0
        for i, j in sorted(self._sepset_scope):
            for edge in ((i, j), (j, i)):
                self.residuals[edge] = float("inf")
                self._hot += 1
                self._push(edge, float("inf"))

    # -- queue plumbing ----------------------------------------------------

    def _push(self, edge: DirectedEdge, priority: float) -> None:
        # A queued entry is only ever strengthened: letting a later, weaker
        # residual overwrite a pending one can starve an edge that still
        # has real information to deliver.
        queued = self._queued.get(edge)
        if queued is not None and -queued[0] >= priority:
            return
        entry = (-priority, next(self._ticket), edge)
        self._queued[edge] = entry
        heapq.heappush(self._heap, entry)
        if len(self._heap) > 4 * len(self.residuals) + 16:
            self._heap = [e for e in self._heap if self._queued.get(e[2]) is e]
            heapq.heapify(self._heap)

    def _pop(self) -> DirectedEdge | None:
        while self._heap:
            entry = heapq.heappop(self._heap)
            edge = entry[2]
            if self._queued.get(edge) is entry:
                del self._queued[edge]
                return edge
        return None

    def _set_residual(self, edge: DirectedEdge, value: float) -> None:
        threshold = self.options.threshold
        before = self.residuals[edge] >= threshold
        after = value >= threshold
        self._hot += int(after) - int(before)
        self.residuals[edge] = value

    @property
    def converged(self) -> bool:
        return self._hot == 0

    # -- propagation -------------------------------------------------------

    def pass_message(self, src: int, dst: int) -> float:
        """Send one message from cluster `src` to cluster `dst`.

        Returns the divergence between the new sepset belief and the one
        it replaced.  The target's outgoing edges are re-queued at that
        residual, so a big change fans out quickly while a quiet one lets
        the queue drain.
        """
        key = (min(src, dst), max(src, dst))
        if key not in self._sepset_scope:
            raise ValueError(f"no sepset between clusters {src} and {dst}")
        semiring = self.options.semiring
        stored = self.sepset_beliefs[key]
        message = self.beliefs[src].marginalize(self._sepset_scope[key], semiring)
        damping = self.options.damping
        if damping > 0.0:
            # Geometric mixing: message support never exceeds the stored
            # support, so every stored lookup lands on a positive entry.
            message = SparseTable(
                message.scope,
                message.cards,
                {
                    assignment: value ** (1.0 - damping) * stored[assignment] ** damping
                    for assignment, value in message.items()
                },
            )
        residual = kl_divergence(message, stored)
        updated = self.beliefs[dst].multiply(message.divide(stored))
        if not updated.entries:
            scope = ",".join(v.name for v in self._sepset_scope[key])
            raise ContradictionError(
                f"message {src}->{dst} over {{{scope}}} annihilated the "
                f"target belief"
            )
        self.beliefs[dst] = updated.normalize(semiring)
        self.sepset_beliefs[key] = message
        self._set_residual((src, dst), residual)
        for peer in self.graph.neighbors(dst):
            out = (dst, peer)
            # Floor at the edge's own last residual: an edge that has not
            # yet certified itself below threshold must stay reachable.
            self._push(out, max(residual, self.residuals[out]))
        self.stats.messages += 1
        return residual

    def run(self) -> Posterior:
        """Propagate until every residual clears threshold or budget ends.

        Exhausting the message budget is not an error: the posterior
        comes back with `converged=False` and whatever the beliefs hold.
        Contradictions (a message emptying a belief) do raise.
        """
        options = self.options
        started = time.perf_counter()
        while self._hot and self.stats.messages < options.max_messages:
            edge = self._pop()
            if edge is None:
                # The queue drained with edges still hot, as when a caller
                # re-runs after catching a contradiction mid-message: rebuild
                # it from their residuals.
                for hot_edge in sorted(self.residuals):
                    if self.residuals[hot_edge] >= options.threshold:
                        self._push(hot_edge, self.residuals[hot_edge])
                continue
            self.pass_message(*edge)
        self.stats.wall_ms += (time.perf_counter() - started) * 1e3
        return self._posterior()

    def _posterior(self) -> Posterior:
        semiring = self.options.semiring
        marginals: dict[Variable, SparseTable] = {}
        assignment: dict[Variable, int] = {}
        for variable in self.graph.variables():
            holder = next(
                c.id for c in self.graph.clusters if variable in c.vars
            )
            marginal = self.beliefs[holder].marginalize([variable], semiring)
            marginal = marginal.normalize(semiring)
            marginals[variable] = marginal
            assignment[variable] = marginal.argmax()[0]
        return Posterior(
            marginals=marginals,
            assignment=assignment,
            beliefs=tuple(self.beliefs),
            converged=self.converged,
            stats=replace(self.stats),
        )

    def check_calibration(self, tol: float = 1e-9) -> CalibrationReport:
        """How far each edge's two endpoint marginals are from agreeing.

        After convergence on a tree the divergences are zero; on loopy
        graphs they measure the remaining inconsistency.
        """
        per_edge: dict[tuple[int, int], float] = {}
        semiring = self.options.semiring
        for key, scope in self._sepset_scope.items():
            i, j = key
            from_i = self.beliefs[i].marginalize(scope, semiring).normalize("sum")
            from_j = self.beliefs[j].marginalize(scope, semiring).normalize("sum")
            if set(from_i.entries) != set(from_j.reorder(from_i.scope).entries):
                per_edge[key] = float("inf")
            else:
                per_edge[key] = max(
                    kl_divergence(from_i, from_j), kl_divergence(from_j, from_i)
                )
        return CalibrationReport(tol=tol, per_edge=per_edge)
