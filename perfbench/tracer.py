"""Spans around the package's public calls, installed from outside.

`Tracer.install` replaces the public functions and methods of
clusterbp's coloring, graphs, factors, inference and cli modules with
timing wrappers, in every clusterbp module that holds a reference to
them; `uninstall` puts the originals back.  No file under src/ changes.

Spans nest on a stack.  Each span name keeps its call count, total time
and self time (its duration minus the durations of the spans it
directly encloses), so the self times of all spans add up to the time
spent inside the outermost ones.  Spans are folded into these sums as
they close instead of being stored one by one: the map workload opens
millions of them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

MODULES = ("coloring", "graphs", "factors", "inference", "cli")
FACTOR_OPS = ("init", "multiply", "marginalize", "divide", "normalize", "kl")

# The public methods the workloads call get spans, by class, with the
# span's short name.  Accessors such as card_of and __getitem__ run
# inside every operation and stay unwrapped: a span on each would cost
# more than their work.
METHODS = {
    ("coloring", "ColoringProblem"): {"__post_init__": "problem"},
    ("factors", "SparseTable"): {
        "__init__": "init",
        "multiply": "multiply",
        "divide": "divide",
        "marginalize": "marginalize",
        "normalize": "normalize",
        "argmax": "argmax",
        "reorder": "reorder",
    },
    ("inference", "InferenceState"): {
        "__init__": "setup",
        "pass_message": "pass_message",
        "run": "run",
    },
}
RENAMED = {"factors.kl_divergence": "factors.kl"}


def _table_entries(*tables) -> int:
    return sum(len(t.entries) for t in tables)


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.message_s: list[float] = []
        self.max_sepset = 0
        self._stack: list[list] = []  # open spans: [child_s, name]
        self._givens_before: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import clusterbp

        self.contradiction = clusterbp.ContradictionError
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "clusterbp" or name.startswith("clusterbp.")
        ]
        for short in MODULES:
            module = sys.modules[f"clusterbp.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    if getattr(holder, attr, None) is fn:
                        self._patch(holder, attr, wrapper)
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"clusterbp.{short}"], cls_name)
            for attr, span in methods.items():
                name = f"{short}.{span}"
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        before = self._before.get(name)
        after = self._after.get(name)
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        module = name.split(".", 1)[0]
        entries_key = name + ".entries"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                counts[entries_key] += before(self, *args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            result = failure = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except self.contradiction as exc:
                failure = exc
                if not getattr(exc, "perfbench_origin", None):
                    exc.perfbench_origin = name
                    counts[module + ".contradictions"] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if after is not None:
                    after(self, args, result, failure, duration)

        return span

    # Operand entries each factor operation touches, counted on entry.
    _before = {
        "factors.init": lambda self, table, scope, cards, entries: len(entries),
        "factors.multiply": lambda self, a, b: _table_entries(a, b),
        "factors.divide": lambda self, a, b: _table_entries(a, b),
        "factors.marginalize": lambda self, a, keep, semiring="sum": len(a.entries),
        "factors.normalize": lambda self, a, mode="sum": len(a.entries),
        "factors.kl": lambda self, new, old: _table_entries(new, old),
    }

    def _built(self, args, result, failure, duration) -> None:
        if result is not None:
            self.counts["entries_built"] += _table_entries(*(t for _, t in result))

    def _kept(self, args, result, failure, duration) -> None:
        if result is not None:
            self.counts["entries_kept"] += _table_entries(*(t for _, t in result))

    def _graph(self, args, result, failure, duration) -> None:
        if result is not None:
            self.counts["clusters"] += len(result.clusters)
            self.counts["sepsets"] += len(result.sepsets)
            widest = max((len(s.vars) for s in result.sepsets), default=0)
            self.max_sepset = max(self.max_sepset, widest)

    def _setup(self, args, result, failure, duration) -> None:
        if failure is None:
            self.counts["directed_edges"] += 2 * len(args[1].sepsets)

    def _message(self, args, result, failure, duration) -> None:
        self.message_s.append(duration)

    def _run(self, args, result, failure, duration) -> None:
        if result is not None:
            self.counts["runs"] += 1
            self.counts["converged"] += bool(result.converged)

    def _color(self, args, result, failure, duration) -> None:
        self._givens_before = None

    def _round(self, args, result, failure, duration) -> None:
        # solve_problem inside color_problem is one decimation round; the
        # labels it froze are the growth of the givens since the last
        # round (a restart shrinks them back to the anchor).
        if not any(frame[1] == "cli.color_problem" for frame in self._stack):
            return
        self.counts["rounds"] += 1
        self.counts["restarts"] += isinstance(failure, self.contradiction)
        givens = len(args[0].givens)
        if self._givens_before is not None and givens > self._givens_before:
            self.counts["labels_fixed"] += givens - self._givens_before
        self._givens_before = givens

    _after = {
        "coloring.build_factors": _built,
        "graphs.assimilate_subsets": _kept,
        "graphs.ltrip": _graph,
        "graphs.bethe_graph": _graph,
        "inference.setup": _setup,
        "inference.pass_message": _message,
        "inference.run": _run,
        "cli.color_problem": _color,
        "cli.solve_problem": _round,
    }

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced pass, keyed by metric name.

        Stage times (`*_s` without "self") are inclusive span durations;
        `<module>.self_s` and `factors.<op>.self_s` are self times.
        """
        spans, counts = self.spans, self.counts

        def calls(*names):
            return sum(spans[n][0] for n in names if n in spans)

        def total(*names):
            return sum(spans[n][1] for n in names if n in spans)

        def self_time(*names):
            return sum(spans[n][2] for n in names if n in spans)

        messages = calls("inference.pass_message")
        out = {
            "coloring.cliques_s": total("coloring.maximal_cliques"),
            "coloring.split_s": total("coloring.split_cliques"),
            "coloring.verify_s": total("coloring.verify_coloring"),
            "coloring.compile_s": total("coloring.build_factors"),
            "coloring.entries_built": counts["entries_built"],
            "coloring.contradictions": counts["coloring.contradictions"],
            "graphs.assimilate_s": total("graphs.assimilate_subsets"),
            "graphs.entries_kept": counts["entries_kept"],
            "graphs.assimilate_yield": (
                counts["entries_kept"] / counts["entries_built"]
                if counts["entries_built"]
                else 0.0
            ),
            "graphs.build_s": total("graphs.ltrip", "graphs.bethe_graph"),
            "graphs.clusters": counts["clusters"],
            "graphs.sepsets": counts["sepsets"],
            "graphs.max_sepset": self.max_sepset,
            "inference.setup_s": total("inference.setup"),
            "inference.messages": messages,
            "inference.messages_per_edge": (
                messages / counts["directed_edges"] if counts["directed_edges"] else 0.0
            ),
            "inference.pass_s": total("inference.pass_message"),
            "inference.queue_decode_s": self_time("inference.run"),
            "inference.converged_frac": (
                counts["converged"] / counts["runs"] if counts["runs"] else 0.0
            ),
            "inference.contradictions": counts["inference.contradictions"],
        }
        if self.message_s:
            micros = sorted(d * 1e6 for d in self.message_s)
            out["inference.message_us.p50"] = statistics.median(micros)
            out["inference.message_us.tail"] = tail(micros)[0]
        else:
            out["inference.message_us.p50"] = out["inference.message_us.tail"] = 0.0
        for op in FACTOR_OPS:
            name = f"factors.{op}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_time(name)
            out[f"{name}.entries"] = counts[f"{name}.entries"]
        out["cli.rounds"] = counts["rounds"]
        out["cli.restarts"] = counts["restarts"]
        out["cli.labels_fixed"] = counts["labels_fixed"]
        out["cli.decimation_self_s"] = self_time("cli.color_problem")
        out["cli.solve_self_s"] = self_time("cli.solve_problem")
        layer_total = 0.0
        for module in MODULES:
            own = sum(s[2] for n, s in spans.items() if n.startswith(module + "."))
            out[f"{module}.self_s"] = own
            layer_total += own
        out["trace.wall_s"] = wall_s
        out["trace.self_cover_frac"] = layer_total / wall_s if wall_s else 0.0
        return out

    def tail_detail(self) -> dict:
        if not self.message_s:
            return {}
        _, percentile, n = tail(sorted(d * 1e6 for d in self.message_s))
        return {"percentile": percentile, "samples": n}


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has ten samples above it.

    Returns (value, percentile, sample count) for sorted samples; with
    ten samples or fewer no such percentile exists and the maximum is
    returned as percentile 100.
    """
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], round(100.0 * (n - 10) / n, 4), n
