"""Outside-in tracer for the fkbench package.

A traced function is replaced at every module attribute that binds it, so a
call is recorded whichever module the caller resolves it through:
``from .rng import stream`` binds ``fkbench.engine.stream`` as well as
``fkbench.rng.stream``, and ``fkbench.cli`` binds its own ``simulate``,
``doob_terms`` and ``analyze``.  Nothing inside the package changes.

Spans (name, parent span, start, end) are kept in memory while the traced
code runs.  Self time is computed afterwards from how the spans nest: a
span's duration minus the durations of its direct child spans.  Helpers that
are not traced count toward the self time of the traced function that calls
them.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from dataclasses import dataclass

# Traced functions, by layer module.  Each is timed under "<module>.<name>".
TRACED = {
    "rng": ("stream", "categorical", "categorical_rows"),
    "engine": ("simulate", "simulate_replicates", "doob_terms", "increasing_increments"),
    "flow": ("analyze", "semigroups", "dobrushin_beta", "limiting_variance", "mckean_kernel"),
    "bounds": ("mixing_bounds",),
    "lab": ("clt_rate_experiment", "kolmogorov_distance"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_categorical(counts, args, kwargs, result):
    counts["rng.draws"] += int(_arg(args, kwargs, 2, "size"))


def _count_categorical_rows(counts, args, kwargs, result):
    counts["rng.draws"] += len(_arg(args, kwargs, 2, "rows"))


def _count_simulate(counts, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    counts["engine.particle_steps"] += config.n_particles * (config.horizon + 1)


def _count_semigroups(counts, args, kwargs, result):
    qbar = getattr(result, "qbar", None)
    if isinstance(qbar, dict):
        counts["flow.qbar_matrices"] += len(qbar)
        counts["flow.qbar_bytes"] += sum(m.nbytes for m in qbar.values())


# Exact counts taken from call arguments and return values, never from timing.
COUNTERS = {
    "rng.categorical": _count_categorical,
    "rng.categorical_rows": _count_categorical_rows,
    "engine.simulate": _count_simulate,
    "flow.semigroups": _count_semigroups,
}
COUNT_NAMES = ("rng.draws", "engine.particle_steps", "flow.qbar_matrices", "flow.qbar_bytes")


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the TRACED functions of an imported fkbench while installed.

    Use as a context manager; the original attributes are restored on exit.
    Not thread-safe: spans nest through one stack, so run traced code serially.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count, counts = COUNTERS.get(name), self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fkbench" or key.startswith("fkbench."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"fkbench.{layer}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:  # function no longer exists; its metrics read 0
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total time and self time per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, SpanStats] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.calls += 1
            st.s += end - start
            st.self_s += end - start - child[i]
        return out

    def time_under(self, names, parent_name: str) -> float:
        """Total time of spans named in names whose direct parent is parent_name."""
        spans = self.spans
        return sum(
            end - start
            for name, parent, start, end in spans
            if name in names and parent >= 0 and spans[parent][0] == parent_name
        )

    def write(self, path) -> None:
        """Write every span as a CSV row: id, name, parent, start_s, end_s."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "parent", "start_s", "end_s"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([i, name, parent, repr(start), repr(end)])
