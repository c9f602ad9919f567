"""External tracer: wraps a package's module-level functions from outside.

Each public function defined in a traced module is replaced, in that module's
namespace, by a wrapper that records a span. Calls through the module
attribute (``channel.gain_eval(...)``) and bare-name calls inside the module
(``run_trial(...)`` from ``run_sweep``) both resolve through the module
globals, so both are caught; the package source is not edited.

A span is (name, start, end, parent, trial): ``parent`` is the index of the
enclosing span or -1, and ``trial`` numbers the enclosing trial span or is -1.
Spans stay in memory until ``drain`` hands them over; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Spans:
    """Spans and work counters collected between two drains."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(float))

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def write_csv(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        lines = ["name,start_s,end_s,parent,trial"]
        for n, s, e, p, t in zip(self.names, self.starts, self.ends, self.parents, self.trials):
            lines.append(f"{n},{s - origin:.9f},{e - origin:.9f},{p},{t}")
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals.

    ``hooks`` maps a span name to ``hook(result, *args, **kwargs)`` returning a
    dict of work counts, which accumulate under ``"<span name>.<key>"``.
    Entering the span named ``trial_span`` starts a new trial id.
    """

    def __init__(self, hooks=None, trial_span: str | None = None):
        self.hooks = dict(hooks or {})
        self.trial_span = trial_span
        self._spans = Spans()
        self._stack: list[int] = []
        self._trial = -1
        self._next_trial = 0
        self._installed: list[tuple[object, str, object]] = []

    def install(self, module, prefix: str) -> None:
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            self._installed.append((module, attr, obj))
            setattr(module, attr, self._wrap(f"{prefix}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def drain(self) -> Spans:
        spans, self._spans = self._spans, Spans()
        self._next_trial = 0
        return spans

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        starts_trial = name == self.trial_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            outer_trial = self._trial
            if starts_trial:
                self._trial = self._next_trial
                self._next_trial += 1
            index = len(spans.names)
            spans.names.append(name)
            spans.parents.append(self._stack[-1] if self._stack else -1)
            spans.trials.append(self._trial)
            spans.ends.append(0.0)
            self._stack.append(index)
            spans.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[index] = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if hook is not None:
                for key, value in hook(result, *args, **kwargs).items():
                    spans.counters[f"{name}.{key}"] += value
            return result

        return traced
