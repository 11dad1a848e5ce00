"""Spans around calls into each tndpq module, recorded from outside it.

`Tracer.install()` replaces every public function of the layer modules by a
wrapper, in every module of the package that binds it (a module calling its
own function goes through its globals, so it is covered too).  Nested calls
are therefore attributed to the layer whose function was entered.  A span's
self time is its duration minus the durations of the spans it contains.
`uninstall()` puts the original functions back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("syntax", "exclusivity", "systems", "calculus", "trust", "construction", "cli")

# Calls of `inner` made while `outer` is open, counted separately.
NESTED = (("systems.conditional_distribution", "exclusivity.star_normalize"),)
# Functions whose distinct argument tuples are counted.
DISTINCT = ("trust.check_local",)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.nested = defaultdict(int)
        self.distinct = defaultdict(set)
        self.distinct_counted = defaultdict(int)
        self._stack = []
        self._open = defaultdict(int)
        self._saved = []

    def _wrap(self, name, fn):
        nested = [outer for outer, inner in NESTED if inner == name]
        distinct = self.distinct[name] if name in DISTINCT else None
        clock = time.perf_counter

        def span(*args, **kwargs):
            for outer in nested:
                if self._open[outer]:
                    self.nested[(outer, name)] += 1
            if distinct is not None:
                distinct.add(args + tuple(sorted(kwargs.items())))
            frame = [0.0]
            self._stack.append(frame)
            self._open[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._open[name] -= 1
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += duration
                self.child[name] += frame[0]
                if self._stack:
                    self._stack[-1][0] += duration

        span.__wrapped__ = fn
        return span

    def install(self, package: str = "tndpq") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._saved.append((other, bound, fn))
                            setattr(other, bound, wrapper)

    def end_round(self) -> None:
        """Count distinct argument tuples per round, not across rounds."""
        for name, keys in self.distinct.items():
            self.distinct_counted[name] += len(keys)
            keys.clear()

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per function: calls, total and self seconds; plus the extra counts."""
        self.end_round()
        return {
            "functions": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.total[name] - self.child[name]}
                for name in self.calls
            },
            "nested": {f"{outer}>{inner}": n for (outer, inner), n in self.nested.items()},
            "distinct": dict(self.distinct_counted),
        }


def merge(summaries):
    """One summary from several, e.g. of the processes of a cli session."""
    out = {"functions": {}, "nested": {}, "distinct": {}}
    for part in summaries:
        for name, s in part["functions"].items():
            acc = out["functions"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for section in ("nested", "distinct"):
            for key, n in part[section].items():
                out[section][key] = out[section].get(key, 0) + n
    return out
