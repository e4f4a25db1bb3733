"""Spans and counters around the library's public functions.

The tracer lives in the benchmark, not in the library: it wraps every
public function of each layer module (the names in the module's
``__all__``, plus ``__post_init__`` of its public dataclasses) and
replaces each binding of the original object in every ``mehler`` module.
Modules import one another's functions by name (``kernel`` and
``experiments`` hold their own reference to ``integrate_gamma_log``), so
patching only the defining module would miss those calls.

A span is (name, start, end, parent), kept in flat arrays in memory.  A
function's self time is its spans' durations minus the time covered by
their child spans.  Three wrappers also count work:

* ``integrate_gamma_log`` gets a ``history=`` list when the caller passed
  none, for refinement passes and orders, and its integrand is wrapped to
  count the points evaluated in all passes and in the accepted one;
* ``mehler_log_values`` counts the kernel values it returns;
* ``log_sum_weighted`` counts the terms it reduces.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("lognum", "geometry", "measure", "quadrature", "kernel",
          "estimates", "experiments", "cli")


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def reset(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self._stack.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, over the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.span_end[i] - self.span_start[i] - child[i]
        return {"spans": n, "calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts)}

    # -- wrappers -------------------------------------------------------

    def _plain(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def _counting_result(self, name: str, fn, counter: str, size_of):
        name_id = self.name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
                counts[counter] += size_of(args, kwargs, result)
                return result
            finally:
                self.close(index)
        return wrapper

    def _integrate(self, name: str, fn):
        name_id = self.name_id(name)
        counts = self.counts
        sig = inspect.signature(fn)
        has_history = "history" in sig.parameters
        convergence_error = sys.modules["mehler.quadrature"].QuadratureConvergenceError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            history = bound.arguments.get("history") if has_history else None
            if has_history and history is None:
                history = []
                bound.arguments["history"] = history
            seen = len(history) if history is not None else 0
            f_log = bound.arguments["f_log"]
            last = [0]

            def counted(pts):
                last[0] = len(pts)
                counts["quadrature.points"] += last[0]
                return f_log(pts)

            bound.arguments["f_log"] = counted
            index = self.open(name_id)
            try:
                result = fn(*bound.args, **bound.kwargs)
            except convergence_error:
                counts["quadrature.failures"] += 1
                raise
            finally:
                self.close(index)
            counts["quadrature.final_points"] += last[0]
            if history is not None:
                steps = history[seen:]
                counts["quadrature.passes"] += len(steps)
                top = max((order for order, _ in steps), default=0)
                counts["quadrature.max_order"] = max(
                    counts["quadrature.max_order"], top)
            return result
        return wrapper

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "quadrature.integrate_gamma_log":
            return self._integrate(name, fn)
        if name == "kernel.mehler_log_values":
            return self._counting_result(
                name, fn, "kernel.mehler_log_values.points",
                lambda args, kwargs, result: int(getattr(result, "size", 1)))
        if name == "lognum.log_sum_weighted":
            return self._counting_result(
                name, fn, "lognum.log_sum_weighted.terms",
                lambda args, kwargs, result: _size(
                    args[0] if args else kwargs["log_values"]))
        return self._plain(name, fn)

    def install(self) -> None:
        """Wrap each layer's public callables at every binding site."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "mehler"
                                         or key.startswith("mehler."))]
        for layer in LAYERS:
            module = sys.modules[f"mehler.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isclass(obj):
                    post = obj.__dict__.get("__post_init__")
                    if post is not None:
                        self._patch(obj, "__post_init__", self._plain(
                            f"{layer}.{attr}.__post_init__", post))
                elif inspect.isfunction(obj):
                    wrapper = self._wrapper_for(layer, attr, obj)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _size(values) -> int:
    size = getattr(values, "size", None)
    return int(size) if size is not None else len(values)
