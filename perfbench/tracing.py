"""Spans and counters around the public functions of each ``cqedw`` module.

The tracer wraps functions from the benchmark's side; nothing in ``src/``
knows about it.  Targets are resolved by name at install time, so a layer
or function that a later version of the package removes simply records
nothing.  Each wrapper is installed under every name that refers to the
original in any ``cqedw`` module, because ``from .dynamics import
evolve_lindblad_auto`` copies the reference into the importing module while
``_kernels.rk4_lindblad`` is looked up through the module at call time.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (``None`` for a top-level span) and ``op`` the identifier of
the benchmark operation that was running.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# Module names under ``cqedw``; ``_kernels`` reports as ``kernels``.
LAYERS = (
    "cli",
    "device",
    "hilbert",
    "dynamics",
    "_kernels",
    "protocols",
    "tomography",
    "entanglement",
    "analysis",
)


def layer_label(module: str) -> str:
    return module.lstrip("_")


def _bound(fn, args, kwargs):
    """Arguments of one call by parameter name, defaults filled in."""
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    ba.apply_defaults()
    return ba.arguments


def _spec_dim(state):
    spec = getattr(state, "spec", None)
    return getattr(spec, "dim", 0)


class Tracer:
    """Records spans and derived counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str = "cqedw") -> list[str]:
        """Wrap the public functions of every layer; returns the span names."""
        originals = {}  # id(original) -> wrapper
        names = []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
            label = layer_label(layer)
            for attr, fn in sorted(vars(mod).items(), key=lambda kv: (len(kv[0]), kv[0])):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or id(fn) in originals:
                    continue
                name = f"{label}.{attr}"
                originals[id(fn)] = (fn, self._wrap(name, fn))
                names.append(name)
            for cls in vars(mod).values():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, fn in list(vars(cls).items()):
                    public = not attr.startswith("_") or attr == "__post_init__"
                    if public and inspect.isfunction(fn):
                        name = f"{label}.{cls.__name__}.{attr}"
                        self._patch(cls, attr, self._wrap(name, fn))
                        names.append(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        return names

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op]
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(tracer, fn, args, kwargs, None, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if hook is not None:
                hook(tracer, fn, args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time of its direct children, summed by name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child_time[i]
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def dump(self, path):
        """Write the spans as JSON: a name table and rows of integers (ns)."""
        table = {}
        rows = []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, op in self.spans:
            idx = table.setdefault(name, len(table))
            rows.append([idx, round((start - t0) * 1e9), round((end - t0) * 1e9), parent, op])
        with open(path, "w") as fh:
            json.dump({"names": list(table), "fields": ["name", "start_ns", "end_ns",
                                                     "parent", "op"], "spans": rows}, fh)


# -- counters derived from arguments and results ------------------------------


def _hook_evolve_lindblad(tracer, fn, args, kwargs, result, exc):
    bound = _bound(fn, args, kwargs)
    tracer.maxima["dynamics.segment_dim"] = max(
        tracer.maxima["dynamics.segment_dim"], _spec_dim(bound.get("rho"))
    )
    if exc is not None:
        if type(exc).__name__ == "StepSizeError":
            tracer.counts["dynamics.lindblad_retries"] += 1
        return
    t, dt = bound.get("t"), bound.get("dt")
    if t is not None and dt:
        tracer.counts["dynamics.rk4_steps"] += math.ceil(t / dt) if t > 0 else 0


def _hook_evolve_unitary(tracer, fn, args, kwargs, result, exc):
    bound = _bound(fn, args, kwargs)
    tracer.maxima["dynamics.segment_dim"] = max(
        tracer.maxima["dynamics.segment_dim"], _spec_dim(bound.get("state"))
    )


def _hook_roof(tracer, fn, args, kwargs, result, exc):
    if exc is not None:
        return
    noise = _bound(fn, args, kwargs).get("noise")
    tracer.counts["kernels.roof_proposals_used"] += int(result[2])
    tracer.counts["kernels.roof_proposals_offered"] += int(noise.shape[0])


def _hook_tangle_mixed(tracer, fn, args, kwargs, result, exc):
    restarts = _bound(fn, args, kwargs).get("restarts")
    if exc is None and restarts is not None:
        tracer.counts["entanglement.restarts"] += int(restarts)


_HOOKS = {
    "dynamics.evolve_lindblad": _hook_evolve_lindblad,
    "dynamics.evolve_unitary": _hook_evolve_unitary,
    "kernels.roof_descent": _hook_roof,
    "entanglement.three_tangle_mixed": _hook_tangle_mixed,
}
