"""Outside-in tracing of the monolim layers, for the benchmark's traced run.

``Tracer.install`` wraps the public functions and methods that each layer
module defines and rebinds every name that refers to one of them: module
globals in every loaded monolim module (names brought in with
``from .lattice import rel_length``), class attributes, and aliases such as
``MonomialIdeal.__mul__``, which is the same function object as
``multiply``.  Each wrapped call appends one span (name, start, end, parent)
to an in-memory list; nothing is written until the caller asks.

``MonomialIdeal.contains`` and ``dominates`` stay unwrapped: one staircase
pass calls them about 160k and 3.9M times, and a span each would swamp the
trace.  Their time is charged to the wrapped caller.  Generator functions stay
unwrapped too, since a span would close before the generator runs.
"""

from __future__ import annotations

import inspect
import math
import sys
import time

LAYERS = ("lattice", "families", "asymptotics", "convex", "semigroup",
          "reportio", "cli")
UNWRAPPED = {"lattice.dominates", "lattice.MonomialIdeal.contains"}


def _public_callables(layer: str, module):
    """(span name, function) for each public function and method it defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                func = getattr(raw, "__func__", raw)  # unwrap static/class methods
                if not attr.startswith("_") and inspect.isfunction(func):
                    yield f"{layer}.{name}.{attr}", func


def _bindings(module):
    """(namespace, key) pairs in a module where a function may be bound:
    module globals, class attributes, and values of module-level dicts."""
    for key, value in list(vars(module).items()):
        if key.startswith("__"):
            continue
        yield vars(module), key
        if inspect.isclass(value) and value.__module__.startswith("monolim"):
            for attr in list(vars(value)):
                yield value, attr
        elif isinstance(value, dict):
            for k in list(value):
                yield value, k


class Tracer:
    """Span recorder that patches the monolim package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.members: list[tuple[int, int, int]] = []
        self._wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        self._restore: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every wrapped name; wrappers are built on the first call."""
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"monolim.{layer}"]
                for name, func in _public_callables(layer, module):
                    if name in UNWRAPPED or inspect.isgeneratorfunction(func):
                        continue
                    self.names.append(name)
                    wrapper = self._wrap(len(self.names) - 1, name, func)
                    self._wrappers[id(func)] = (func, wrapper)
        for module in _package_modules():
            for space, key in _bindings(module):
                self._rebind(space, key)
        stale = self.unpatched()
        if stale:
            self.uninstall()
            raise RuntimeError(f"trace hooks missed bindings: {stale}")

    def _original(self, raw):
        """The wrapped original behind ``raw`` (maybe a static/class method)."""
        func = getattr(raw, "__func__", raw)
        entry = self._wrappers.get(id(func))
        return entry if entry is not None and entry[0] is func else None

    def _rebind(self, space, key) -> None:
        raw = _get(space, key)
        entry = self._original(raw)
        if entry is None:
            return
        wrapper = entry[1]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = type(raw)(wrapper)
        self._restore.append((space, key, raw))
        _set(space, key, wrapper)

    def uninstall(self) -> None:
        for space, key, raw in reversed(self._restore):
            _set(space, key, raw)
        self._restore.clear()

    def unpatched(self) -> list[str]:
        """Bindings in the package that still point at an unwrapped original."""
        stale = []
        for module in _package_modules():
            for space, key in _bindings(module):
                if self._original(_get(space, key)) is not None:
                    stale.append(f"{module.__name__}: {key}")
        return stale

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.members.clear()

    def _count(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _hook(self, hook, default, *args):
        """Run a counter hook; one that no longer fits the program's
        signatures loses its count (tallied as ``hook_errors``), never the call."""
        try:
            return hook(self, *args)
        except Exception:
            self._count("hook_errors", 1)
            return default

    def _wrap(self, sid: int, name: str, func):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = tracer._hook(before, args, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, t0, t1, parent)
            if after is not None:
                tracer._hook(after, None, idx, args, result)
            return result

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    # -- analysis -------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-pass figures: span names' calls and self time, layer self time."""
        n = len(self.spans)
        child = [0] * n
        has_child = [False] * n
        for sid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                has_child[parent] = True
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, (sid, t0, t1, _parent) in enumerate(self.spans):
            name = self.names[sid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child[i])
        layer_ns = {layer: 0 for layer in LAYERS}
        for name, ns in self_ns.items():
            layer_ns[name.split(".", 1)[0]] += ns
        computed = [(fam, m, self.spans[idx][2] - self.spans[idx][1])
                    for idx, fam, m in self.members if has_child[idx]]
        return {"spans": n, "calls": calls, "self_ns": self_ns,
                "layer_ns": layer_ns, "counts": dict(self.counts),
                "member_requests": len(self.members),
                "member_computed": len(computed),
                "member_growth": _growth(computed)}

    def dump(self) -> dict:
        return {"names": self.names,
                "spans": [list(s) for s in self.spans],
                "fields": ["name_index", "start_ns", "end_ns", "parent"]}


def _get(space, key):
    return space[key] if isinstance(space, dict) else vars(space)[key]


def _set(space, key, value) -> None:
    if isinstance(space, dict):
        space[key] = value
    else:
        setattr(space, key, value)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "monolim" or n.startswith("monolim.")) and m is not None]


def _growth(computed) -> float:
    """Log-log slope of member time against n over the upper half of n.

    Uses the family with the most computed members; 0.0 when fewer than
    three points are available.
    """
    by_family: dict[int, dict[int, int]] = {}
    for fam, n, ns in computed:
        if n > 0:
            by_family.setdefault(fam, {})[n] = ns
    if not by_family:
        return 0.0
    series = max(by_family.values(), key=len)
    top = max(series)
    pts = [(math.log(n), math.log(ns)) for n, ns in series.items()
           if 2 * n >= top and ns > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


# -- counters read from arguments and results ------------------------------------


def _materialize_gens(tracer, args):
    ring, gens, *rest = args
    if not isinstance(gens, (list, tuple, set, frozenset)):
        gens = list(gens)
    tracer._count("minimalize.cand_in", len(gens))
    return (ring, gens, *rest)


def _kept(tracer, idx, args, result):
    tracer._count("minimalize.kept", len(result.gens))


def _pairs(tracer, args):
    tracer._count("minimalize.cand_in", len(args[0].gens) * len(args[1].gens))
    return args


def _union(tracer, args):
    tracer._count("minimalize.cand_in", len(args[0].gens) + len(args[1].gens))
    return args


def _bytes_out(tracer, idx, args, result):
    tracer._count("bytes_out", len(result.encode()))


def _cache_hit(tracer, idx, args, result):
    tracer._count("cache.hits", result is not None)


def _facets(tracer, idx, args, result):
    tracer._count("hull.facets", len(result.halfspaces))


def _levels(tracer, idx, args, result):
    tracer._count("points", sum(result.counts.values()))
    tracer._count("points_retained", sum(len(p) for p in result.levels.values()))


def _member(tracer, idx, args, result):
    tracer.members.append((idx, id(args[0]), args[1]))


_HOOKS = {
    "lattice.MonomialIdeal.from_gens": (_materialize_gens, _kept),
    "lattice.MonomialIdeal.multiply": (_pairs, _kept),
    "lattice.MonomialIdeal.intersect": (_pairs, _kept),
    "lattice.MonomialIdeal.add": (_union, _kept),
    "reportio.render_csv": (None, _bytes_out),
    "reportio.render_json": (None, _bytes_out),
    "reportio.ResultCache.get": (None, _cache_hit),
    "convex.hull_region": (None, _facets),
    "semigroup.enumerate_levels": (None, _levels),
    "families.GradedFamily.member_ideal": (None, _member),
}
