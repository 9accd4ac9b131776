"""Spans around the calls the benchmark makes into each package module.

A :class:`Tracer` keeps spans in memory: name, start, end, parent index
and a few attributes. ``Tracer.install`` swaps the public functions listed
in :data:`TRACED` for wrappers in every loaded ``capacities`` module that
binds them, so calls made inside the CLI and between modules show up as
child spans too. ``make_extension`` results are rebuilt around a counting
``fn`` (the exported ``Extension`` dataclass takes any callable), which
counts and times every evaluation and charges the time to the innermost
open span. ``Tracer.uninstall`` restores the originals, so untraced phases
run the package exactly as shipped. Nothing under ``src/`` is modified.
Span times are raw wall times.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict

import numpy as np

from clock import perf

# Public functions wrapped in a traced run, by module. The span name is
# "<module>.<function>".
TRACED = {
    "set_function": (
        "as_capacity",
        "mobius",
        "zeta",
        "co_mobius",
        "ordinal_mobius",
        "ordinal_zeta",
        "conjugate",
        "vector_from_dict",
        "to_dict",
    ),
    "subsets": ("popcounts",),
    "integrals": ("make_extension", "certify", "pseudo_product_extension"),
    "interaction": ("interaction_index", "shapley", "interaction_report"),
    "axioms": ("check_axiom", "compare_extensions", "check_pseudo_product"),
    "model": ("model_from_dict", "acts_from_obj", "rank_acts"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "ext_s", "evals", "child_s")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs
        self.ext_s = 0.0  # extension evaluations charged directly to this span
        self.evals = 0
        self.child_s = 0.0  # time covered by direct child spans

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus child spans and extension evaluations inside it."""
        return self.seconds - self.child_s - self.ext_s

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "attrs": self.attrs,
            "ext_s": self.ext_s,
            "evals": self.evals,
        }


class Tracer:
    """In-memory span recorder; the op span of each top-level op is its root."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.evals = defaultdict(lambda: [0, 0.0])  # (extension, n) -> [count, seconds]
        self.n_evals = 0
        self.ext_total = 0.0
        self._saved = []

    def begin(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf(), parent, attrs))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds
        return span

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    def on_eval(self, key, seconds: float) -> None:
        stat = self.evals[key]
        stat[0] += 1
        stat[1] += seconds
        self.n_evals += 1
        self.ext_total += seconds
        if self.stack:
            span = self.spans[self.stack[-1]]
            span.ext_s += seconds
            span.evals += 1

    # -- patching -----------------------------------------------------------

    def install(self, C) -> None:
        """Wrap the public functions of :data:`TRACED` wherever they are bound."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "capacities"]
        for mod_name, names in TRACED.items():
            home = getattr(C, mod_name)
            for fn_name in names:
                orig = getattr(home, fn_name)
                if fn_name == "make_extension":
                    wrapped = self._wrap_make_extension(orig, C.Extension)
                else:
                    wrapped = self._wrap(orig, "%s.%s" % (mod_name, fn_name), _RESULT_ATTRS.get(fn_name))
                for mod in modules:
                    if getattr(mod, fn_name, None) is orig:
                        self._saved.append((mod, fn_name, orig))
                        setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._saved):
            setattr(mod, fn_name, orig)
        self._saved = []

    def _wrap(self, fn, name, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, **_call_attrs(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.end(idx)
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        return wrapper

    def _wrap_make_extension(self, fn, Extension):
        tracer = self

        @functools.wraps(fn)
        def make_extension(name, mu, *rest, **kwargs):
            idx = tracer.begin("integrals.make_extension", ext=name, n=mu.n)
            try:
                ext = fn(name, mu, *rest, **kwargs)
            finally:
                tracer.end(idx)
            return Extension(ext.name, ext.n, ext.domain, _counting(tracer, ext))

        return make_extension


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "idx")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.idx = self.tracer.begin(self.name, **self.attrs)
        return self.tracer.spans[self.idx]

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call."""

    def span(self, name: str, **attrs):
        return _NULL


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


def _counting(tracer: Tracer, ext):
    fn = ext.fn
    key = (ext.name, ext.n)

    def counted(t):
        t0 = perf()
        out = fn(t)
        tracer.on_eval(key, perf() - t0)
        return out

    return counted


def _n_of(obj):
    """Criteria count of a table-like argument, if it has one."""
    if isinstance(obj, dict):
        return obj.get("n")
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        return obj.shape[0].bit_length() - 1
    n = getattr(obj, "n", None)
    return n if isinstance(n, int) else None


def _call_attrs(args, kwargs) -> dict:
    if not args:
        return {}
    first = args[0]
    if isinstance(first, str) and len(args) > 1:  # check_axiom(axiom, extension, mu, ...)
        return {"axiom": first, "ext": getattr(args[1], "name", None), "n": getattr(args[1], "n", None)}
    if isinstance(first, int) and not isinstance(first, bool):  # popcounts(n)
        return {"n": first}
    n = kwargs.get("n") if isinstance(kwargs.get("n"), int) else _n_of(first)
    return {"n": n} if n is not None else {}


def _report_attrs(report) -> dict:
    return {"trials": report.samples_tested + report.skipped, "skipped": report.skipped}


def _ranking_attrs(ranking) -> dict:
    return {"acts": len(ranking), "indifferent": sum(r.indifferent_to_previous for r in ranking)}


_RESULT_ATTRS = {
    "check_axiom": _report_attrs,
    "rank_acts": _ranking_attrs,
    "acts_from_obj": lambda acts: {"acts": len(acts)},
}
