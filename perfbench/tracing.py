"""Timing spans around latmorse's functions, installed from outside the package.

``install`` wraps the public functions of every latmorse module (plus the few
private entry points named in EXTRA) wherever they are bound: as module
attributes, which also catches calls inside the same module and lru_cache
wrappers, as class attributes, and as ``from ... import`` bindings in other
modules.  Each call records a span (name, start, end, parent, error, built,
size) in memory; ``Tracer.take`` reduces the spans recorded so far to
per-name counts and self times and clears them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("rootsys", "modforms", "symspace", "latcat", "enumlat", "morse", "cli")

# private functions that are layer entry points
EXTRA = {
    "latcat": ("_catalog", "_series_pair"),
    "modforms": ("_eisenstein_cached",),
}

# (module, class, methods) patched on the class
METHODS = (
    ("modforms", "QSeries", ("__add__", "__sub__", "__mul__", "scale", "floats", "coefficient")),
    ("modforms", "CoeffBound", ("eval", "series_tail")),
    ("latcat", "LatticeEntry", ("series_floats", "coeff_bound")),
)

# exact q-series constructors: a call that misses its cache builds a series
CONSTRUCTORS = frozenset({
    "modforms.eisenstein", "modforms.discriminant", "modforms.cusp_normalized",
    "modforms.theta_even_unimodular",
})

QSERIES = CONSTRUCTORS | {
    "modforms._eisenstein_cached", "modforms.bernoulli", "modforms.sigma",
    "modforms.divisor_count", "modforms.eisenstein_first_coeff",
    "latcat._series_pair", "latcat.LatticeEntry.series_floats",
} | {f"modforms.QSeries.{m}" for m in METHODS[0][2]}

BOUNDS = frozenset({
    "modforms.zeta_upper", "modforms.round_up_significant", "modforms.eisenstein_coeff_bound",
    "modforms.jenkins_rouse_constant", "modforms.cusp_coeff_bound", "modforms.theta_coeff_bound",
    "modforms.incomplete_gamma", "modforms.tail_bound", "modforms.CoeffBound.eval",
    "modforms.CoeffBound.series_tail", "latcat.LatticeEntry.coeff_bound",
})

KERNEL = "morse.hessian_spectrum"
ROUND = "latcat.LatticeEntry.series_floats"


def _size(result) -> int | None:
    """Length of a q-series or of the coefficient arrays of series_floats."""
    if hasattr(result, "length"):
        return result.length
    if isinstance(result, tuple) and result and hasattr(result[0], "shape"):
        return len(result[0])
    return None


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        clock, spans, stack = self.clock, self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None)
        sized = name in CONSTRUCTORS or name == ROUND

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            misses = cache_info().misses if cache_info else 0
            error = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                built = cache_info is None or cache_info().misses > misses
                size = _size(result) if sized and error is None else None
                spans[index] = (name, start, end, parent, error, built, size)

        return traced

    def reset_stack(self) -> None:
        """Forget open spans, e.g. after a signal cut a call short."""
        self.stack.clear()

    def take(self) -> dict:
        """Summary of the spans recorded since the last take; clears them."""
        summary = summarize(self.spans)
        self.spans.clear()
        self.stack.clear()
        return summary


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans are (name, start, end, parent, ...) tuples with ``parent`` the index
    of the enclosing span or -1.  Spans cut short by a signal may be None.
    """
    selfs = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span is None:
            continue
        duration = span[2] - span[1]
        selfs[i] += duration
        if span[3] >= 0:
            selfs[span[3]] -= duration
    return selfs


def summarize(spans) -> dict:
    """Per-name calls, total and self seconds, plus the q-series and kernel counters."""
    summary = empty_summary()
    calls, total, selfs = summary["calls"], summary["total"], summary["self"]
    for span, self_s in zip(spans, self_times(spans)):
        if span is None:
            continue
        name, start, end, parent, error, built, size = span
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        selfs[name] = selfs.get(name, 0.0) + self_s
        if name in CONSTRUCTORS and built and size is not None:
            summary["built"] += 1
            summary["max_length"] = max(summary["max_length"], size)
        parent_span = spans[parent] if parent >= 0 else None
        if name == ROUND and size is not None and parent_span and parent_span[0] == KERNEL:
            terms = size - 1
            summary["kernel_rounds"] += 1
            summary["kernel_terms"] += terms
            summary["kernel_max_terms"] = max(summary["kernel_max_terms"], terms)
    return summary


def empty_summary() -> dict:
    return {"calls": {}, "total": {}, "self": {}, "built": 0, "max_length": 0,
            "kernel_rounds": 0, "kernel_terms": 0, "kernel_max_terms": 0}


def merge(summaries) -> dict:
    out = empty_summary()
    for s in summaries:
        for key in ("calls", "total", "self"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for key in ("built", "kernel_rounds", "kernel_terms"):
            out[key] += s[key]
        for key in ("max_length", "kernel_max_terms"):
            out[key] = max(out[key], s[key])
    return out


def install(tracer: Tracer, package: str = "latmorse") -> None:
    """Wrap latmorse's functions in spans."""
    modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
    replaced = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            wanted = not attr.startswith("_") or attr in EXTRA.get(short, ())
            defined_here = getattr(value, "__module__", None) == module.__name__
            if wanted and defined_here and callable(value) and not inspect.isclass(value):
                wrapper = tracer.wrap(f"{short}.{attr}", value)
                replaced[id(value)] = (value, wrapper)
                setattr(module, attr, wrapper)
    for short, cls_name, methods in METHODS:
        cls = getattr(modules[short], cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(f"{short}.{cls_name}.{method}", vars(cls)[method]))
    # from-import bindings, e.g. morse.second_moment and the package namespace
    for module in [importlib.import_module(package), *modules.values()]:
        for attr, value in list(vars(module).items()):
            original = replaced.get(id(value))
            if original is not None and original[0] is value:
                setattr(module, attr, original[1])
