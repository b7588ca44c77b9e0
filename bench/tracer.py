"""Span tracing of dpem's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every name it is bound
to inside ``dpem`` (``dpem.estimators.robust_mean_columns`` as well as
``dpem.robust.robust_mean_columns``), because callers look functions up in
their own module namespace and wrapping only the defining module would miss
them.  Each call becomes a span: name, start, end, parent span, thread and
run id.  Spans stay in memory until ``dump``.

Threads: the parent of a span is the top of the calling thread's own span
stack.  ``cli._run_parallel`` is wrapped so that each pool task runs inside a
``cli.worker`` span whose parent is the pool span on the submitting thread.
Counters and the span list are shared between threads and guarded by a lock.

``self_times`` turns spans into per-span self time: duration minus the union
of the child intervals.  Over one span tree, the self times add up to the
root's duration plus the time child spans overlapped one another (threads
running side by side), which ``self_times`` also returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
from time import perf_counter

# (span name, defining module, function).  Every binding of the function
# object anywhere in dpem is replaced, so the span name stays the layer's
# name wherever the caller lives.
FUNCTIONS = [
    ("robust.robust_mean_columns", "dpem.robust", "robust_mean_columns"),
    ("numeric.sample_gaussian", "dpem.numeric", "sample_gaussian"),
    ("models.grad_q_batch", "dpem.models", "grad_q_batch"),
    ("models.f_gmm_batch", "dpem.models", "f_gmm_batch"),
    ("models.sample_observations", "dpem.models", "sample_observations"),
    ("io.read_dataset", "dpem.io", "read_dataset"),
    ("io.write_dataset", "dpem.io", "write_dataset"),
    ("io.read_metadata", "dpem.io", "read_metadata"),
    ("io.write_metadata", "dpem.io", "write_metadata"),
    ("io.read_results", "dpem.io", "read_results"),
    ("io.write_results", "dpem.io", "write_results"),
    ("io.write_summary", "dpem.io", "write_summary"),
    ("estimators.gradient_em", "dpem.estimators", "gradient_em"),
    ("estimators.clipped_dp_gradient_em", "dpem.estimators", "clipped_dp_gradient_em"),
    ("estimators.dp_gradient_em", "dpem.estimators", "dp_gradient_em"),
    ("estimators.dp_em_gmm", "dpem.estimators", "dp_em_gmm"),
    ("accounting.make_budget", "dpem.accounting", "make_budget"),
    ("accounting.gaussian_sigma_for_zcdp", "dpem.accounting", "gaussian_sigma_for_zcdp"),
    ("accounting.split_budget_alg1", "dpem.accounting", "split_budget_alg1"),
    ("accounting.split_budget_alg2", "dpem.accounting", "split_budget_alg2"),
]

# (span name, defining module, class, method); patched on the class.
METHODS = [
    ("models.take", "dpem.models", "ObservationSet", "take"),
]

ESTIMATOR_SPANS = tuple(name for name, _, _ in FUNCTIONS if name.startswith("estimators."))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.patched: list[str] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root_id = 0

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, parent: int | None = None) -> tuple[int, int]:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self.root_id
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def end(self, span_id: int, parent: int, name: str, start: float, end: float,
            attrs: dict | None = None) -> None:
        self._stack().pop()
        record = (span_id, parent, name, threading.get_ident(), start, end, attrs)
        with self._lock:
            self.spans.append(record)

    def span(self, name: str, parent: int | None = None, attrs: dict | None = None):
        return _Span(self, name, parent, attrs)

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn, after=None, before=None):
        """Span around fn.  ``before(bound_args)`` runs first in its own
        ``trace.counters`` span and returns attrs; ``after(result)`` adds
        attrs from the result.  Neither is timed as part of the layer."""
        sig = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if before is not None:
                with self.span("trace.counters"):
                    attrs = before(sig.bind(*args, **kwargs).arguments)
            span_id, parent = self.begin()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span_id, parent, name, start, perf_counter(), attrs)
                raise
            stop = perf_counter()
            if after is not None:
                attrs = {**(attrs or {}), **after(result)}
            self.end(span_id, parent, name, start, stop, attrs)
            return result

        return wrapper

    def _rebind(self, original, wrapper, label: str) -> None:
        bound = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dpem" or mod_name.startswith("dpem.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self.patched.append(f"{mod_name}.{attr}")
                    bound = True
        if not bound:
            self.missing.append(label)

    def install(self) -> None:
        """Patch every traced name in the already imported dpem modules."""
        hooks = {
            "robust.robust_mean_columns": dict(before=_kernel_regimes),
            "io.read_dataset": dict(before=_input_bytes),
            "io.write_dataset": dict(before=_output_path),
        }
        for name in ESTIMATOR_SPANS:
            hooks[name] = dict(after=_iterations)
        for name, mod_name, attr in FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._rebind(original, self.wrap(name, original, **hooks.get(name, {})),
                         f"{mod_name}.{attr}")
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
            self.patched.append(f"{mod_name}.{cls_name}.{attr}")
        self._install_counters()
        self._install_pool()

    def _install_counters(self) -> None:
        numeric = importlib.import_module("dpem.numeric")
        split = numeric.RngStream.split
        tracer = self

        @functools.wraps(split)
        def counted_split(stream, index):
            tracer.count("numeric.rng_splits")
            return split(stream, index)

        numeric.RngStream.split = counted_split
        self.patched.append("dpem.numeric.RngStream.split")

    def _install_pool(self) -> None:
        cli = importlib.import_module("dpem.cli")
        run_parallel = getattr(cli, "_run_parallel", None)
        if run_parallel is None:
            self.missing.append("dpem.cli._run_parallel")
            return
        tracer = self

        @functools.wraps(run_parallel)
        def traced_run_parallel(tasks, worker, threads):
            with tracer.span("cli.pool", attrs={"threads": int(threads)}) as pool_id:
                def traced_worker(spec):
                    with tracer.span("cli.worker", parent=pool_id):
                        return worker(spec)

                return run_parallel(tasks, traced_worker, threads)

        cli._run_parallel = traced_run_parallel
        self.patched.append("dpem.cli._run_parallel")

    # --------------------------------------------------------------- output

    def dump(self, path, **extra) -> None:
        """Write spans, counters and patch lists as JSON; output files named
        by write spans get their size, now that the command has finished."""
        for record in self.spans:
            attrs = record[6]
            if attrs and "path" in attrs and os.path.exists(attrs["path"]):
                attrs["bytes"] = os.path.getsize(attrs["path"])
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "thread": s[3],
                 "start": s[4], "end": s[5], "attrs": s[6]}
                for s in self.spans
            ],
            "counters": self.counters,
            "patched": self.patched,
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _Span:
    __slots__ = ("tracer", "name", "parent", "attrs", "span_id", "start")

    def __init__(self, tracer, name, parent, attrs):
        self.tracer, self.name, self.parent, self.attrs = tracer, name, parent, attrs

    def __enter__(self) -> int:
        self.span_id, self.parent = self.tracer.begin(self.parent)
        self.start = perf_counter()
        return self.span_id

    def __exit__(self, *exc) -> None:
        stop = perf_counter()
        self.tracer.end(self.span_id, self.parent, self.name, self.start, stop, self.attrs)


# ----------------------------------------------------------------- hooks


def _kernel_regimes(arguments: dict) -> dict:
    """Entry counts per kernel regime, from the arguments alone, with the
    kernel's own threshold."""
    import numpy as np
    from dpem import robust

    x = np.asarray(arguments["matrix"], dtype=float)
    p = arguments["p"]
    limit = robust._CLOSED_FORM_LIMIT
    a = x / p.s
    with np.errstate(over="ignore"):
        b = np.abs(x) / (p.s * math.sqrt(p.beta))
    positive = b > 0.0
    near = positive & (np.abs(a) <= limit) & (b <= limit)
    far = positive & ~near
    return {"entries": int(x.size), "near": int(near.sum()), "far": int(far.sum())}


def _input_bytes(arguments: dict) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


def _output_path(arguments: dict) -> dict:
    return {"path": str(arguments["path"])}


def _iterations(trace) -> dict:
    return {"iterations": int(trace.betas.shape[0]) - 1}


# --------------------------------------------------------------- analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the total overlap between sibling spans.

    For one tree, ``sum(self) == root duration + overlap``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    selfs: dict[int, float] = {}
    overlap = 0.0
    for s in spans:
        kids = children.get(s["id"], [])
        covered = _union_length(kids)
        selfs[s["id"]] = (s["end"] - s["start"]) - covered
        overlap += sum(e - b for b, e in kids) - covered
    return selfs, overlap
