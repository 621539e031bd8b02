"""In-memory span tracer for the traced benchmark run.

A span is ``[name, start, end, parent, group, work]``: ``name`` is
``<layer>.<what>``, ``parent`` the index of the enclosing span (-1 at the
top), ``group`` the set-up repeat or measured round the span belongs to and
``work`` a count of items the call handled (coins, for the RNG layer).

Spans are recorded from this directory only: :func:`installed` swaps the
program's functions for wrappers at the layer boundaries that are crossed
inside the program (the CSR kernel calling the coin hashes, the Spark
planners, the graph generators), and the workloads open spans around the
calls they make themselves. Nothing under ``src/`` knows it is traced, so
Spark workers, which run in other processes, are not traced.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np


_NULL_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("_tracer", "_name", "_work")

    def __init__(self, tracer: "Tracer", name: str, work: int) -> None:
        self._tracer, self._name, self._work = tracer, name, work

    def __enter__(self):
        self._tracer.begin(self._name, self._work)
        return self

    def __exit__(self, *exc):
        self._tracer.end()
        return False


class Tracer:
    """Span recorder; while ``enabled`` is false every hook is a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.group = "setup"
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, work: int = 0) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group, work])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name: str, work: int = 0):
        """Context manager recording one span (no-op while disabled)."""
        return _Span(self, name, work) if self.enabled else _NULL_SPAN

    def wrap(self, fn, name: str, work=None):
        """``fn`` wrapped in a span; ``work(args)`` counts the items handled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.begin(name, work(args) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for name, start, end, parent, group, work in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "group": group, "work": work}
                    )
                    + "\n"
                )


def _boundaries():
    """(owner, attribute, span name, work counter) for every wrapped call."""
    from repro.diffusion import csr_engine, spark_engine
    from repro.graphs import csr, generators, weights
    from repro.im import spread

    return [
        (generators, "erdos_renyi", "graphs.generate", None),
        (generators, "watts_strogatz", "graphs.generate", None),
        (generators, "random_regular", "graphs.generate", None),
        (generators, "facebook_like", "graphs.generate", None),
        (csr, "build_csr", "graphs.build_csr", None),
        (weights, "edge_weights", "graphs.edge_weights", None),
        # The coin hashes as the CSR kernel imports them. Only the vector
        # paths are counted: the kernel's scalar path hashes one coin per
        # Python call, where a wrapper would cost more than the hash.
        (csr_engine, "uniforms", "rng.uniforms", lambda a: int(np.size(a[2]))),
        (csr_engine, "uniforms_mixed", "rng.uniforms_mixed", lambda a: int(np.size(a[1]))),
        (csr_engine, "trial_bases", "rng.trial_bases", None),
        (csr_engine.CSREngine, "run_many", "csr_engine.run_many", None),
        (csr_engine.CSREngine, "run", "csr_engine.run", None),
        (spark_engine, "run_trials_df", "spark.plan", None),
        (spread, "marginal_gains_spark", "spark.plan", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the layer boundaries for traced wrappers; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, work in _boundaries():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, work))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def totals_by_group(spans) -> dict:
    """``{group: totals}``: per-name inclusive seconds, calls and work, and
    per-layer self time (``<layer>.self_s``).

    A span's self time is its duration minus that of its direct children;
    children never overlap because the benchmark drives one call at a time.
    """
    child = defaultdict(float)
    for name, start, end, parent, group, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _parent, group, work) in enumerate(spans):
        t = out[group]
        t[name + ":s"] += end - start
        t[name + ":calls"] += 1
        t[name + ":work"] += work
        t[name.split(".")[0] + ".self_s"] += end - start - child[i]
    return out
