"""Timing wrappers installed from the benchmark around the library's layers.

Nothing under ``src/`` knows about tracing. ``install`` replaces selected
public functions with wrappers on the name each caller looks up (for
example ``solver.feasible_actions``, because ``solver`` imports that
function by name) and ``Tracer.uninstall`` puts the originals back.

Coarse calls (a solve, a mask, a block, an export, a path) become spans:
name, start, end, thread, parent span and the thread's CPU time inside
the span, kept in memory. Hot scalar calls (hundreds of thousands per
solve) only bump a counter, optionally with their summed time, so that
the trace does not dominate what it measures.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    cpu: float   # CPU seconds of the span's thread between start and end

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counters; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        # Open main-thread spans that adopt spans started on pool threads.
        self._fanout: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def maximum(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def span(self, owner, attr: str, name: str, fanout: bool = False, on_result=None) -> None:
        """Record every call of owner.attr as a span; on_result(tracer, result) after it."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else (self._fanout[-1] if self._fanout else None)
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            stack.append(sid)
            if fanout:
                self._fanout.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                if fanout:
                    self._fanout.pop()
                with self._lock:
                    self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent,
                                           cpu))
            if on_result is not None:
                on_result(self, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, timed: bool = False) -> None:
        """Count calls of owner.attr under name (and sum their time if timed)."""
        fn = getattr(owner, attr)
        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    with self._lock:
                        self.counts[name] += 1
                        self.seconds[name] += elapsed
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self._lock:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
        self._patch(owner, attr, wrapper)


def _count_mask(tracer: Tracer, mask) -> None:
    tracer.add("constraints.feasible_pairs", int(mask.sum()))
    tracer.add("constraints.mask_cells", int(mask.size))


def _count_block(tracer: Tracer, block) -> None:
    # A block of shape (src a, src b, cells a, cells b) comes from one
    # bivariate CDF per source pair and lattice corner: (cells + 1) edges per axis.
    a, b, c, d = block.shape
    tracer.add("kernel.bvn_evals", a * b * (c + 1) * (d + 1))
    tracer.maximum("kernel.block_bytes_max", int(block.nbytes))


def _count_export(tracer: Tracer, written) -> None:
    tracer.add("cli.export.bytes", sum(os.path.getsize(p) for p in written))


def install() -> Tracer:
    """Wrap every traced layer of the package and return the live tracer."""
    from microgrid_dp import cli, config, constraints, grid, kernel, simulate, solver

    t = Tracer()
    t.span(solver, "solve", "solver.solve", fanout=True)
    t.span(solver, "feasibility_mask", "solver.feasibility_mask", on_result=_count_mask)
    t.span(kernel.TransitionKernel, "battery_block", "kernel.battery_block", on_result=_count_block)
    t.span(kernel.TransitionKernel, "generator_block", "kernel.generator_block",
           on_result=_count_block)
    t.span(solver, "step_q_values", "solver.step_q_values")
    t.span(cli, "export_value_policy", "cli.export_value_policy", on_result=_count_export)
    t.span(cli, "main", "cli.main")
    t.span(cli, "simulate_path", "simulate.simulate_path")
    for owner in (config, cli):
        t.span(owner, "load_config", "config.load_config")
    for owner in (grid, cli):
        t.span(owner, "build_grid", "grid.build_grid")

    t.count(solver, "feasible_actions", "constraints.feasible_actions")
    # Only the feasibility check's calls: they scale with the solve, while
    # the simulator's calls (inside transition_operator) depend on the seed.
    t.count(constraints, "q_moments", "dynamics.q_moments")
    t.count(constraints, "g_moments", "dynamics.g_moments")
    for owner in (solver, simulate):
        t.count(owner, "expected_stage_cost", "cost.expected_stage_cost", timed=True)
    t.count(simulate, "transition_operator", "dynamics.transition_operator", timed=True)
    for owner in (simulate, kernel):
        t.count(owner, "cell_of", "grid.cell_of")
    return t


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])
