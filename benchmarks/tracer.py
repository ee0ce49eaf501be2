"""Layer tracer for the benchmark's traced run.

The tracer patches the names that callers inside the package resolve
(``totpcount.estimator.truncate``, ``totpcount.chain.lazy_step``,
``totpcount.cli.is_instance`` ...) and restores them on exit; the package
itself is not changed.  Coarse boundaries become spans (id, parent, call
id, start, end), kept in memory and written when the run ends.  Hot
functions (``lazy_step``, ``InstanceTree.children`` and the adapters'
``step``/``decision``) only get a call counter and cumulative time, since
one walk-oracle call makes millions of them.  Times of nested functions
are inclusive: ``chain.lazy_step_s`` contains the ``children`` replays it
triggers, which contain the ``step`` calls.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# importlib, because the package re-exports a function named ``capp``
# that shadows the submodule attribute.
capp, chain, cli, estimator, machine = (
    importlib.import_module(f"totpcount.{name}")
    for name in ("capp", "chain", "cli", "estimator", "machine")
)

# Draws per walker count that the RNG-only replay times.
RNG_REPLAY_DRAWS = 2000

# Per-layer metrics in report order, with units.  Counts and times are per
# traced call (means over the calls of the traced phase); times of work in
# pool threads add up across threads.  trace.call_s.mean is the traced
# call time they compare with; trace.overhead_s is the traced minus the
# untraced call_s.p50.
PER_LAYER = {
    "cli.load_s": "s",
    "problems.step_calls": "count",
    "problems.decision_calls": "count",
    "problems.oracle_s": "s",
    "machine.children_calls": "count",
    "machine.children_s": "s",
    "machine.steps_per_children": "ratio",
    "machine.useful_frac": "ratio",
    "trees.truncate_calls": "count",
    "trees.truncate_s": "s",
    "trees.materialize_s": "s",
    "trees.materialize_nodes": "count",
    "chain.walk_s": "s",
    "chain.walk_steps": "count",
    "chain.walk_steps_per_s": "1/s",
    "chain.rng_s": "s",
    "chain.gather_s": "s",
    "chain.index_build_s": "s",
    "chain.lazy_step_calls": "count",
    "chain.lazy_step_s": "s",
    "chain.lazy_steps_per_s": "1/s",
    "chain.alpha_calls": "count",
    "chain.alpha_s": "s",
    "chain.planned_steps": "count",
    "chain.planned_steps_default_burn": "count",
    "chain.executed_steps": "count",
    "chain.samples": "count",
    "chain.root_hit_frac": "ratio",
    "estimator.alpha_s.max_share": "ratio",
    "estimator.pool_speedup": "ratio",
    "estimator.threshold_nodes": "count",
    "estimator.threshold_s": "s",
    "estimator.telescope_s": "s",
    "estimator.err_ratio.p50": "ratio",
    "capp.calls": "count",
    "capp.cache_hits": "count",
    "trace.call_s.mean": "s",
    "trace.overhead_s": "s",
}


class TraceTargetError(RuntimeError):
    """A function the tracer wraps is gone or has changed its parameters.

    The run stops rather than report the layer's metrics as zero.
    """


def _signature(fn, *names: str) -> inspect.Signature:
    signature = inspect.signature(fn)
    absent = [n for n in names if n not in signature.parameters]
    if absent:
        raise TraceTargetError(f"{fn.__qualname__} has no parameter {', '.join(absent)}")
    return signature


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.spans: list[dict] = []
        self.hot: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.draw_calls: Counter = Counter()  # walkers per draw -> number of draws
        self.call_id: int | None = None
        self._seen: set = set()
        self._next_id = 0
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # A pool thread's first span hangs under the main thread's open span.
        parent = (stack or self._main_stack or [None])[-1]
        with self.lock:
            sid = self._next_id
            self._next_id += 1
        rec = {"id": sid, "parent": parent, "call": self.call_id, "name": name}
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self.lock:
                self.spans.append(rec)

    @contextmanager
    def call(self, call_id: int):
        self.call_id = call_id
        try:
            with self.span("call") as rec:
                yield rec
        finally:
            self.counts["distinct_nodes"] += len(self._seen)
            self._seen.clear()
            self.call_id = None

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec.update(note(args, out))
                return out

        return wrapper

    def _hot(self, name, fn, seen=False):
        cell, lock, clock, distinct = self.hot[name], self.lock, time.perf_counter, self._seen

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                with lock:
                    cell[0] += 1
                    cell[1] += dt
                    if seen and len(args) > 1:
                        distinct.add((id(args[0]), tuple(args[1])))

        return wrapper

    def _adapter(self, make):
        def wrapper(*args, **kwargs):
            inst = make(*args, **kwargs)
            return dataclasses.replace(
                inst,
                step=self._hot("problems.step", inst.step),
                decision=self._hot("problems.decision", inst.decision),
            )

        return wrapper

    def _counting_alpha(self, fn):
        # Counts root hits of walked samples only; the exact transport draws
        # its hits from a binomial and walks no steps.
        signature = _signature(fn, "draw_hits", "steps_per_sample")

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if not bound.arguments["steps_per_sample"]:
                return fn(*args, **kwargs)
            draw_hits = bound.arguments["draw_hits"]

            def counted(m):
                hits = draw_hits(m)
                with self.lock:
                    self.counts["hits"] += hits
                    self.counts["samples"] += m
                return hits

            bound.arguments["draw_hits"] = counted
            return fn(*bound.args, **bound.kwargs)

        return wrapper

    def _walk(self, fn):
        _signature(fn, "self", "n_walkers", "steps")

        def wrapper(indexed, n_walkers, steps, *args, **kwargs):
            with self.span("walk_batch") as rec:
                finals = fn(indexed, n_walkers, steps, *args, **kwargs)
                rec.update(walkers=n_walkers, steps=steps)
            with self.lock:
                self.draw_calls[n_walkers] += steps
            return finals

        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            with self.lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrap):
        original = owner.__dict__.get(attr)
        if original is None:
            raise TraceTargetError(f"{getattr(owner, '__name__', owner)}.{attr} is gone")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    @contextmanager
    def installed(self):
        """Patch the package's call sites; restore them on exit."""
        try:
            nodes = lambda args, out: {"nodes": len(out.nodes)}  # noqa: E731
            visited = lambda args, out: {"nodes": out.nodes_visited}  # noqa: E731
            for owner, attr in ((cli, "_load_tree_source"), (cli, "_load_circuit_source")):
                self._patch(owner, attr, lambda f: self._spanned("load", f))
            for owner in (cli, capp, estimator):
                self._patch(owner, "estimate_size", lambda f: self._spanned("estimate", f))
            for owner in (cli, estimator):
                self._patch(owner, "count_up_to", lambda f: self._spanned("count_up_to", f, visited))
            for owner in (estimator, chain):
                self._patch(owner, "materialize", lambda f: self._spanned("materialize", f, nodes))
            self._patch(estimator, "truncate", lambda f: self._spanned("truncate", f))
            self._patch(estimator, "telescoped_size", lambda f: self._spanned("telescope", f))
            self._patch(chain, "estimate_alpha", lambda f: self._spanned("estimate_alpha", f))
            self._patch(chain, "_alpha_from_hits", self._counting_alpha)
            self._patch(chain.IndexedTree, "__init__", lambda f: self._spanned("index_build", f))
            self._patch(chain.IndexedTree, "walk_batch", self._walk)
            self._patch(chain, "lazy_step", lambda f: self._hot("chain.lazy_step", f))
            self._patch(machine.InstanceTree, "children",
                        lambda f: self._hot("machine.children", f, seen=True))
            for owner in (cli, capp):
                self._patch(owner, "capp", lambda f: self._counted("capp_calls", f))
            for owner, attr in ((cli, "is_instance"), (cli, "dnf_instance"),
                                (cli, "monotone_instance"), (capp, "dnf_instance"),
                                (capp, "monotone_instance")):
                self._patch(owner, attr, self._adapter)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # -- summary -------------------------------------------------------------

    def rng_seconds(self, seed: int) -> float:
        """RNG share of the walker: replay each traced batch width, draws only.

        Times up to ``RNG_REPLAY_DRAWS`` draws of ``rng.integers(0, 8,
        size=n)`` per walker count n and scales to the number of draws the
        traced ``walk_batch`` calls made at that width.
        """
        rng = np.random.default_rng(seed % 2**64)
        total = 0.0
        for n, draws in sorted(self.draw_calls.items()):
            reps = min(draws, RNG_REPLAY_DRAWS)
            rng.integers(0, 8, size=n, dtype=np.int64)
            t0 = time.perf_counter()
            for _ in range(reps):
                rng.integers(0, 8, size=n, dtype=np.int64)
            total += (time.perf_counter() - t0) / reps * draws
        return total

    def metrics(self, n_calls: int, rng_s: float, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metric values (per traced call) from spans and counters."""
        per = 1.0 / max(n_calls, 1)
        by_name: dict[str, list[dict]] = defaultdict(list)
        for s in self.spans:
            by_name[s["name"]].append(s)

        def total(name, field=None):
            spans = by_name.get(name, [])
            if field is None:
                return sum(s["end"] - s["start"] for s in spans)
            return sum(s.get(field, 0) for s in spans)

        def ratio(a, b):
            return a / b if b else 0.0

        step, decision = self.hot["problems.step"], self.hot["problems.decision"]
        children, lazy = self.hot["machine.children"], self.hot["chain.lazy_step"]
        walk_s = total("walk_batch")
        walk_steps = sum(s["walkers"] * s["steps"] for s in by_name.get("walk_batch", []))
        shares, speedups = [], []
        jobs = defaultdict(list)
        for s in by_name.get("estimate_alpha", []):
            jobs[s["parent"]].append(s["end"] - s["start"])
        for s in by_name.get("estimate", []):
            d = jobs.get(s["id"])
            if d:
                shares.append(max(d) / sum(d))
                speedups.append(sum(d) / (s["end"] - s["start"]))
        m = {
            "cli.load_s": total("load") * per,
            "problems.step_calls": step[0] * per,
            "problems.decision_calls": decision[0] * per,
            "problems.oracle_s": (step[1] + decision[1]) * per,
            "machine.children_calls": children[0] * per,
            "machine.children_s": children[1] * per,
            "machine.steps_per_children": ratio(step[0], children[0]),
            "machine.useful_frac": ratio(self.counts["distinct_nodes"], children[0]),
            "trees.truncate_calls": len(by_name.get("truncate", [])) * per,
            "trees.truncate_s": total("truncate") * per,
            "trees.materialize_s": total("materialize") * per,
            "trees.materialize_nodes": total("materialize", "nodes") * per,
            "chain.walk_s": walk_s * per,
            "chain.walk_steps": walk_steps * per,
            "chain.walk_steps_per_s": ratio(walk_steps, walk_s),
            "chain.rng_s": rng_s * per,
            "chain.gather_s": (walk_s - rng_s) * per,
            "chain.index_build_s": total("index_build") * per,
            "chain.lazy_step_calls": lazy[0] * per,
            "chain.lazy_step_s": lazy[1] * per,
            "chain.lazy_steps_per_s": ratio(lazy[0], lazy[1]),
            "chain.alpha_calls": len(by_name.get("estimate_alpha", [])) * per,
            "chain.alpha_s": total("estimate_alpha") * per,
            "chain.executed_steps": (walk_steps + lazy[0]) * per,
            "chain.samples": self.counts["samples"] * per,
            "chain.root_hit_frac": ratio(self.counts["hits"], self.counts["samples"]),
            "estimator.alpha_s.max_share": float(np.mean(shares)) if shares else 0.0,
            "estimator.pool_speedup": float(np.mean(speedups)) if speedups else 0.0,
            "estimator.threshold_nodes": total("count_up_to", "nodes") * per,
            "estimator.threshold_s": total("count_up_to") * per,
            "estimator.telescope_s": total("telescope") * per,
            "capp.calls": self.counts["capp_calls"] * per,
        }
        m.update(extra)
        return {name: m[name] for name in PER_LAYER}
