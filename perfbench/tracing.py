"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public module-level
function of each `mfmarl` layer, a few methods (`SoftmaxPolicy.sample_actions`,
`Simplex.__init__`, the harness's per-cell worker) and the `EnvModel` hook
attributes of the environments the workload uses. A wrapper records one span
(name, start, end, parent) per call; `uninstall` restores every original, so
untraced units run the unmodified program.

Spans stay in memory and are reduced to per-layer metrics per traced unit.
The harness runs cells on a thread pool, so each thread keeps its own span
stack; a span opened on a worker thread with an empty stack takes the
innermost open span of the installing thread (the blocked sweep) as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("simplex", "interaction", "model", "policy", "nagent", "meanfield", "npg", "harness")
ENV_HOOKS = ("reward_batch", "transition_sample_batch", "kernel", "reward_matrix")
INTERACTION_BUILDERS = ("uniform", "ring_k_neighbor", "ring_symmetric", "sinkhorn_random")

# Unit of every per-layer metric the traced run reports. Counts are exact per
# traced job; "_computed" values and weight_bytes are derived from array sizes.
UNITS = {
    "nagent.rollouts": "count",
    "nagent.rollout_ms": "ms",
    "nagent.step_us": "us",
    "nagent.agent_steps": "count",
    "nagent.view_bytes_computed": "bytes",
    "nagent.view_flops_computed": "flop",
    "interaction.builds": "count",
    "interaction.build_ms": "ms",
    "interaction.weight_bytes": "bytes",
    "npg.outer_iters": "count",
    "npg.inner_sgd_ms": "ms",
    "npg.occupancy_samples": "count",
    "npg.sample_occupancy_us": "us",
    "npg.divergences": "count",
    "policy.log_gradient_calls": "count",
    "policy.log_gradient_us": "us",
    "policy.sample_actions_us": "us",
    "policy.lipschitz_estimate_s": "s",
    "meanfield.mf_value_calls": "count",
    "meanfield.mf_value_ms": "ms",
    "meanfield.horizon": "steps",
    "model.kernel_calls": "count",
    "model.kernel_us": "us",
    "model.reward_matrix_us": "us",
    "model.transition_sample_batch_us": "us",
    "model.reward_batch_us": "us",
    "model.build_s": "s",
    "simplex.constructions": "count",
    "harness.cells": "count",
    "harness.cell_ms.p50": "ms",
    "harness.cell_ms.p90": "ms",
    "harness.skipped_cells": "count",
    "harness.train_s": "s",
    "harness.sweep_s": "s",
    "harness.threads": "count",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "trace.spans": "count",
    "trace.units": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "machine.nproc": "count",
    "machine.llc_bytes": "bytes",
    "machine.blas_threads": "count",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []  # one Counter per thread that recorded a count
        self._patches = []  # (owner, attribute, original)
        self._main_stack = []
        self._lock = threading.Lock()
        self.horizon = 0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            self._thread_counts.append(counts)
        return counts

    def add(self, key: str, amount=1) -> None:
        self._counts()[key] += amount

    def counts(self) -> Counter:
        total = Counter()
        for c in list(self._thread_counts):
            total.update(c)
        return total

    def reset(self) -> None:
        self.spans = []
        self.horizon = 0
        for c in list(self._thread_counts):
            c.clear()

    def _span(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.add(f"{name}.raised.{type(err).__name__}")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, envs=()) -> None:
        """Wrap every public function of each layer, in every `mfmarl`
        namespace that holds it, plus the listed environments' hooks."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        modules = {layer: importlib.import_module(f"mfmarl.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("mfmarl")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._span(f"{layer}.{attr}", fn, _OBSERVERS.get((layer, attr)))
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapper)
        harness = modules["harness"]
        self._patch(harness, "_run_cell", self._span("harness.cell", harness._run_cell, _observe_cell))
        policy_cls = modules["policy"].SoftmaxPolicy
        self._patch(policy_cls, "sample_actions", self._span("policy.sample_actions", policy_cls.sample_actions))
        simplex_cls = modules["simplex"].Simplex
        self._patch(simplex_cls, "__init__", self._counter("simplex.constructions", simplex_cls.__init__))
        for env in envs:
            for hook in ENV_HOOKS:
                fn = getattr(env, hook)
                if fn is not None:
                    self._patch(env, hook, self._span(f"model.{hook}", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def durations(self) -> dict:
        out = defaultdict(list)
        for _, _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def self_seconds_by_layer(self) -> dict:
        """Span time minus the time covered by its child spans (the union of
        their intervals, so children running concurrently count once)."""
        children = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        total = Counter()
        for sid, _, name, start, end in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            total[name.split(".", 1)[0]] += max(0.0, (end - start) - covered)
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(f'{{"id":{sid},"parent":{parent},"name":"{name}","start":{start!r},"end":{end!r}}}\n')


def _observe_step(tracer, args, result):
    env, w = args[0], args[1]
    n = w.n_agents
    tracer.add("nagent.agent_steps", n)
    # dense W is read twice per step: state views and action views
    tracer.add("nagent.view_bytes_computed", 2 * n * n * w.weights.itemsize)
    tracer.add("nagent.view_flops_computed", 2 * n * n * (env.n_states + env.n_actions))


def _observe_build(tracer, args, result):
    tracer.add("interaction.builds")
    tracer.add("interaction.weight_bytes", result.weights.nbytes)


def _observe_mf_value(tracer, args, result):
    with tracer._lock:
        tracer.horizon = max(tracer.horizon, result[1].horizon)


def _observe_cell(tracer, args, result):
    if result[1] is not None:
        tracer.add("harness.skipped_cells")


_OBSERVERS = {
    ("nagent", "step"): _observe_step,
    ("meanfield", "mf_value"): _observe_mf_value,
    **{("interaction", b): _observe_build for b in INTERACTION_BUILDERS},
}


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _percentile(xs, pct: int) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the spans currently held (one traced unit)."""
    d = tracer.durations()
    c = tracer.counts()
    self_s = tracer.self_seconds_by_layer()
    builds = [x for b in INTERACTION_BUILDERS for x in d.get(f"interaction.{b}", [])]
    cells = d.get("harness.cell", [])
    m = {
        "nagent.rollouts": len(d.get("nagent.rollout", [])),
        "nagent.rollout_ms": 1e3 * _mean(d.get("nagent.rollout", [])),
        "nagent.step_us": 1e6 * _mean(d.get("nagent.step", [])),
        "nagent.agent_steps": c["nagent.agent_steps"],
        "nagent.view_bytes_computed": c["nagent.view_bytes_computed"],
        "nagent.view_flops_computed": c["nagent.view_flops_computed"],
        "interaction.builds": c["interaction.builds"],
        "interaction.build_ms": 1e3 * _mean(builds),
        "interaction.weight_bytes": c["interaction.weight_bytes"],
        "npg.outer_iters": len(d.get("npg.inner_sgd", [])),
        "npg.inner_sgd_ms": 1e3 * _mean(d.get("npg.inner_sgd", [])),
        "npg.occupancy_samples": len(d.get("npg.sample_occupancy", [])),
        "npg.sample_occupancy_us": 1e6 * _mean(d.get("npg.sample_occupancy", [])),
        "npg.divergences": c["npg.npg_train.raised.TrainingDivergenceError"],
        "policy.log_gradient_calls": len(d.get("policy.log_policy_gradient", [])),
        "policy.log_gradient_us": 1e6 * _mean(d.get("policy.log_policy_gradient", [])),
        "policy.sample_actions_us": 1e6 * _mean(d.get("policy.sample_actions", [])),
        "policy.lipschitz_estimate_s": sum(d.get("policy.estimate_lipschitz_lq", [])),
        "meanfield.mf_value_calls": len(d.get("meanfield.mf_value", [])),
        "meanfield.mf_value_ms": 1e3 * _mean(d.get("meanfield.mf_value", [])),
        "meanfield.horizon": tracer.horizon,
        "model.kernel_calls": len(d.get("model.kernel", [])),
        "model.kernel_us": 1e6 * _mean(d.get("model.kernel", [])),
        "model.reward_matrix_us": 1e6 * _mean(d.get("model.reward_matrix", [])),
        "model.transition_sample_batch_us": 1e6 * _mean(d.get("model.transition_sample_batch", [])),
        "model.reward_batch_us": 1e6 * _mean(d.get("model.reward_batch", [])),
        "simplex.constructions": c["simplex.constructions"],
        "harness.cells": len(cells),
        "harness.cell_ms.p50": 1e3 * _percentile(cells, 50),
        "harness.cell_ms.p90": 1e3 * _percentile(cells, 90),
        "harness.skipped_cells": c["harness.skipped_cells"],
        "harness.train_s": sum(d.get("harness.train_policy", [])),
        "harness.sweep_s": sum(d.get("harness.run_error_vs_n", [])),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = 1e3 * self_s.get(layer, 0.0)
    return m
