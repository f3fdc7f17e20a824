"""Spans around the calls into each epigraph module, recorded from outside.

The traced run replaces selected module functions with wrappers that
record one span per call: name, start, end, parent span and run id.
Spans are kept in compact in-memory arrays and written once, when the
run ends.  A function is wrapped at every place that binds it by value
(``cli.build_graph``, ``train.total_loss_grad`` ...), and the entries of
``losses.TERM_VALUES`` are wrapped as one span name, so no call escapes.
Everything patched is restored when the ``traced`` block exits.

Run id 0 is the workload's set-up and run id 1 its timed job.  The
per-layer metrics are job totals, except the ``setup.`` ones, which are
set-up totals.

The recorder assumes one thread: child spans nest inside their parent
and never overlap, so a span's self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute).  The span name is "<module>.<function>".
TRACED = (
    ("synth.generate_scene", "synth", "generate_scene"),
    ("synth.load_correspondences", "synth", "load_correspondences"),
    ("cli.load_manifest", "cli", "load_manifest"),
    ("cli.cmd_gradcheck", "cli", "cmd_gradcheck"),
    ("graph.build_graph", "graph", "build_graph"),
    ("graph.build_edges", "graph", "build_edges"),
    ("graph.sampson_filter", "graph", "sampson_filter"),
    ("epipolar.estimate_E0", "epipolar", "estimate_E0"),
    ("epipolar.solve_eight_point", "epipolar", "solve_eight_point"),
    ("epipolar.recover_pose", "epipolar", "recover_pose"),
    ("epipolar.cheirality_select", "epipolar", "cheirality_select"),
    ("epipolar.triangulate_dlt", "epipolar", "triangulate_dlt"),
    ("nn.model_forward", "nn", "model_forward"),
    ("nn.model_backward", "nn", "model_backward"),
    ("nn.gcn_forward", "nn", "gcn_forward"),
    ("nn.gcn_backward", "nn", "gcn_backward"),
    ("nn.gat_forward", "nn", "gat_forward"),
    ("nn.gat_backward", "nn", "gat_backward"),
    ("nn.gin_forward", "nn", "gin_forward"),
    ("nn.gin_backward", "nn", "gin_backward"),
    ("nn.graph_tensors", "nn", "graph_tensors"),
    ("nn.adam_step", "nn", "adam_step"),
    ("nn.save_checkpoint", "nn", "save_checkpoint"),
    ("nn.load_checkpoint", "nn", "load_checkpoint"),
    ("losses.total_loss_grad", "losses", "total_loss_grad"),
    ("losses.total_loss", "losses", "total_loss"),
    ("train.train", "train", "train"),
    ("metrics.build_record", "metrics", "build_record"),
    ("metrics.run_report", "metrics", "run_report"),
)
TERM_VALUES_SPAN = "losses.term_values"
SETUP, JOB = 0, 1  # run ids
SETUP_PREFIX = "setup."

# Per-layer metrics, in report order: (metric, unit).  A name ending in
# .calls / .s / .self_s / .failed reads that job total of the span named
# by the rest, or the set-up total if the name starts with "setup.".  The
# others are job counters filled by the observers below or by the runner
# (trace.*).
PER_LAYER = (
    ("setup.synth.generate_scene.calls", "count"),
    ("setup.synth.generate_scene.s", "s"),
    ("synth.load_correspondences.s", "s"),
    ("cli.load_manifest.s", "s"),
    ("cli.cmd_gradcheck.self_s", "s"),
    ("graph.build_graph.calls", "count"),
    ("graph.build_graph.s", "s"),
    ("graph.build_graph.self_s", "s"),
    ("graph.build_edges.s", "s"),
    ("graph.sampson_filter.s", "s"),
    ("graph.keep_ratio", "ratio"),
    ("graph.nodes_mean", "nodes"),
    ("graph.edges_mean", "edges"),
    ("epipolar.estimate_E0.s", "s"),
    ("epipolar.solve_eight_point.calls", "count"),
    ("epipolar.recover_pose.calls", "count"),
    ("epipolar.recover_pose.s", "s"),
    ("epipolar.recover_pose.failed", "count"),
    ("epipolar.cheirality_select.s", "s"),
    ("epipolar.triangulate_dlt.calls", "count"),
    ("nn.model_forward.calls", "count"),
    ("nn.model_forward.s", "s"),
    ("nn.model_backward.calls", "count"),
    ("nn.model_backward.s", "s"),
    ("nn.gcn_forward.s", "s"),
    ("nn.gcn_backward.s", "s"),
    ("nn.gat_forward.s", "s"),
    ("nn.gat_backward.s", "s"),
    ("nn.gin_forward.s", "s"),
    ("nn.gin_backward.s", "s"),
    ("nn.graph_tensors.s", "s"),
    ("nn.adam_step.s", "s"),
    ("nn.save_checkpoint.calls", "count"),
    ("nn.save_checkpoint.s", "s"),
    ("nn.save_checkpoint.bytes", "B"),
    ("nn.load_checkpoint.s", "s"),
    ("losses.total_loss_grad.calls", "count"),
    ("losses.total_loss_grad.s", "s"),
    ("losses.total_loss.s", "s"),
    ("losses.term_values.calls", "count"),
    ("losses.term_values.s", "s"),
    ("train.train.self_s", "s"),
    ("metrics.build_record.s", "s"),
    ("metrics.run_report.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
_TOTALS = ("calls", "s", "self_s", "failed")


def _observe_graph(counters, args, kwargs, g):
    corr = args[0] if args else kwargs["corr"]
    counters["graph.correspondences"] += len(corr)
    counters["graph.nodes"] += g.n_nodes
    counters["graph.edges"] += len(g.edges)


def _observe_checkpoint(counters, args, kwargs, _):
    path = args[0] if args else kwargs["path"]
    counters["nn.save_checkpoint.bytes"] += os.path.getsize(path)


OBSERVERS = {"graph.build_graph": _observe_graph,
             "nn.save_checkpoint": _observe_checkpoint}


class Tracer:
    """In-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.failed = array("b")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.run_id = SETUP
        self.counters = {run: Counter() for run in (SETUP, JOB)}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_index(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.end)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.run.append(self.run_id)
            self.failed.append(0)
            self.end.append(0)
            self.stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                self.stack.pop()
            if observe is not None:
                observe(self.counters[self.run_id], args, kwargs, result)
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so no numpy view pins the arrays while spans are appended
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "run_id": np.array(self.run, dtype=np.int32),
                "failed": np.array(self.failed, dtype=np.int8),
                "start_ns": np.array(self.start, dtype=np.int64),
                "end_ns": np.array(self.end, dtype=np.int64)}

    def totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """Span totals of one run id."""
        a = self.arrays()
        keep = a["run_id"] == run_id
        # parents are span indices; renumber them within the kept spans
        index = np.cumsum(keep) - 1
        parent = a["parent"][keep]
        parent = np.where(parent >= 0, index[np.maximum(parent, 0)], -1)
        return span_totals(self.names, a["name_id"][keep], a["start_ns"][keep],
                           a["end_ns"][keep], parent, a["failed"][keep])

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def span_totals(names, name_id, start_ns, end_ns, parent, failed=None):
    """Per span name: calls, inclusive seconds, self seconds, failed calls."""
    n = len(names)
    dur = (np.asarray(end_ns, dtype=np.int64)
           - np.asarray(start_ns, dtype=np.int64)) / 1e9
    parent = np.asarray(parent)
    name_id = np.asarray(name_id)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    failed = np.zeros(len(dur)) if failed is None else np.asarray(failed)
    calls = np.bincount(name_id, minlength=n)
    s = np.bincount(name_id, weights=dur, minlength=n)
    own = np.bincount(name_id, weights=self_s, minlength=n)
    bad = np.bincount(name_id, weights=failed, minlength=n)
    return {name: {"calls": int(calls[i]), "s": float(s[i]),
                   "self_s": float(own[i]), "failed": int(bad[i])}
            for i, name in enumerate(names)}


def _program_namespaces():
    return [vars(m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == "epigraph" or name.startswith("epigraph."))]


def replace_everywhere(orig, wrapper) -> list:
    """Bind ``wrapper`` wherever an epigraph module binds ``orig``; returns
    the (namespace, key, original) records that ``restore`` undoes."""
    patches = []
    for ns in _program_namespaces():
        for key, val in list(ns.items()):
            if val is orig:
                patches.append((ns, key, val))
                ns[key] = wrapper
    return patches


def install(tracer: Tracer) -> list:
    """Wrap every TRACED function at each of its bindings; returns the
    patches that ``restore`` undoes."""
    from epigraph import losses

    patches = []
    for span, module, attr in TRACED:
        orig = getattr(sys.modules[f"epigraph.{module}"], attr)
        patches += replace_everywhere(orig, tracer.wrap(span, orig, OBSERVERS.get(span)))
    for term, fn in list(losses.TERM_VALUES.items()):
        patches.append((losses.TERM_VALUES, term, fn))
        losses.TERM_VALUES[term] = tracer.wrap(TERM_VALUES_SPAN, fn)
    return patches


def restore(patches) -> None:
    for ns, key, val in reversed(patches):
        ns[key] = val


@contextlib.contextmanager
def traced(tracer: Tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        restore(patches)


def layer_metrics(tracer: Tracer, totals: dict, overhead_s: float,
                  untraced_s: float) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)} from the tracer's job
    counters and the span ``totals`` by run id; a layer that did no work
    reads 0."""
    c = tracer.counters[JOB]
    build = totals[JOB].get("graph.build_graph", {"calls": 0, "failed": 0})
    builds = build["calls"] - build["failed"]  # the observer sees successes only
    derived = {
        "graph.keep_ratio": c["graph.nodes"] / c["graph.correspondences"]
        if c["graph.correspondences"] else 0.0,
        "graph.nodes_mean": c["graph.nodes"] / builds if builds else 0.0,
        "graph.edges_mean": c["graph.edges"] / builds if builds else 0.0,
        "nn.save_checkpoint.bytes": c["nn.save_checkpoint.bytes"],
        "trace.spans": len(tracer.end),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_s / untraced_s,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        else:
            span, total = metric.rsplit(".", 1)
            if total not in _TOTALS:
                raise ValueError(f"no total {total!r} for metric {metric!r}")
            run = JOB
            if span.startswith(SETUP_PREFIX):
                span, run = span[len(SETUP_PREFIX):], SETUP
            value = totals[run].get(span, {}).get(total, 0)
        out[metric] = (value, unit)
    return out
