"""Spans around the calls into each evshift layer, installed from outside.

The package carries no instrumentation, so a traced run swaps timing
wrappers into every module attribute that binds a traced function (for
example `evshift.pipeline.cluster_packet` and `evshift.clustering.cluster_packet`
are separate bindings of one function) and puts the originals back when
it ends.  Each call becomes one span (name, start, end, parent) kept in
memory; counts are recorded at the same boundaries.  A span's self time
is its duration minus that of its children, and the time no span covers
is reported as the residual, so self times plus residual equal the
traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Span = Tuple[str, float, float, int]

# Span name -> per-layer time metric that collects its self time.
LAYER_TIME = {
    "clustering.seek": "seek.s",
    "clustering.merge": "merge.s",
    "clustering.label": "label.s",
    "filtering": "filter.s",
    "events.packetize": "packetize.s",
    "events.make_packet": "packetize.s",
    "io.read": "io.read_s",
    "io.write": "io.write_s",
    "cli": "cli.self_s",
    "pipeline.flatten": "pipeline.flatten_s",
    "tracking.observe": "track.s",
    "synth": "synth.s",
}

# Every per-layer metric with its unit.  A layer that a workload never
# calls reports 0 for its times and counts.
PER_LAYER_UNITS = {
    "seek.s": "s",
    "seek.kernel_evals": "count",
    "seek.ns_per_eval": "ns/eval",
    "seek.iters_mean": "iters",
    "seek.iters_p99": "iters",
    "seek.capped_seeds": "count",
    "seek.stalled_seeds": "count",
    "merge.s": "s",
    "merge.modes": "count",
    "merge.components": "count",
    "label.s": "s",
    "label.clusters": "count",
    "label.noise_frac": "ratio",
    "filter.s": "s",
    "filter.ns_per_event": "ns/event",
    "filter.keep_ratio": "ratio",
    "packetize.s": "s",
    "packetize.ns_per_event": "ns/event",
    "packetize.packets": "count",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "cli.self_s": "s",
    "pipeline.flatten_s": "s",
    "track.s": "s",
    "track.measurements": "count",
    "track.spawned": "count",
    "track.confirmed": "count",
    "track.died": "count",
    "synth.s": "s",
    "synth.events": "count",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counters of one traced window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, Any] = {}
        self._stack: List[int] = [-1]
        self.start = 0.0
        self.end = 0.0

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn: Callable, name: str, drain: bool = False,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """Return `fn` timed as span `name`.

        drain: `fn` returns a generator whose body runs while the caller
        iterates.  Every caller in the workloads consumes it whole, so the
        wrapper drains it inside the span and hands back an iterator over
        the drained items.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            index = len(self.spans)
            parent = self._stack[-1]
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if after:
                after(self, args, result, token)
            return iter(result) if drain else result

        return traced

    @contextmanager
    def window(self):
        """Time the traced wall span; wrappers must already be installed."""
        self.start = time.perf_counter()
        try:
            yield self
        finally:
            self.end = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out

    def residual(self) -> float:
        """Wall seconds of the window that no span covers."""
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return (self.end - self.start) - top

    def dump(self) -> dict:
        return {
            "wall_s": self.end - self.start,
            "spans": [[n, s - self.start, e - self.start, p] for n, s, e, p in self.spans],
        }


# --- counters recorded at the span boundaries -------------------------------

def _after_seek(tr: Tracer, args, res, _token) -> None:
    max_iters = args[1].max_iters
    tr.add("seek.kernel_evals", int(res.ops_count))
    tr.add("seek.capped_seeds", int(np.sum(res.iterations >= max_iters)))
    tr.add("seek.stalled_seeds", int(np.sum(res.stalled)))
    tr.counts.setdefault("_iterations", []).append(res.iterations)


def _after_merge(tr: Tracer, args, comp, _token) -> None:
    tr.add("merge.modes", len(args[0]))
    tr.add("merge.components", int(comp.max()) + 1 if len(comp) else 0)


def _after_label(tr: Tracer, _args, lab, _token) -> None:
    tr.add("label.clusters", int(lab.n_clusters))
    tr.add("_label_noise", int(lab.noise_count))
    tr.add("_label_events", len(lab.labels))


def _after_filter(tr: Tracer, args, kept, _token) -> None:
    tr.add("_filter_in", len(args[0]))
    tr.add("_filter_out", len(kept))


def _after_packetize(tr: Tracer, args, packets, _token) -> None:
    tr.add("_packetize_events", len(args[0]))
    tr.add("packetize.packets", len(packets))


def _after_file(tr: Tracer, args, _res, _token) -> None:
    tr.add("io.bytes", os.path.getsize(args[0]))


def _before_observe(args):
    tracker = args[0]
    return tracker._next_id, {t.track_id: t.status.value for t in tracker.live_tracks()}


def _after_observe(tr: Tracer, args, _res, token) -> None:
    tracker, measurements = args[0], args[2]
    next_id, before = token
    tr.add("track.measurements", len(measurements))
    tr.add("track.spawned", tracker._next_id - next_id)
    for t in tracker.tracks:
        was = before.get(t.track_id)
        if was is None:
            continue
        now = t.status.value
        tr.add("track.confirmed", int(now == "confirmed" and was != "confirmed"))
        tr.add("track.died", int(now == "dead"))


def _after_synth(tr: Tracer, _args, gen, _token) -> None:
    tr.add("synth.events", len(gen.events))


_IO_READS = ("read_events", "read_labeled_events", "read_tracks", "read_truth", "read_centers")
_IO_WRITES = ("write_events", "write_labeled_events", "write_tracks", "write_truth", "write_centers")

# (defining module, attribute, span name, drain, before, after)
TARGETS = [
    ("evshift.clustering", "seek_modes", "clustering.seek", False, None, _after_seek),
    ("evshift.clustering", "merge_modes", "clustering.merge", False, None, _after_merge),
    ("evshift.clustering", "cluster_packet", "clustering.label", False, None, _after_label),
    ("evshift.filtering", "filter_stream", "filtering", True, None, _after_filter),
    ("evshift.events", "packetize", "events.packetize", True, None, _after_packetize),
    ("evshift.events", "make_packet", "events.make_packet", False, None, None),
    *[("evshift.io", f, "io.read", False, None, _after_file) for f in _IO_READS],
    *[("evshift.io", f, "io.write", False, None, _after_file) for f in _IO_WRITES],
    ("evshift.cli", "cmd_filter", "cli", False, None, None),
    ("evshift.cli", "cmd_track", "cli", False, None, None),
    ("evshift.pipeline", "labeled_from_packets", "pipeline.flatten", False, None, None),
    ("evshift.synth", "generate", "synth", False, None, _after_synth),
]


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers into every evshift binding, restore on exit."""
    wrappers = {}
    for module, attr, name, drain, before, after in TARGETS:
        fn = getattr(importlib.import_module(module), attr)
        wrappers[id(fn)] = (fn, tracer.wrap(fn, name, drain, before, after))
    swapped = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "evshift" or mod_name.startswith("evshift.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                swapped.append((module, attr, value))
    tracker_cls = importlib.import_module("evshift.tracking").Tracker
    observe = tracker_cls.__dict__["observe"]
    setattr(tracker_cls, "observe",
            tracer.wrap(observe, "tracking.observe", False, _before_observe, _after_observe))
    swapped.append((tracker_cls, "observe", observe))
    try:
        yield tracer
    finally:
        for owner, attr, value in swapped:
            setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one window, every name of PER_LAYER_UNITS
    except trace.overhead_s."""
    c = tracer.counts
    out: Dict[str, float] = {name: 0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    for key in out:
        if key in c:
            out[key] = c[key]
    for span, seconds in tracer.self_times().items():
        out[LAYER_TIME[span]] += seconds
    iterations = c.get("_iterations")
    if iterations:
        its = np.concatenate(iterations)
        out["seek.iters_mean"] = float(its.mean())
        out["seek.iters_p99"] = float(np.percentile(its, 99))
    out["seek.ns_per_eval"] = _ratio(out["seek.s"] * 1e9, out["seek.kernel_evals"])
    out["label.noise_frac"] = _ratio(c.get("_label_noise", 0), c.get("_label_events", 0))
    out["filter.ns_per_event"] = _ratio(out["filter.s"] * 1e9, c.get("_filter_in", 0))
    out["filter.keep_ratio"] = _ratio(c.get("_filter_out", 0), c.get("_filter_in", 0))
    out["packetize.ns_per_event"] = _ratio(out["packetize.s"] * 1e9, c.get("_packetize_events", 0))
    out["trace.wall_s"] = tracer.end - tracer.start
    out["trace.residual_s"] = tracer.residual()
    return out
