"""Span tracing for the meshseg benchmark, done from outside the package.

Each traced name is a public function or method of a meshseg module,
wrapped where its caller looks it up (``meshseg.layers.build_knn`` is what
the network calls, not ``meshseg.knn.build_knn``), so nothing under ``src/``
changes.  Spans are kept in memory and written out when the run ends.

A span records its name, start and end, the span that caused it, the timed
operation it belongs to (-1 during set-up) and the tracemalloc peak within
it.  numpy reports its buffers to tracemalloc, so the peak covers array
memory.  A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

MB = 2.0 ** 20


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    peak_bytes: int = 0
    child_s: float = 0.0

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Records nested spans and exact counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _fold_peak(self):
        """Credit the peak since the last boundary to the innermost span."""
        peak = tracemalloc.get_traced_memory()[1]
        if self._stack:
            top = self.spans[self._stack[-1]]
            top.peak_bytes = max(top.peak_bytes, peak)
        tracemalloc.reset_peak()

    @contextmanager
    def span(self, name):
        self._fold_peak()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            span = self.spans[idx]
            span.end = time.perf_counter()
            self._fold_peak()
            self._stack.pop()
            if parent >= 0:
                outer = self.spans[parent]
                outer.child_s += span.end - span.start
                outer.peak_bytes = max(outer.peak_bytes, span.peak_bytes)

    def count(self, name, n):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + int(n)

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            with self.span(name(args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, args)
            return out

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every traced entry point and start tracemalloc."""
        import meshseg.autodiff
        import meshseg.cli
        import meshseg.knn
        import meshseg.layers
        import meshseg.meshio
        import meshseg.synth
        import meshseg.training

        layers = meshseg.layers
        for owner, attr, name, before, after in (
            (meshseg.cli, "main", "cli.main", None, None),
            (meshseg.training, "train", "training.train", None, None),
            (meshseg.training, "augment", "training.augment", None, None),
            (meshseg.training, "adam_step", "optim.adam_step", None, None),
            (meshseg.training, "save_checkpoint", "checkpoint.save", None,
             _count_checkpoint_bytes),
            (meshseg.cli, "load_checkpoint", "checkpoint.load", None, None),
            (meshseg.autodiff.Tape, "backward", "autodiff.backward",
             _count_tape_ops, None),
            (layers, "build_knn", "knn.build_knn", None, None),
            (meshseg.knn.KnnGraph, "segment_sum", "knn.segment_sum", None,
             None),
            (layers.GraphLayer, "__call__",
             lambda args: "layers.graph_layer." + args[0].agg, None, None),
            (layers.InputTransform, "__call__", "layers.input_transform",
             None, None),
            (layers, "meshwise_normalize", "layers.fuse", None, None),
            (layers.SelfAttentionFuse, "__call__", "layers.fuse", None, None),
            (layers.PredictHead, "__call__", "layers.head", None, None),
            (meshseg.training, "cell_descriptors", "meshio.cell_descriptors",
             None, None),
            (meshseg.meshio, "cell_descriptors", "meshio.cell_descriptors",
             None, None),
            (meshseg.training, "load_mesh", "meshio.load_mesh", None, None),
            (meshseg.meshio, "load_mesh", "meshio.load_mesh", None, None),
            (meshseg.meshio, "write_labels", "meshio.write_labels", None,
             None),
            (meshseg.synth, "generate_arch", "synth.generate_arch", None,
             None),
            (meshseg.cli, "generate_arch", "synth.generate_arch", None, None),
        ):
            self._patch(owner, attr, name, before, after)

        # the per-stream fusion projections are plain ConvBNRelu instances,
        # so they are wrapped per model rather than per class
        init = layers.SegmentationNet.__init__

        @functools.wraps(init)
        def traced_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            for attr in ("fuse_c", "fuse_n", "fuse_mlp"):
                if hasattr(net, attr):
                    setattr(net, attr,
                            _SpannedBlock(self, getattr(net, attr),
                                          "layers.fuse"))

        self._originals.append((layers.SegmentationNet, "__init__", init))
        layers.SegmentationNet.__init__ = traced_init
        tracemalloc.start()

    def uninstall(self):
        tracemalloc.stop()
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # --------------------------------------------------------------- output

    def write(self, path):
        with open(path, "w") as f:
            for i, span in enumerate(self.spans):
                row = asdict(span)
                row["id"] = i
                row["self_s"] = span.self_s
                f.write(json.dumps(row) + "\n")

    def self_times(self, ops):
        """Self time summed per span name over the given operations."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span.op in ops:
                out[span.name] = out.get(span.name, 0.0) + span.self_s
        return out


class _SpannedBlock:
    """Delegates to a network block, recording a span around each call."""

    def __init__(self, tracer, block, name):
        self._tracer, self._block, self._name = tracer, block, name

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._block(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._block, attr)


def _count_tape_ops(tracer, args):
    tracer.count("autodiff.tape_ops", len(args[0]))


def _count_checkpoint_bytes(tracer, args):
    tracer.count("checkpoint.bytes_written", os.path.getsize(args[0]))


# Per-layer metrics: name -> (kind, span or count names, what it should
# move).  "self" is seconds of self time per timed operation, "setup" seconds
# per set-up repetition, "calls" spans per operation, "bytes" an exact count
# per operation, "per_backward" a count per backward pass, "peak" the largest
# tracemalloc peak within any of the spans.
UNITS = {"self": "s", "setup": "s", "calls": "count", "bytes": "bytes",
         "per_backward": "count", "peak": "MB"}
LAYER_METRICS = {
    "autodiff.backward_s": (
        "self", ("autodiff.backward",),
        "cells_per_s on train-1k and ablate-small"),
    "autodiff.tape_ops": (
        "per_backward", ("autodiff.tape_ops",),
        "cells_per_s on train-1k and ablate-small"),
    "autodiff.backward_alloc_peak_mb": (
        "peak", ("autodiff.backward",), "peak_rss_mb on train-1k"),
    "knn.build_knn_s": (
        "self", ("knn.build_knn",), "op_s.p50 on segment-8k"),
    "knn.build_knn_calls": (
        "calls", ("knn.build_knn",), "op_s.p50 on segment-8k"),
    "knn.build_knn_alloc_peak_mb": (
        "peak", ("knn.build_knn",), "peak_rss_mb on segment-8k"),
    "knn.segment_sum_s": (
        "self", ("knn.segment_sum",),
        "cells_per_s on train-1k; reads zero on segment-8k"),
    "knn.segment_sum_calls": (
        "calls", ("knn.segment_sum",),
        "cells_per_s on train-1k; reads zero on segment-8k"),
    "layers.graph_layer_fwd_s.attention": (
        "self", ("layers.graph_layer.attention",),
        "op_s.p50 on segment-8k and train-1k"),
    "layers.graph_layer_fwd_s.maxpool": (
        "self", ("layers.graph_layer.maxpool",),
        "op_s.p50 on segment-8k and train-1k"),
    "layers.graph_layer_alloc_peak_mb": (
        "peak", ("layers.graph_layer.attention",
                 "layers.graph_layer.maxpool"),
        "peak_rss_mb on train-1k and segment-8k"),
    "layers.input_transform_fwd_s": (
        "self", ("layers.input_transform",),
        "cells_per_s on ablate-small; op_s.p50 on segment-8k"),
    "layers.fuse_fwd_s": (
        "self", ("layers.fuse",),
        "cells_per_s on ablate-small; op_s.p50 on segment-8k"),
    "layers.head_fwd_s": (
        "self", ("layers.head",),
        "cells_per_s on ablate-small; op_s.p50 on segment-8k"),
    "optim.adam_step_s": (
        "self", ("optim.adam_step",), "cells_per_s on ablate-small"),
    "optim.adam_steps": (
        "calls", ("optim.adam_step",), "cells_per_s on ablate-small"),
    "checkpoint.save_s": (
        "self", ("checkpoint.save",), "op_s.p50 on train-1k"),
    "checkpoint.save_calls": (
        "calls", ("checkpoint.save",), "op_s.p50 on train-1k"),
    "checkpoint.bytes_written": (
        "bytes", ("checkpoint.bytes_written",), "op_s.p50 on train-1k"),
    "checkpoint.load_s": (
        "self", ("checkpoint.load",), "op_s.p50 on segment-8k"),
    "meshio.load_mesh_s": (
        "self", ("meshio.load_mesh",), "op_s.p50 on segment-8k"),
    "meshio.cell_descriptors_s": (
        "self", ("meshio.cell_descriptors",),
        "op_s.p50 on segment-8k; cells_per_s on train-1k"),
    "meshio.write_labels_s": (
        "self", ("meshio.write_labels",), "op_s.p50 on segment-8k"),
    "training.augment_s": (
        "self", ("training.augment",), "cells_per_s on train-1k"),
    "training.train_self_s": (
        "self", ("training.train",),
        "cells_per_s on train-1k and ablate-small"),
    "cli.main_self_s": (
        "self", ("cli.main",), "op_s.p50 on segment-8k"),
    "synth.generate_arch_s": (
        "setup", ("synth.generate_arch",), "setup_s on every workload"),
}


def layer_metrics(tracer: Tracer, ops, setup_repeats):
    """Per-layer (value, unit) pairs over the traced operations ``ops``."""
    ops = set(ops)
    n_ops = len(ops)
    self_s = tracer.self_times(ops)
    setup_s = tracer.self_times({-1})
    calls: dict[str, int] = {}
    peaks: dict[str, int] = {}
    for span in tracer.spans:
        if span.op in ops:
            calls[span.name] = calls.get(span.name, 0) + 1
            peaks[span.name] = max(peaks.get(span.name, 0), span.peak_bytes)
    counts: dict[str, int] = {}
    for (op, name), n in tracer.counts.items():
        if op in ops:
            counts[name] = counts.get(name, 0) + n

    out = {}
    for metric, (kind, names, _) in LAYER_METRICS.items():
        if kind == "self":
            value = sum(self_s.get(n, 0.0) for n in names) / n_ops
        elif kind == "setup":
            value = sum(setup_s.get(n, 0.0) for n in names) / setup_repeats
        elif kind == "calls":
            value = sum(calls.get(n, 0) for n in names) / n_ops
        elif kind == "bytes":
            value = sum(counts.get(n, 0) for n in names) / n_ops
        elif kind == "per_backward":
            backwards = calls.get("autodiff.backward", 0)
            value = counts.get(names[0], 0) / backwards if backwards else 0
        else:
            value = max(peaks.get(n, 0) for n in names) / MB
        out[metric] = (value, UNITS[kind])
    return out


def op_counts(tracer: Tracer, op):
    """Exact counts of one operation, which must repeat across operations."""
    out = {name: n for (o, name), n in tracer.counts.items() if o == op}
    for span in tracer.spans:
        if span.op == op:
            out[span.name + ".calls"] = out.get(span.name + ".calls", 0) + 1
    return out
