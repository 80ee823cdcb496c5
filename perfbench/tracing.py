"""Spans around the hide package's public callables, installed from outside.

A Tracer patches module functions and class methods only while an item
(a set-up, a training step or an image) that the run chose to trace is
in progress, so untraced items run the unmodified program.  Each call
records one span: name, start, end, parent span and item id, plus
counts read from the call's arguments or result.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from hide import codec, coder, core
from hide.attention import HierarchicalDictContext
from hide.backbone import AnalysisTransform, HyperAnalysis, HyperSynthesis, SynthesisTransform
from hide.core import checkpoint, ops
from hide.core.adam import Adam
from hide.entropy import SliceEntropyModel
from hide.estimator import ContextAwareEstimator, ContextAwareResidual
from hide.model import CompressionModel


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    item: str = ""
    counts: Dict[str, int] = field(default_factory=dict)


def _conv_flop(args, out, _):
    kernel = args[1]
    c_out, c_in, k, _ = kernel.shape
    b, _, h, w = out.shape
    return {"flop": 2 * b * h * w * c_out * c_in * k * k}


def _conv_transpose_flop(args, out, _):
    x, kernel = args[0], args[1]
    c_in, c_out, k, _ = kernel.shape
    b, _, h, w = x.shape
    return {"flop": 2 * b * h * w * c_in * c_out * k * k}


def _target_list(extra):
    """(owner, attribute, span name, count(args, result, before), before())."""
    targets = [
        (codec, "encode_image", "codec.encode_image", lambda a, r, _: {"bytes": len(r.data)}, None),
        (codec, "decode_image", "codec.decode_image", None, None),
        (AnalysisTransform, "__call__", "backbone.analysis", None, None),
        (SynthesisTransform, "__call__", "backbone.synthesis", None, None),
        (HyperAnalysis, "__call__", "backbone.hyper", None, None),
        (HyperSynthesis, "__call__", "backbone.hyper", None, None),
        (SliceEntropyModel, "codec_pass", "entropy.codec_pass", None, None),
        (HierarchicalDictContext, "forward_slice", "attention.forward_slice", None, None),
        (ContextAwareEstimator, "__call__", "estimator.params", None, None),
        (ContextAwareResidual, "__call__", "estimator.residual", None, None),
        (coder, "build_cdf_batch", "coder.build_cdf", lambda a, r, _: {"rows": r.shape[0]}, None),
        (coder, "encode_symbols", "coder.encode_symbols",
         lambda a, r, _: {"symbols": int(np.size(a[0])), "bytes": len(r)}, None),
        (coder, "decode_symbols", "coder.decode_symbols", lambda a, r, _: {"symbols": r.size}, None),
        (ops, "conv2d", "core.conv", _conv_flop, None),
        (ops, "conv_transpose2d", "core.conv", _conv_transpose_flop, None),
        (CompressionModel, "train_loss", "model.train_loss", None, None),
        (core, "backward", "core.backward",
         lambda a, r, before: {"tape_nodes": before}, core.tape_size),
        (Adam, "step", "core.adam.step", None, None),
        (checkpoint, "save_checkpoint", "core.checkpoint.save", None, None),
        (checkpoint, "load_checkpoint", "core.checkpoint.load", None, None),
    ]
    return targets + list(extra)


class Tracer:
    """Records spans while installed; see ``item``."""

    def __init__(self, extra_targets=()):
        self.spans: List[Span] = []
        self._targets = _target_list(extra_targets)
        self._stack: List[int] = []
        self._item = ""

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None, item=self._item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count, before) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before() if before else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count:
                span.counts = count(args, result, pre)
            return result
        return traced

    @contextlib.contextmanager
    def item(self, kind: str, ident):
        """Trace one item: install the wrappers and record a root span
        ``item.<kind>`` that every span inside it is attributed to.  An
        item that raises leaves no spans."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in self._targets]
        for (owner, attr, name, count, before), (_, _, fn) in zip(self._targets, saved):
            setattr(owner, attr, self._wrap(name, fn, count, before))
        self._item = f"{kind}:{ident}"
        first = len(self.spans)
        root = self._open(f"item.{kind}")
        try:
            yield
        except BaseException:
            del self.spans[first:]
            raise
        finally:
            self._close(root)
            self._item = ""
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def to_json(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def aggregate(spans: List[Span]):
    """Per item kind: span name -> {calls, total, self, counts...} summed
    over the traced items of that kind, and the number of such items."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    layers: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(float)))
    items: Dict[str, set] = defaultdict(set)
    for s, child in zip(spans, child_time):
        kind = s.item.split(":", 1)[0]
        items[kind].add(s.item)
        row = layers[kind][s.name]
        row["calls"] += 1
        row["total"] += s.end - s.start
        row["self"] += s.end - s.start - child
        for key, value in s.counts.items():
            row[key] += value
    return layers, {kind: len(ids) for kind, ids in items.items()}


def layer_metrics(spans: List[Span], loop_kind: str, params: int, itemsize: int) -> Dict[str, dict]:
    """The per-layer metrics of BENCHMARK.json, each a mean per traced item.

    Codec layers are per image (encode and decode together), training
    layers per step, checkpoint I/O per set-up; ``core.conv`` is per item
    of the run's timed loop.  ``_s`` metrics are inclusive span time
    except ``entropy.codec_pass_s`` and ``codec.self_s``, which are self
    time.
    """
    layers, counts = aggregate(spans)

    def per(kind, name, key="total"):
        return layers[kind][name][key] / counts[kind]

    def rate(kind, names, key):
        busy = sum(layers[kind][n]["total"] for n in names)
        return sum(layers[kind][n][key] for n in names) / busy

    stream_bytes = per("image", "coder.encode_symbols", "bytes")
    coder_names = ("coder.encode_symbols", "coder.decode_symbols")
    values = {
        "backbone.analysis_s": (per("image", "backbone.analysis"), "s"),
        "backbone.synthesis_s": (per("image", "backbone.synthesis"), "s"),
        "backbone.hyper_s": (per("image", "backbone.hyper"), "s"),
        "entropy.codec_pass_s": (per("image", "entropy.codec_pass", "self"), "s"),
        "attention.forward_slice_s": (per("image", "attention.forward_slice"), "s"),
        "estimator.params_s": (per("image", "estimator.params"), "s"),
        "estimator.residual_s": (per("image", "estimator.residual"), "s"),
        "coder.build_cdf_s": (per("image", "coder.build_cdf"), "s"),
        "coder.cdf_rows": (per("image", "coder.build_cdf", "rows"), "count"),
        "coder.cdf_rows_per_s": (rate("image", ["coder.build_cdf"], "rows"), "rows/s"),
        "coder.encode_symbols_s": (per("image", "coder.encode_symbols"), "s"),
        "coder.decode_symbols_s": (per("image", "coder.decode_symbols"), "s"),
        "coder.symbols": (sum(per("image", n, "symbols") for n in coder_names), "count"),
        "coder.symbols_per_s": (rate("image", coder_names, "symbols"), "symbols/s"),
        "coder.stream_bytes": (stream_bytes, "bytes"),
        "codec.container_bytes": (per("image", "codec.encode_image", "bytes") - stream_bytes,
                                  "bytes"),
        "codec.self_s": (per("image", "codec.encode_image", "self")
                         + per("image", "codec.decode_image", "self"), "s"),
        "core.conv_s": (per(loop_kind, "core.conv"), "s"),
        "core.conv_gflop": (per(loop_kind, "core.conv", "flop") / 1e9, "GFLOP"),
        "core.conv_gflop_s": (rate(loop_kind, ["core.conv"], "flop") / 1e9, "GFLOP/s"),
        "model.train_loss_s": (per("step", "model.train_loss"), "s"),
        "core.backward_s": (per("step", "core.backward"), "s"),
        "core.tape_nodes": (per("step", "core.backward", "tape_nodes"), "count"),
        "core.adam.step_s": (per("step", "core.adam.step"), "s"),
        "core.adam.params": (params, "count"),
        # Adam reads theta, grad, m and v and writes theta, m and v
        "core.adam.bytes": (7 * params * itemsize, "bytes"),
        "training.batch_s": (per("step", "training.batch"), "s"),
        "core.checkpoint.save_s": (per("setup", "core.checkpoint.save"), "s"),
        "core.checkpoint.load_s": (per("setup", "core.checkpoint.load"), "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def self_time_table(spans: List[Span]) -> str:
    """Per item kind, every span name by self time per item."""
    layers, counts = aggregate(spans)
    lines = []
    for kind in sorted(layers):
        rows = layers[kind]
        n = counts[kind]
        item_s = rows[f"item.{kind}"]["total"] / n
        lines.append(f"-- {kind}: {n} traced items, {item_s:.4f} s per item")
        lines.append(f"   {'span':<28}{'calls':>8}{'total s':>11}{'self s':>11}{'self %':>8}")
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
            self_s = row["self"] / n
            lines.append(f"   {name:<28}{row['calls'] / n:>8.1f}{row['total'] / n:>11.5f}"
                         f"{self_s:>11.5f}{100 * self_s / item_s:>7.1f}%")
    return "\n".join(lines)
