"""In-memory span recorder and the patches that attach it to seldkit.

Spans are recorded around calls into seldkit's public layers from outside
the package: each layer instance's `forward`/`backward` is shadowed by an
instance attribute, and public module functions are replaced in every
seldkit module namespace that imported them.  `Instrumentation.remove()`
restores every original, so untraced calls run the unmodified code.

A span's self time is its duration minus the time its child spans cover;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Nested named spans and named counters, kept in memory."""

    def __init__(self):
        self.spans: list = []        # (name, phase, op, start, end, self_s, parent index)
        self.counts: dict = defaultdict(float)
        self.phase = "setup"
        self.op = -1
        self._stack: list = []       # [span index, name, start, child seconds]

    def begin(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, _clock(), 0.0])

    def end(self) -> None:
        idx, name, start, child = self._stack.pop()
        stop = _clock()
        dur = stop - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[idx] = (name, self.phase, self.op, start, stop, dur - child, parent)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, self.op, name)] += value

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def totals(self, phase: str | None = "op") -> dict:
        """name -> [self seconds, inclusive seconds, calls] summed over the
        spans of `phase` (all phases when None)."""
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for name, ph, _op, t0, t1, self_s, _parent in self.spans:
            if phase is None or ph == phase:
                out[name][0] += self_s
                out[name][1] += t1 - t0
                out[name][2] += 1
        return out

    def op_counts(self, op: int) -> dict:
        """name -> counter total of traced op `op`."""
        out: dict = defaultdict(float)
        for (ph, k, name), value in self.counts.items():
            if ph == "op" and k == op:
                out[name] += value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for name, ph, op, t0, t1, self_s, parent in self.spans:
                f.write(json.dumps({"name": name, "phase": ph, "op": op, "start": t0,
                                    "end": t1, "self_s": self_s, "parent": parent}) + "\n")


def _traced(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs and removes every span wrapper for one workload."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    # -- patch primitives ---------------------------------------------------
    def _set(self, owner, attr, value, instance: bool) -> None:
        if instance:
            self._undo.append(lambda o=owner, a=attr: delattr(o, a))
        else:
            old = getattr(owner, attr)
            self._undo.append(lambda o=owner, a=attr, v=old: setattr(o, a, v))
        setattr(owner, attr, value)

    def _patch_function(self, module_name: str, func_name: str, wrap) -> None:
        """Replace a module function in every seldkit namespace holding it."""
        original = getattr(sys.modules[module_name], func_name)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seldkit" or mod_name.startswith("seldkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped, instance=False)

    def _patch_method(self, cls, meth: str, name: str) -> None:
        self._set(cls, meth, _traced(self.tracer, name, getattr(cls, meth)), instance=False)

    # -- install / remove ----------------------------------------------------
    def install(self, model=None, stream=None) -> None:
        """Wrap the module functions, and the layers of `model` and the
        `batch` method of `stream` when given."""
        from seldkit.intensity import IntensityVectorModel
        from seldkit.metrics import MetricsAccumulator
        from seldkit.net.optim import Adam

        t = self.tracer
        span = lambda name: (lambda fn: _traced(t, name, fn))  # noqa: E731
        for module_name, func_name, name in _FUNCTION_SPANS:
            self._patch_function(module_name, func_name, span(name))
        self._patch_function("seldkit.features", "stft",
                             lambda fn: _counted(t, "features.stft_calls", _traced(t, "features.stft", fn)))
        self._patch_function("seldkit.metrics", "match_frame_class",
                             lambda fn: _counted(t, "metrics.match_frame_class_calls", fn))
        self._patch_function("seldkit.infer", "sliding_inference", self._wrap_sliding)
        self._patch_method(Adam, "step", "net.optim.adam_step")
        self._patch_method(MetricsAccumulator, "update", "metrics.update")
        self._patch_method(IntensityVectorModel, "predict_batch", "intensity.predict_batch")
        if stream is not None:
            self._set(stream, "batch", _traced(t, "net.train.batch", stream.batch), instance=True)
        if model is not None:
            self._patch_layers(model)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_sliding(self, fn):
        t = self.tracer

        @functools.wraps(fn)
        def sliding(predict_batch, fs, *args, **kwargs):
            t.count("infer.clip_frames", fs.data.shape[1])

            def counted_predict(x):
                t.count("infer.segments", x.shape[0])
                t.count("infer.trunk_frames", x.shape[0] * x.shape[2])
                return t.call("infer.predict_batch", predict_batch, x)

            return t.call("infer.sliding_inference", fn, counted_predict, fs, *args, **kwargs)
        return sliding

    def _patch_layers(self, model) -> None:
        from seldkit.net.layers import Conv2d, Elu, FreqPool, Gru, Linear, NetDeconv

        kinds = (Conv2d, NetDeconv, Elu, FreqPool, Gru, Linear)
        stack = [model]
        while stack:
            mod = stack.pop()
            stack.extend(mod._children.values())   # Module has no public child accessor
            kind = next((k for k in kinds if type(mod) is k), None)
            if kind is None:
                continue
            base = f"net.layers.{kind.__name__}"
            fwd_count = bwd_count = None
            if kind is Conv2d:
                fwd_count, bwd_count = _conv_flop_counters(self.tracer, mod)
            self._set(mod, "forward", _traced(self.tracer, base + ".fwd", mod.forward, fwd_count),
                      instance=True)
            self._set(mod, "backward", _traced(self.tracer, base + ".bwd", mod.backward, bwd_count),
                      instance=True)


def _conv_flop_counters(tracer: Tracer, conv):
    """FLOPs (2 per multiply-add) of a 3x3 conv, computed from its call shapes."""
    taps = 9

    def fwd(x):
        B, T, F, C = x.shape
        tracer.count("net.layers.Conv2d.flop", 2.0 * B * T * F * C * conv.out_ch * taps)

    def bwd(dy):
        B, T, F = dy.shape[:3]
        gemms = 2 if conv.needs_input_grad else 1   # gW always, dx when needed
        tracer.count("net.layers.Conv2d.flop", gemms * 2.0 * B * T * F * conv.in_ch * conv.out_ch * taps)

    return fwd, bwd


# (module, function, span name): public module functions wrapped in place
_FUNCTION_SPANS = [
    ("seldkit.net.losses", "loss_mse", "net.losses.loss"),
    ("seldkit.net.checkpoint", "load_model", "net.checkpoint.load_model"),
    ("seldkit.infer", "rotation_tta", "infer.rotation_tta"),
    ("seldkit.features", "make_feature_stack", "features.make_feature_stack"),
    ("seldkit.augment", "rotate_foa", "augment.rotate_foa"),
    ("seldkit.augment", "emda_mix", "augment.emda_mix"),
    ("seldkit.augment", "spec_augment", "augment.spec_augment"),
    ("seldkit.scene", "synth_scene", "scene.synth_scene"),
    ("seldkit.scene", "write_wav", "scene.write_wav"),
    ("seldkit.scene", "read_wav", "scene.read_wav"),
    ("seldkit.scene", "write_label_csv", "scene.label_csv"),
    ("seldkit.scene", "read_label_csv", "scene.label_csv"),
    ("seldkit.accdoa", "decode_accdoa", "accdoa.decode_accdoa"),
    ("seldkit.accdoa", "pool_to_label_rate", "accdoa.pool_to_label_rate"),
]
