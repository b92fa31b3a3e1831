"""In-memory span tracer that wraps specmix's public functions from outside.

``Tracer.installed()`` replaces every public function of the measured
modules, plus ``nn.Tape.backward`` and ``training.AdamW.step``, with a
wrapper that records a span (name, start, end, parent) around the call. A
function that another module imported by name is patched in that module too
(``encoder.mix2d``, ``training.encoder_forward``, ``seq2seq.encoder_forward``,
the package re-exports), because a call through such a name never passes the
defining module. ``nn.Tape.record`` is patched so that each backward closure
runs inside a span labelled ``<op>.bwd`` after the op that recorded it. Every
patch is undone when the context exits.

``cli``, ``config``, ``rng`` and ``errors`` are not wrapped: none of them is
on a timed path. Spans stay in memory until ``layer_metrics`` reduces them.
In the metrics, ``fwd_s``, ``bwd_s`` and ``self_s`` are self times (a span's
time less its child spans'), so they add up without double counting; ``s``
is a function's whole busy time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

import specmix

PACKAGE = specmix.__name__
MEASURED_MODULES = ("spectral", "nn", "encoder", "seq2seq", "training", "checkpoint",
                    "metrics", "bench")
METHODS = (("nn", "Tape", "backward"), ("training", "AdamW", "step"))
NN_OPS = ("linear", "multi_head_attention", "layer_norm", "gelu", "embedding_lookup",
          "tied_logits", "masked_cross_entropy")
LOOPS = ("training.train_mlm", "training.train_seq2seq")
# mix2d is also the backward map of the linear mixing kinds; those nested
# calls are reported under mix2d_vjp, not as forward mixing.
NESTED_MIX = "spectral.mix2d_vjp.mix2d"

# Per-layer metrics of the traced run: name -> (unit, better).
PROBE_SHAPES = ((512, 768), (1536, 768))
PER_LAYER = {
    "spectral.mix2d.calls": ("count", "lower"),
    "spectral.mix2d.s": ("s", "lower"),
    "spectral.mix2d.ns_per_elem": ("ns", "lower"),
    "spectral.mix2d_vjp.calls": ("count", "lower"),
    "spectral.mix2d_vjp.s": ("s", "lower"),
}
for _l, _d in PROBE_SHAPES:
    PER_LAYER[f"spectral.probe.L{_l}_d{_d}.mix_ms"] = ("ms", "lower")
    PER_LAYER[f"spectral.probe.L{_l}_d{_d}.attn_ms"] = ("ms", "lower")
    PER_LAYER[f"spectral.probe.L{_l}_d{_d}.speedup"] = ("x", "higher")
for _op in NN_OPS:
    PER_LAYER[f"nn.{_op}.calls"] = ("count", "lower")
    PER_LAYER[f"nn.{_op}.fwd_s"] = ("s", "lower")
    PER_LAYER[f"nn.{_op}.bwd_s"] = ("s", "lower")
PER_LAYER.update({
    "nn.Tape.backward.calls": ("count", "lower"),
    "nn.Tape.backward.s": ("s", "lower"),
    "nn.tapes_per_step": ("ratio", "lower"),
    "encoder.encoder_forward.calls": ("count", "lower"),
    "encoder.encoder_forward.self_s": ("s", "lower"),
    "encoder.encoder_forward.tokens": ("count", "higher"),
    "encoder.mlm_logits.self_s": ("s", "lower"),
    "seq2seq.decoder_forward.calls": ("count", "lower"),
    "seq2seq.decoder_forward.self_s": ("s", "lower"),
    "seq2seq.decoder_forward.positions": ("count", "lower"),
    "seq2seq.positions_per_token": ("ratio", "lower"),
    "seq2seq.generate.self_s": ("s", "lower"),
    "seq2seq.seq2seq_loss.self_s": ("s", "lower"),
    "training.AdamW.step.calls": ("count", "lower"),
    "training.AdamW.step.s": ("s", "lower"),
    "training.apply_mlm_mask.calls": ("count", "lower"),
    "training.apply_mlm_mask.s": ("s", "lower"),
    "training.masked_tokens": ("count", "higher"),
    "training.loop.self_s": ("s", "lower"),
    "checkpoint.save_checkpoint.s": ("s", "lower"),
    "checkpoint.save_checkpoint.bytes": ("B", "lower"),
    "checkpoint.load_checkpoint.s": ("s", "lower"),
    "checkpoint.load_checkpoint.bytes": ("B", "lower"),
    "metrics.rougeL_f.calls": ("count", "lower"),
    "metrics.rougeL_f.s": ("s", "lower"),
    "metrics.rouge1_f.calls": ("count", "lower"),
    "metrics.rouge1_f.s": ("s", "lower"),
})
for _mod in MEASURED_MODULES[:-1]:
    PER_LAYER[f"{_mod}.self_s"] = ("s", "lower")
PER_LAYER["trace.covered_frac"] = ("ratio", "higher")
PER_LAYER["trace.overhead_frac"] = ("ratio", "lower")


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_mix(tracer, fn, args, kwargs, result):
    if not tracer.open_depth["spectral.mix2d_vjp"]:
        tracer.work["spectral.mix2d.elems"] += np.size(result)


def _count_encoder(tracer, fn, args, kwargs, result):
    tracer.work["encoder.tokens"] += len(_arg(fn, args, kwargs, "token_ids"))


def _count_decoder(tracer, fn, args, kwargs, result):
    n = len(_arg(fn, args, kwargs, "target_ids"))
    tracer.work["decoder.positions"] += n
    if tracer.open_depth["seq2seq.generate"]:
        tracer.work["generate.positions"] += n


def _count_generate(tracer, fn, args, kwargs, result):
    tracer.work["generate.tokens"] += len(result)


def _count_mask(tracer, fn, args, kwargs, result):
    tracer.work["training.masked_tokens"] += int(np.count_nonzero(result[1] >= 0))


def _count_bytes(tracer, fn, args, kwargs, result):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}.bytes"
    tracer.work[name] += os.path.getsize(_arg(fn, args, kwargs, "path"))


HOOKS = {
    "spectral.mix2d": _count_mix,
    "encoder.encoder_forward": _count_encoder,
    "seq2seq.decoder_forward": _count_decoder,
    "seq2seq.generate": _count_generate,
    "training.apply_mlm_mask": _count_mask,
    "checkpoint.save_checkpoint": _count_bytes,
    "checkpoint.load_checkpoint": _count_bytes,
}


class Tracer:
    """Spans and work counts for one traced pass over the specmix package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.work = defaultdict(float)
        self.open_depth = defaultdict(int)
        self._stack = []
        self._patches = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name == "spectral.mix2d" and self.open_depth["spectral.mix2d_vjp"]:
            name = NESTED_MIX
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self.open_depth[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self.open_depth[span[0]] -= 1

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        wrappers = {}
        for short in MEASURED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        loaded = [m for n, m in list(sys.modules.items())
                  if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]))
        tape_cls = importlib.import_module(f"{PACKAGE}.nn").Tape
        self._patch(tape_cls, "record", self._labelled_record(tape_cls.__dict__["record"]))

    def _labelled_record(self, record):
        tracer = self

        def labelled(tape, fn):
            if not tracer._stack:
                return record(tape, fn)
            label = tracer.spans[tracer._stack[-1]][0] + ".bwd"

            def closure():
                idx = tracer._enter(label)
                try:
                    fn()
                finally:
                    tracer._exit(idx)

            return record(tape, closure)

        return labelled

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def span_stats(self):
        """Per-name [calls, inclusive s, self s], per-module self s, per-root phases."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_module = defaultdict(float)
        phases = defaultdict(lambda: defaultdict(float))
        root = [0] * n
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s = end - start - child[i]
            stats = by_name[name]
            stats[0] += 1
            stats[1] += end - start
            stats[2] += self_s
            module = name.split(".", 1)[0]
            by_module[module] += self_s
            root[i] = i if parent < 0 else root[parent]
            phases[self.spans[root[i]][0]][module] += self_s
        return by_name, by_module, phases


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, probe: dict) -> dict:
    """Reduce the spans of one traced pass to the per-layer metrics, by name.

    traced_s and untraced_s are the wall times of the two passes' whole loops,
    in-loop checks, input synthesis and hashing included, so covered_frac
    falls when time escapes the wrapped layers.
    """
    by_name, by_module, _ = tracer.span_stats()

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def incl(name):
        return by_name[name][1] if name in by_name else 0.0

    def self_s(name):
        return by_name[name][2] if name in by_name else 0.0

    work = tracer.work
    steps = calls("training.AdamW.step")
    out = {
        "spectral.mix2d.calls": calls("spectral.mix2d"),
        "spectral.mix2d.s": incl("spectral.mix2d"),
        "spectral.mix2d.ns_per_elem": (1e9 * incl("spectral.mix2d") / work["spectral.mix2d.elems"]
                                       if work["spectral.mix2d.elems"] else 0.0),
        "spectral.mix2d_vjp.calls": calls("spectral.mix2d_vjp"),
        "spectral.mix2d_vjp.s": incl("spectral.mix2d_vjp"),
    }
    out.update(probe)
    for op in NN_OPS:
        out[f"nn.{op}.calls"] = calls(f"nn.{op}")
        out[f"nn.{op}.fwd_s"] = self_s(f"nn.{op}")
        out[f"nn.{op}.bwd_s"] = self_s(f"nn.{op}.bwd")
    out.update({
        "nn.Tape.backward.calls": calls("nn.Tape.backward"),
        "nn.Tape.backward.s": incl("nn.Tape.backward"),
        "nn.tapes_per_step": calls("nn.Tape.backward") / steps if steps else 0.0,
        "encoder.encoder_forward.calls": calls("encoder.encoder_forward"),
        "encoder.encoder_forward.self_s": self_s("encoder.encoder_forward"),
        "encoder.encoder_forward.tokens": int(work["encoder.tokens"]),
        "encoder.mlm_logits.self_s": self_s("encoder.mlm_logits"),
        "seq2seq.decoder_forward.calls": calls("seq2seq.decoder_forward"),
        "seq2seq.decoder_forward.self_s": self_s("seq2seq.decoder_forward"),
        "seq2seq.decoder_forward.positions": int(work["decoder.positions"]),
        "seq2seq.positions_per_token": (work["generate.positions"] / work["generate.tokens"]
                                        if work["generate.tokens"] else 0.0),
        "seq2seq.generate.self_s": self_s("seq2seq.generate"),
        "seq2seq.seq2seq_loss.self_s": self_s("seq2seq.seq2seq_loss"),
        "training.AdamW.step.calls": calls("training.AdamW.step"),
        "training.AdamW.step.s": incl("training.AdamW.step"),
        "training.apply_mlm_mask.calls": calls("training.apply_mlm_mask"),
        "training.apply_mlm_mask.s": incl("training.apply_mlm_mask"),
        "training.masked_tokens": int(work["training.masked_tokens"]),
        "training.loop.self_s": sum(self_s(name) for name in LOOPS),
        "checkpoint.save_checkpoint.s": incl("checkpoint.save_checkpoint"),
        "checkpoint.save_checkpoint.bytes": int(work["checkpoint.save_checkpoint.bytes"]),
        "checkpoint.load_checkpoint.s": incl("checkpoint.load_checkpoint"),
        "checkpoint.load_checkpoint.bytes": int(work["checkpoint.load_checkpoint.bytes"]),
        "metrics.rougeL_f.calls": calls("metrics.rougeL_f"),
        "metrics.rougeL_f.s": incl("metrics.rougeL_f"),
        "metrics.rouge1_f.calls": calls("metrics.rouge1_f"),
        "metrics.rouge1_f.s": incl("metrics.rouge1_f"),
    })
    for module in MEASURED_MODULES[:-1]:
        out[f"{module}.self_s"] = by_module.get(module, 0.0)
    out["trace.covered_frac"] = sum(by_module.values()) / traced_s if traced_s > 0 else 0.0
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return out


def probe_metrics(seed: int) -> dict:
    """The paper's mixing-vs-attention claim at PROBE_SHAPES, from the library's bench."""
    out = {}
    for l, d in PROBE_SHAPES:
        rows = specmix.bench_mixing_vs_attention([l], d_model=d, n_heads=12, seed=seed)
        by_kind = {r.workload: r for r in rows}
        attn, mix = by_kind["attention"], by_kind["hartley"]
        out[f"spectral.probe.L{l}_d{d}.mix_ms"] = 1e3 / mix.iters_per_sec
        out[f"spectral.probe.L{l}_d{d}.attn_ms"] = 1e3 / attn.iters_per_sec
        out[f"spectral.probe.L{l}_d{d}.speedup"] = mix.speedup_vs_baseline
    return out
