"""Throughput microbenchmarks: token mixing vs a self-attention sub-layer.

Timed workloads per sequence length, on identical seeded inputs:

    attention     the decoder's own attention sub-layer (seq2seq._attention_sublayer),
                  run forward as non-causal self-attention: Q/K/V projections,
                  scaled dot-product softmax, output projection
    fourier-real  mix2d with the real-part projection only
    hartley       mix2d with the Hartley projection only

The mixing workloads time just the transform because that is all the mixing
sub-layer executes; the attention baseline includes its projections because
attention cannot run without them. Reported numbers are 1 / the median of
REPEATS samples of seconds per call, after WARMUP discarded calls,
single-threaded: each loaded OpenBLAS is held to one thread, then restored;
`specmix bench` warns if one reads back more or none is found (as with MKL,
which only the thread variables in the environment hold to one thread). A
sample is the mean over as many calls as add up to MIN_SAMPLE_S of timed
work. The three workloads of one length take one sample each per round, their
calls interleaved one by one, so a drift in host speed falls on all of them
alike. Every call's output feeds a checksum that is verified finite, so no
work can be skipped.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nn import Node, init_params
from .rng import SplitRng
from .seq2seq import _attention_shapes, _attention_sublayer, _kv
from .spectral import MixingKind, mix2d

ATTENTION = "attention"
MIXING_KINDS = (MixingKind.FOURIER_REAL, MixingKind.HARTLEY)
# One call of a fast transform lasts tens of milliseconds, short enough for
# host speed drift to swamp the few-percent gap between two mixing kinds.
MIN_SAMPLE_S = 0.2
# Samples per workload and the untimed calls before them.
REPEATS = 5
WARMUP = 2


@dataclass(frozen=True)
class BenchResult:
    workload: str
    seq_len: int
    d_model: int
    iters_per_sec: float
    speedup_vs_baseline: float


# Environment variables that set the BLAS thread count when nothing clamps it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS's thread-count getter and setter under the names its builds export.
_THREAD_CALLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
                 for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_")]


def _openblas_calls():
    """Yield the (get, set) thread-count functions of each OpenBLAS loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return
    for lib in sorted({line.split()[-1] for line in maps.splitlines()
                       if "openblas" in line.lower() and ".so" in line}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _THREAD_CALLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                yield get, set_


@contextlib.contextmanager
def _single_thread():
    """Hold each loaded OpenBLAS to one thread, yielding the counts read back; restore on exit."""
    calls = list(_openblas_calls())
    before = [get() for get, _ in calls]
    try:
        for _, set_ in calls:
            set_(1)
        yield [get() for get, _ in calls]
    finally:
        for (_, set_), threads in zip(calls, before):
            set_(threads)


def unclamped_blas_warning() -> str | None:
    """Why a bench's BLAS may run more than one thread, or None when it runs one.

    The counts are read back from every loaded OpenBLAS under the bench's own
    clamp, so they say what the timed calls ran with.
    """
    with _single_thread() as threads:
        pass
    if threads and set(threads) == {1}:
        return None
    what = (f"BLAS runs {max(threads)} threads, not 1" if threads
            else "could not read the BLAS thread count")
    found = [f"{var}={os.environ[var]}" for var in THREAD_VARS if var in os.environ]
    return f"{what}; thread variables set: {', '.join(found) or 'none'}"


def _time_workloads(fns, repeats: int, warmup: int) -> list:
    """The `repeats` samples of each fn's seconds per call.

    Each round calls the fns in turn, skipping those whose sample already
    holds MIN_SAMPLE_S of timed work, until all of them do. Warmup calls are
    never timed. Every call's output feeds the checksum, so work is observable.
    """
    checksum = 0.0
    for fn in fns:
        for _ in range(warmup):
            checksum += float(np.sum(fn()))
    samples = [[] for _ in fns]
    for _ in range(repeats):
        elapsed, calls = [0.0] * len(fns), [0] * len(fns)
        while min(elapsed) < MIN_SAMPLE_S:
            for i, fn in enumerate(fns):
                if elapsed[i] < MIN_SAMPLE_S:
                    start = time.perf_counter()
                    out = fn()
                    elapsed[i] += time.perf_counter() - start
                    calls[i] += 1
                    checksum += float(np.sum(out))
        for times, e, c in zip(samples, elapsed, calls):
            times.append(e / c)
    if not np.isfinite(checksum):
        raise FloatingPointError(f"benchmark produced a non-finite checksum: {checksum}")
    return samples


def bench_mixing_vs_attention(
    seq_lens,
    d_model: int = 768,
    n_heads: int = 12,
    seed: int = 0,
) -> list:
    """Time the three workloads at each length; speedups are vs attention."""
    seq_lens = [int(n) for n in seq_lens]
    if not seq_lens or min(seq_lens) < 1:
        raise ConfigError("seq_lens must be positive")
    if d_model < 1 or n_heads < 1 or d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} must be a positive multiple of n_heads {n_heads}")

    root = SplitRng(seed)
    params = init_params(_attention_shapes(ATTENTION, d_model), root.split(0))

    results = []
    with _single_thread():
        for i, seq_len in enumerate(seq_lens):
            x = root.split(1 + i).normal(size=(seq_len, d_model))
            node = Node(x)

            def run_attention():
                return _attention_sublayer(params, ATTENTION, node,
                                           lambda: _kv(params, ATTENTION, node, None), n_heads,
                                           False, None).value

            mixers = [lambda kind=kind: mix2d(x, kind) for kind in MIXING_KINDS]
            samples = _time_workloads([run_attention, *mixers], REPEATS, WARMUP)
            base_median, *medians = (float(np.median(times)) for times in samples)
            base_ips = 1.0 / base_median
            results.append(BenchResult(ATTENTION, seq_len, d_model, base_ips, 1.0))
            for kind, median in zip(MIXING_KINDS, medians):
                ips = 1.0 / median
                results.append(
                    BenchResult(kind.value, seq_len, d_model, ips, ips / base_ips)
                )
    return results


def results_markdown(results) -> str:
    lines = [
        "| workload | seq_len | d_model | it/s | speedup |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for r in results:
        lines.append(
            f"| {r.workload} | {r.seq_len} | {r.d_model} "
            f"| {r.iters_per_sec:.4g} | {r.speedup_vs_baseline:.2f}x |"
        )
    return "\n".join(lines) + "\n"


def results_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["workload", "seq_len", "d_model", "iters_per_sec", "speedup"])
    for r in results:
        writer.writerow(
            [r.workload, r.seq_len, r.d_model,
             f"{r.iters_per_sec:.6g}", f"{r.speedup_vs_baseline:.6g}"]
        )
    return buf.getvalue()
