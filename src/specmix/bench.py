"""Throughput microbenchmarks: token mixing vs a self-attention sub-layer.

Timed workloads per sequence length, on identical seeded inputs:

    attention     full sub-layer forward: Q/K/V projections, scaled dot-product
                  softmax, output projection
    fourier-real  mix2d with the real-part projection only
    hartley       mix2d with the Hartley projection only

The mixing workloads time just the transform because that is all the mixing
sub-layer executes; the attention baseline includes its projections because
attention cannot run without them. Reported numbers are 1 / the median of
`repeats` samples of seconds per call, after `warmup` discarded calls,
single-threaded (BLAS pools are clamped when threadpoolctl is available;
otherwise only the thread variables in the environment hold them, and
`specmix bench` warns unless the loaded OpenBLAS reads back one thread). A
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
from .nn import Node, init_params, linear, multi_head_attention
from .rng import SplitRng
from .spectral import MixingKind, mix2d

ATTENTION = "attention"
MIXING_KINDS = (MixingKind.FOURIER_REAL, MixingKind.HARTLEY)
# One call of a fast transform lasts tens of milliseconds, short enough for
# host speed drift to swamp the few-percent gap between two mixing kinds.
MIN_SAMPLE_S = 0.2


@dataclass(frozen=True)
class BenchResult:
    workload: str
    seq_len: int
    d_model: int
    iters_per_sec: float
    speedup_vs_baseline: float


# Environment variables that set the BLAS thread count when nothing clamps it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS's thread-count getter under the names its builds export.
_GET_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _threadpool_limits():
    """threadpoolctl's threadpool_limits, or None when it is not installed."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    return threadpool_limits


def _single_thread():
    limits = _threadpool_limits()
    return contextlib.nullcontext() if limits is None else limits(limits=1)


def _blas_threads() -> int | None:
    """Threads the OpenBLAS loaded into this process will use, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines()
                       if "openblas" in line.lower() and ".so" in line}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _GET_THREADS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def unclamped_blas_warning() -> str | None:
    """Why a bench's BLAS may run more than one thread, or None when it runs one.

    The count is read back from the loaded OpenBLAS under the bench's own
    clamp, so it says what the timed calls ran with.
    """
    with _single_thread():
        threads = _blas_threads()
    if threads == 1:
        return None
    what = ("could not read the BLAS thread count" if threads is None
            else f"BLAS runs {threads} threads, not 1")
    found = [f"{var}={os.environ[var]}" for var in THREAD_VARS if var in os.environ]
    return f"{what}; thread variables set: {', '.join(found) or 'none'}"


def _time_workloads(fns, repeats: int, warmup: int) -> list:
    """Median over `repeats` samples of each fn's seconds per call.

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
    return [float(np.median(times)) for times in samples]


def bench_mixing_vs_attention(
    seq_lens,
    d_model: int = 768,
    n_heads: int = 12,
    repeats: int = 5,
    warmup: int = 2,
    seed: int = 0,
) -> list:
    """Time the three workloads at each length; speedups are vs attention."""
    if repeats < 5:
        raise ConfigError(f"repeats must be >= 5, got {repeats}")
    if warmup < 2:
        raise ConfigError(f"warmup must be >= 2, got {warmup}")
    seq_lens = [int(n) for n in seq_lens]
    if not seq_lens or min(seq_lens) < 1:
        raise ConfigError("seq_lens must be positive")
    if d_model < 1 or n_heads < 1 or d_model % n_heads != 0:
        raise ConfigError(f"d_model {d_model} must be a positive multiple of n_heads {n_heads}")

    root = SplitRng(seed)
    shapes = {f"{w}{p}": (d_model, d_model) if w == "w" else (d_model,)
              for p in "qkvo" for w in "wb"}
    params = init_params(shapes, root.split(0))

    def proj(p, x):
        return linear(x, params[f"w{p}"], params[f"b{p}"], None)

    results = []
    with _single_thread():
        for i, seq_len in enumerate(seq_lens):
            x = root.split(1 + i).normal(size=(seq_len, d_model))
            node = Node(x)

            def run_attention():
                q, k, v = (proj(p, node) for p in "qkv")
                return proj("o", multi_head_attention(q, k, v, n_heads, None)).value

            mixers = [lambda kind=kind: mix2d(x, kind) for kind in MIXING_KINDS]
            base_median, *medians = _time_workloads([run_attention, *mixers], repeats, warmup)
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
