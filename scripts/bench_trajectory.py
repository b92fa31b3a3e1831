"""Write the next BENCH_<n>.json: the benchmark's end-to-end metrics over a fixed seed set.

    python3 scripts/bench_trajectory.py                   # measure this checkout
    python3 scripts/bench_trajectory.py --checkout DIR    # measure another checkout

The timing blocks need a checkout whose ``bench._time_workloads`` returns
each fn's samples and whose ``bench._single_thread`` is a context manager.

Each workload that BENCHMARK.json lists runs once per seed in SEEDS, as
``perfbench/run.py --workload W --seed S --trace 0`` from the measured
checkout's own perfbench, for BENCHMARK.json's ``run_seconds``. Runs are
sequential, one process at a time. The file records, per workload, the
median and interquartile range of every end-to-end metric over the seeds,
each run's metrics and digests, and the failed and attempted operation
counts. It also records the provenance block perfbench prints (versions,
CPU, BLAS threads in effect) and the measured commit.

The ``training_memory`` block holds the traced (tracemalloc) peak of one MLM
training step at each length in MEMORY_LENGTHS: Hartley mixing, 2 layers,
d_model 768, d_ff 3072, byte vocabulary. Its ``base_width`` block holds the
same peaks for BASE_MODEL (``base_encoder_config``'s widths and 32000-token
vocabulary) at each depth in BASE_LAYERS and length in BASE_LENGTHS, where
the masked-token head's share of a step shows. Its ``mlm_batch_step``
block holds the peak of a whole ``train_mlm`` step, AdamW included, of a
1-layer BASE_MODEL on BATCH_SHAPE slices: the memory of the tapes a step's
slices share. Its ``seq2seq`` block holds
the peaks of one ``seq2seq_loss`` step of the hybrid model: a 1-layer
BASE_MODEL encoder and the default DecoderConfig (HYBRID_DECODER, whose
widths are BASE_MODEL's) on HYBRID_LENGTHS source and target tokens. Each
peak pair (the forward pass's and the whole step's) is measured in a fresh
process that imports the measured checkout's sources.

The ``decoding`` block holds ``generate``'s wall ms per generated token at
each beam width in DECODE_BEAMS and target length in DECODE_LENGTHS, for a
Hartley hybrid model with DECODE_ENCODER's widths and DECODE_DECODER's
layers on a DECODE_SOURCE-token source. EOS is unreachable and no n-gram is
banned, so each call decodes the whole target length.

The ``encoding`` block holds the wall ms of the tape-free
``encoder_forward`` of a 1-layer BASE_MODEL Hartley encoder at each length
in ENCODE_LENGTHS: the long-document inference path, at a prime next to each
power of two.

Each timing block runs in one fresh process, where one model serves all of
its configurations and ``specmix.bench._time_workloads`` times them
interleaved under ``bench._single_thread``, as ``specmix bench`` does. Each
entry holds the samples' median and quartiles; the block records TIMING,
MIN_SAMPLE_S and the BLAS thread counts read back under the clamp.

Files are numbered in order in this repository's root: the first is
BENCH_0.json, and each later one names the file before it as its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11, 13)
MEMORY_LENGTHS = (4096, 8192)
MEMORY_MODEL = {"n_layers": 2, "d_model": 768, "d_ff": 3072}
BASE_MODEL = {"d_model": 768, "d_ff": 3072, "vocab_size": 32000}
BASE_LAYERS = (1, 2)
BASE_LENGTHS = (1024, 2048)
BATCH_SHAPE = (8, 128)  # slices x tokens of the mlm_batch_step probe
HYBRID_DECODER = {"n_layers": 6, "n_heads": 12}
HYBRID_LENGTHS = (4096, 256)
DECODE_ENCODER = {"n_layers": 1, "d_model": 256, "d_ff": 1024, "vocab_size": 261}  # byte vocab
DECODE_DECODER = {"n_layers": 4, "n_heads": 4}
DECODE_SOURCE = 255
DECODE_BEAMS = (1, 4)
DECODE_LENGTHS = (64, 512)
ENCODE_LENGTHS = (509, 512, 4093, 4096)
# bench.REPEATS and bench.WARMUP, spelled out so --checkout measures older trees too
TIMING = {"repeats": 5, "warmup": 2}


def run_workload(checkout: Path, command: list, workload: str, seed: int,
                 seconds: float) -> dict:
    """One perfbench run: its report line and its result line."""
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    *_, report, result = out.stdout.strip().splitlines()
    return {"report": json.loads(report)["report"], "result": json.loads(result)}


def quartiles(values) -> dict:
    """Median, first and third quartiles and interquartile range of values."""
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def summarize(runs: list, units: dict) -> dict:
    """Median and interquartile range of each end-to-end metric over the runs."""
    return {name: {"unit": unit, **quartiles([run["metrics"][name] for run in runs])}
            for name, unit in units.items()}


def _step_peaks(loss_on) -> dict:
    """Traced peak MiB of the taped forward loss_on(tape) alone and of the whole step."""
    import tracemalloc

    import specmix as sm

    tracemalloc.start()
    try:
        tape = sm.Tape()
        loss = loss_on(tape)
        forward = tracemalloc.get_traced_memory()[1]
        tape.backward(loss)
        step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"forward_peak_mib": forward / 2**20, "step_peak_mib": step / 2**20}


def mlm_step_peaks(model: dict, seq_len: int) -> dict:
    """Traced peak MiB of one MLM step of a Hartley model: its forward alone and the whole step.

    model holds the EncoderConfig fields other than max_positions and
    mixing; vocab_size defaults to the byte tokenizer's. The loss is
    mlm_loss, as train_mlm runs it. Imports specmix from sys.path, so the
    measured checkout's sources must lead it (training_memory runs this in
    such a process).
    """
    import specmix as sm

    cfg = sm.EncoderConfig(**{"vocab_size": sm.ByteTokenizer.vocab_size, **model},
                           max_positions=seq_len, mixing=sm.MixingKind.HARTLEY)
    state = sm.init_encoder_state(cfg, sm.SplitRng(SEEDS[0]))
    rng = sm.SplitRng(SEEDS[0]).split(1)
    ids = rng.integers(sm.ByteTokenizer.n_specials, cfg.vocab_size, size=seq_len)
    inputs, labels = sm.apply_mlm_mask(ids, sm.MaskingPolicy(), rng, vocab_size=cfg.vocab_size)
    return _step_peaks(lambda tape: sm.mlm_loss(cfg, state, inputs, labels, tape))


def mlm_batch_step_peaks(model: dict, seq_len: int, batch: int) -> dict:
    """Traced peak MiB of a train_mlm step on batch slices of seq_len tokens, AdamW included.

    model is as for mlm_step_peaks. Two one-step train_mlm calls share one
    AdamW; only the second is traced, since the first allocates the
    optimizer's moments and sets up the transforms. The step runs its slices
    on shared tapes as train_mlm groups them. Imports specmix as
    mlm_step_peaks does.
    """
    import tracemalloc

    import specmix as sm

    cfg = sm.EncoderConfig(**{"vocab_size": sm.ByteTokenizer.vocab_size, **model},
                           max_positions=seq_len, mixing=sm.MixingKind.HARTLEY)
    state = sm.init_encoder_state(cfg, sm.SplitRng(SEEDS[0]))
    dataset = sm.SplitRng(SEEDS[0]).split(1).integers(sm.ByteTokenizer.n_specials,
                                                      cfg.vocab_size, size=(batch, seq_len))
    schedule = sm.BatchSchedule([(None, batch)])
    opt = sm.AdamW(base_lr=1e-4, warmup_steps=0)
    sm.train_mlm(cfg, state, dataset, schedule, 1, seed=SEEDS[0], optimizer=opt)
    tracemalloc.start()
    try:
        sm.train_mlm(cfg, state, dataset, schedule, 1, seed=SEEDS[1], optimizer=opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"step_peak_mib": peak / 2**20}


def seq2seq_step_peaks(model: dict, decoder: dict, src_len: int, tgt_len: int) -> dict:
    """Traced peak MiB of one seq2seq_loss step of a hybrid model: its forward alone and the whole step.

    model holds the Hartley encoder's EncoderConfig fields other than
    max_positions and mixing; the decoder takes its d_model, d_ff and
    vocab_size, and decoder holds its other DecoderConfig fields. Imports
    specmix as mlm_step_peaks does.
    """
    import specmix as sm

    enc = sm.EncoderConfig(**model, max_positions=src_len, mixing=sm.MixingKind.HARTLEY)
    dec = sm.DecoderConfig(d_model=enc.d_model, d_ff=enc.d_ff, vocab_size=enc.vocab_size,
                           **decoder)
    state = sm.init_seq2seq_state(enc, dec, sm.SplitRng(SEEDS[0]))
    rng = sm.SplitRng(SEEDS[0]).split(1)
    source, target = (rng.integers(sm.ByteTokenizer.n_specials, enc.vocab_size, size=n)
                      for n in (src_len, tgt_len))
    return _step_peaks(lambda tape: sm.seq2seq_loss(state, source, target, tape))


def _time_ms(fns: list, units: list) -> tuple:
    """Quartiles of each fn's wall ms per call over its unit, timed together; the timer's settings."""
    from specmix import bench

    with bench._single_thread() as threads:
        samples = bench._time_workloads(fns, **TIMING)
    return ([quartiles([t * 1e3 / unit for t in times]) for times, unit in zip(samples, units)],
            {**TIMING, "min_sample_s": bench.MIN_SAMPLE_S, "blas_threads": threads})


def decode_ms_per_token(encoder: dict, decoder: dict, src_len: int, beams: list,
                        lengths: list) -> dict:
    """Quartiles of generate's wall ms per token of one Hartley hybrid model at each beam and length.

    encoder and decoder are as for seq2seq_step_peaks. EOS lies outside the
    vocabulary and no n-gram is banned, so every call decodes exactly its
    length. Imports specmix as mlm_step_peaks does.
    """
    import specmix as sm

    enc = sm.EncoderConfig(**encoder, max_positions=src_len, mixing=sm.MixingKind.HARTLEY)
    dec = sm.DecoderConfig(d_model=enc.d_model, d_ff=enc.d_ff, vocab_size=enc.vocab_size,
                           max_positions=max(lengths) + 1, **decoder)
    state = sm.init_seq2seq_state(enc, dec, sm.SplitRng(SEEDS[0]))
    source = sm.SplitRng(SEEDS[0]).split(1).integers(sm.ByteTokenizer.n_specials,
                                                     enc.vocab_size, size=src_len)

    def decode(beam, n):
        gen = sm.GenerationConfig(max_input_len=src_len, max_target_len=n,
                                  no_repeat_ngram=0, beam_size=beam, eos_id=enc.vocab_size)

        def fn():
            ids = sm.generate(state, source, gen)
            assert len(ids) == n, (len(ids), n)
            return ids
        return fn

    configs = [(beam, n) for beam in beams for n in lengths]
    ms, provenance = _time_ms([decode(*c) for c in configs], [n for _, n in configs])
    ms = iter(ms)
    return {**provenance,
            "beams": {str(beam): {str(n): next(ms) for n in lengths} for beam in beams}}


def encode_ms(model: dict, lengths: list) -> dict:
    """Quartiles of one Hartley encoder's tape-free forward wall ms on random ids of each length.

    model is as for mlm_step_peaks. Imports specmix as mlm_step_peaks does.
    """
    import specmix as sm

    cfg = sm.EncoderConfig(**{"vocab_size": sm.ByteTokenizer.vocab_size, **model},
                           max_positions=max(lengths), mixing=sm.MixingKind.HARTLEY)
    state = sm.init_encoder_state(cfg, sm.SplitRng(SEEDS[0]), with_mlm_head=False)

    def encode(n):
        ids = sm.SplitRng(SEEDS[0]).split(1).integers(sm.ByteTokenizer.n_specials,
                                                      cfg.vocab_size, size=n)
        return lambda: sm.encoder_forward(cfg, state, ids).value

    ms, provenance = _time_ms([encode(n) for n in lengths], [1] * len(lengths))
    return {**provenance, "lengths": dict(zip(map(str, lengths), ms))}


def _probe(checkout: Path, fn: str, *args):
    """This module's fn(*args), run in a fresh single-BLAS-thread process on checkout's sources."""
    probe = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import bench_trajectory as b; "
             "print(json.dumps(getattr(b, sys.argv[3])(*json.loads(sys.argv[4]))))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", probe, str(checkout / "src"), str(Path(__file__).parent),
         fn, json.dumps(args)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    print(f"{fn}{args}: {out.stdout.strip()}", file=sys.stderr)
    return json.loads(out.stdout)


def training_memory(checkout: Path) -> dict:
    """The step peaks of MEMORY_MODEL, BASE_MODEL and the hybrid model, each in a fresh process."""
    hybrid = {**BASE_MODEL, "n_layers": 1}
    src_len, tgt_len = HYBRID_LENGTHS
    return {"model": {**MEMORY_MODEL, "mixing": "hartley", "vocab": "byte tokenizer"},
            "unit": "MiB", "tool": "tracemalloc",
            "lengths": {str(n): _probe(checkout, "mlm_step_peaks", MEMORY_MODEL, n)
                        for n in MEMORY_LENGTHS},
            "base_width": {
                "model": {**BASE_MODEL, "mixing": "hartley"},
                "layers": {str(depth): {str(n): _probe(checkout, "mlm_step_peaks",
                                                       {**BASE_MODEL, "n_layers": depth}, n)
                                        for n in BASE_LENGTHS}
                           for depth in BASE_LAYERS}},
            "mlm_batch_step": {
                "model": {**hybrid, "mixing": "hartley"}, "seq_len": BATCH_SHAPE[1],
                "batch": BATCH_SHAPE[0], "optimizer": "AdamW",
                **_probe(checkout, "mlm_batch_step_peaks", hybrid, BATCH_SHAPE[1],
                         BATCH_SHAPE[0])},
            "seq2seq": {
                "encoder": {**hybrid, "mixing": "hartley"}, "decoder": HYBRID_DECODER,
                "source_length": src_len, "target_length": tgt_len,
                **_probe(checkout, "seq2seq_step_peaks", hybrid, HYBRID_DECODER, src_len,
                         tgt_len)}}


def decoding(checkout: Path) -> dict:
    """generate's ms per token at each beam in DECODE_BEAMS and length in DECODE_LENGTHS."""
    return {"encoder": {**DECODE_ENCODER, "mixing": "hartley"}, "decoder": DECODE_DECODER,
            "source_length": DECODE_SOURCE, "eos": "unreachable", "no_repeat_ngram": 0,
            "unit": "ms/token",
            **_probe(checkout, "decode_ms_per_token", DECODE_ENCODER, DECODE_DECODER,
                     DECODE_SOURCE, DECODE_BEAMS, DECODE_LENGTHS)}


def encoding(checkout: Path) -> dict:
    """The tape-free encoder forward's ms at each length in ENCODE_LENGTHS."""
    model = {**BASE_MODEL, "n_layers": 1}
    return {"model": {**model, "mixing": "hartley"}, "tape": False, "unit": "ms",
            **_probe(checkout, "encode_ms", model, ENCODE_LENGTHS)}


def next_file() -> tuple:
    """(path of the file to write, name of its parent file or None)."""
    numbers = sorted(int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
                     if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    n = numbers[-1] + 1 if numbers else 0
    return ROOT / f"BENCH_{n}.json", (f"BENCH_{numbers[-1]}.json" if numbers else None)


def commit_of(checkout: Path) -> dict:
    """The checkout's HEAD and whether its measured tracked files differ from it.

    Measured files are the sources, the benchmark and the scripts; an edited
    document leaves the flag false. Both are None outside git.
    """
    def git(*args):
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no",
                "--", "src", "perfbench", "scripts", "BENCHMARK.json")
    return {"head": head, "uncommitted_changes": bool(dirty) if head else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose perfbench and sources are measured (default: this one)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    command = [sys.executable if part in ("python", "python3") else part
               for part in spec["command"]]
    path, parent = next_file()

    workloads, provenance = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            out = run_workload(checkout, command, workload, seed, spec["run_seconds"])
            report, result = out["report"], out["result"]
            if provenance is None:
                provenance = {k: v for k, v in report["provenance"].items() if k != "seed"}
            runs.append({"seed": seed,
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                         "digests": report["digests"]})
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summarize(runs, units),
            "runs": runs,
        }

    record = {"file": path.name, "parent": parent, "commit": commit_of(checkout),
              "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
              "provenance": provenance, "workloads": workloads,
              "training_memory": training_memory(checkout), "decoding": decoding(checkout),
              "encoding": encoding(checkout)}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
