"""Command-line front end: pretraining, resuming, fine-tuning, generation,
evaluation, benchmarking, and parameter counting.

All commands are driven by one JSON run config (see config module) plus four
global flags: --config, --seed, --mixing, --out. Flags override the config
file. Every command is deterministic given (config, seed) and uses exit code
0 on success, 1 with a one-line diagnostic on stderr for any expected error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .bench import bench_mixing_vs_attention, results_csv, results_markdown
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .encoder import (
    base_encoder_config,
    count_params,
    encoder_config_from_dict,
    encoder_config_to_dict,
    init_encoder_state,
    param_shapes,
    state_from_arrays,
    swap_mixing,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingError
from .metrics import TaskMetricPair, relative_performance, rouge1_f, rougeL_f
from .rng import SplitRng
from .seq2seq import (
    DecoderConfig,
    GenerationConfig,
    generate,
    init_seq2seq_state,
    seq2seq_state_from_arrays,
)
from .spectral import MixingKind
from .training import (
    ByteTokenizer,
    load_corpus_jsonl,
    load_pairs_jsonl,
    pack_corpus,
    read_jsonl,
    train_mlm,
    train_seq2seq,
)

MIXING_LABELS = [kind.label for kind in MixingKind]


def _require_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config")
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mixing is not None:
        encoder = dataclasses.replace(cfg.encoder, mixing=MixingKind.from_label(args.mixing))
        cfg = dataclasses.replace(cfg, encoder=encoder)
    return cfg


def _require_input(cfg: RunConfig, key: str, command: str) -> str:
    path = cfg.path(key)
    if path is None:
        raise ConfigError(f"{command} requires paths.{key} in the config")
    if not os.path.exists(path):
        raise ConfigError(f"paths.{key}: no such file: {path}")
    return path


def _out_path(cfg: RunConfig, args, key: str):
    return args.out if args.out is not None else cfg.path(key)


def _write_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "batch_size", "lr"])
        for row in trace:
            writer.writerow([row.step, row.loss, row.batch_size, row.lr])


def _state_arrays(named_params) -> dict:
    return {name: p.value for name, p in named_params}


def _run_mlm_training(cfg: RunConfig, enc_cfg, state, corpus_path, out_path, loss_csv):
    docs = load_corpus_jsonl(corpus_path)
    dataset = pack_corpus(docs, enc_cfg.max_positions)
    trace = train_mlm(
        enc_cfg,
        state,
        dataset,
        cfg.batch_schedule(),
        cfg.steps,
        cfg.seed,
        optimizer=cfg.optimizer.build(),
        grad_accum=cfg.grad_accum,
        policy=cfg.masking,
    )
    save_checkpoint(out_path, encoder_config_to_dict(enc_cfg), _state_arrays(state.named_params()))
    if loss_csv is not None:
        _write_trace_csv(loss_csv, trace)
        print(f"wrote loss trace {loss_csv}")
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps, final loss {final:.4f}")
    print(f"wrote checkpoint {out_path}")
    return 0


def cmd_train_mlm(args) -> int:
    cfg = _require_config(args)
    corpus = _require_input(cfg, "corpus", "train-mlm")
    out = _out_path(cfg, args, "checkpoint_out")
    if out is None:
        raise ConfigError("train-mlm needs --out or paths.checkpoint_out")
    state = init_encoder_state(cfg.encoder, SplitRng(cfg.seed), with_mlm_head=True)
    return _run_mlm_training(cfg, cfg.encoder, state, corpus, out, cfg.path("loss_csv"))


def cmd_resume(args) -> int:
    """Continue pretraining from a checkpoint; optimizer moments restart at zero."""
    cfg = _require_config(args)
    ckpt_path = _require_input(cfg, "checkpoint_in", "resume")
    corpus = _require_input(cfg, "corpus", "resume")
    out = _out_path(cfg, args, "checkpoint_out")
    if out is None:
        raise ConfigError("resume needs --out or paths.checkpoint_out")
    ckpt = load_checkpoint(ckpt_path)
    if "encoder" in ckpt.config:
        raise CheckpointError(f"{ckpt_path} is a sequence-to-sequence checkpoint")
    enc_cfg = encoder_config_from_dict(ckpt.config)
    if args.mixing is not None and args.mixing != enc_cfg.mixing.label:
        enc_cfg, state = swap_mixing(ckpt, MixingKind.from_label(args.mixing))
        print(f"mixing swapped {ckpt.config['mixing']} -> {enc_cfg.mixing.label}")
    else:
        state = state_from_arrays(enc_cfg, ckpt.arrays)
    print(f"resumed {ckpt_path} (optimizer moments reset)")
    return _run_mlm_training(cfg, enc_cfg, state, corpus, out, cfg.path("loss_csv"))


def _encoder_weights_from_mlm_checkpoint(enc_cfg, ckpt, ckpt_path):
    """Warm-start arrays: the prediction head is dropped, everything else kept."""
    saved = encoder_config_to_dict(encoder_config_from_dict(ckpt.config))
    wanted = encoder_config_to_dict(enc_cfg)
    differing = sorted(
        key for key in wanted
        if key != "mixing" and saved.get(key) != wanted[key]
    )
    if differing:
        raise ConfigError(
            f"{ckpt_path} encoder config differs from model.encoder in: {', '.join(differing)}"
        )
    keep = set(param_shapes(enc_cfg, with_mlm_head=False))
    return {name: arr for name, arr in ckpt.arrays.items() if name in keep}


def cmd_finetune(args) -> int:
    cfg = _require_config(args)
    if cfg.decoder is None:
        raise ConfigError("finetune requires model.decoder in the config")
    pairs_path = _require_input(cfg, "pairs", "finetune")
    out = _out_path(cfg, args, "checkpoint_out")
    if out is None:
        raise ConfigError("finetune needs --out or paths.checkpoint_out")
    state = init_seq2seq_state(cfg.encoder, cfg.decoder, SplitRng(cfg.seed))
    if cfg.path("checkpoint_in") is not None:
        ckpt_path = _require_input(cfg, "checkpoint_in", "finetune")
        ckpt = load_checkpoint(ckpt_path)
        if "encoder" in ckpt.config:
            raise CheckpointError(f"{ckpt_path} is not an encoder pretraining checkpoint")
        arrays = _encoder_weights_from_mlm_checkpoint(cfg.encoder, ckpt, ckpt_path)
        state.encoder = state_from_arrays(cfg.encoder, arrays)
        print(f"initialized encoder from {ckpt_path}")
    pairs = load_pairs_jsonl(pairs_path)
    val_pairs = None
    if cfg.path("val_pairs") is not None:
        val_pairs = load_pairs_jsonl(_require_input(cfg, "val_pairs", "finetune"))
    trace = train_seq2seq(
        state,
        pairs,
        cfg.steps,
        cfg.seed,
        optimizer=cfg.optimizer.build(),
        batch_size=cfg.batch_size,
        val_pairs=val_pairs,
        patience=cfg.patience,
    )
    config_blob = {
        "encoder": encoder_config_to_dict(cfg.encoder),
        "decoder": dataclasses.asdict(cfg.decoder),
    }
    save_checkpoint(out, config_blob, _state_arrays(state.named_params()))
    if cfg.path("loss_csv") is not None:
        _write_trace_csv(cfg.path("loss_csv"), trace)
        print(f"wrote loss trace {cfg.path('loss_csv')}")
    final = trace[-1].loss if trace else float("nan")
    print(f"fine-tuned {len(trace)} steps, final loss {final:.4f}")
    print(f"wrote checkpoint {out}")
    return 0


def _load_seq2seq_checkpoint(path):
    ckpt = load_checkpoint(path)
    if "encoder" not in ckpt.config or "decoder" not in ckpt.config:
        raise CheckpointError(f"{path} is not a sequence-to-sequence checkpoint")
    enc_cfg = encoder_config_from_dict(ckpt.config["encoder"])
    try:
        dec_cfg = DecoderConfig(**ckpt.config["decoder"])
    except TypeError as exc:
        raise CheckpointError(f"{path}: bad decoder config: {exc}") from exc
    return seq2seq_state_from_arrays(enc_cfg, dec_cfg, ckpt.arrays)


def cmd_generate(args) -> int:
    cfg = _require_config(args)
    ckpt_path = _require_input(cfg, "checkpoint_in", "generate")
    sources_path = _require_input(cfg, "sources", "generate")
    out = _out_path(cfg, args, "output")
    if out is None:
        raise ConfigError("generate needs --out or paths.output")
    state = _load_seq2seq_checkpoint(ckpt_path)
    gen = cfg.generation if cfg.generation is not None else GenerationConfig()
    tokenizer = ByteTokenizer()
    sources = read_jsonl(sources_path, ("source",))
    with open(out, "w", encoding="utf-8") as out_fh:
        for source, in sources:
            ids = generate(state, tokenizer.encode(source), gen)
            out_fh.write(json.dumps({"source": source, "generated": tokenizer.decode(ids)}) + "\n")
    print(f"generated {len(sources)} sequences -> {out}")
    return 0


def _read_rouge_pairs(path):
    pairs = read_jsonl(path, ("hyp", "ref"))
    if not pairs:
        raise ConfigError(f"{path}: no evaluation pairs")
    return pairs


def _read_task_metric_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"task", "candidate", "reference"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain task,candidate,reference")
        rows = [
            TaskMetricPair(
                candidate=float(row["candidate"]),
                reference=float(row["reference"]),
                task=row["task"],
            )
            for row in reader
        ]
    if not rows:
        raise ConfigError(f"{path}: no metric rows")
    return rows


def cmd_evaluate(args) -> int:
    if args.input is None:
        raise ConfigError("evaluate requires --input")
    if not os.path.exists(args.input):
        raise ConfigError(f"--input: no such file: {args.input}")
    if args.metric == "rouge":
        pairs = _read_rouge_pairs(args.input)
        r1 = sum(rouge1_f(h, r).fmeasure for h, r in pairs) / len(pairs)
        rl = sum(rougeL_f(h, r).fmeasure for h, r in pairs) / len(pairs)
        print(f"rouge1_f {r1:.4f}")
        print(f"rougeL_f {rl:.4f}")
    else:
        rows = _read_task_metric_csv(args.input)
        print(f"{100.0 * relative_performance(rows):.1f}")
    return 0


def cmd_bench(args) -> int:
    seq_lens = [int(part) for part in args.seq_lens.split(",") if part.strip()]
    results = bench_mixing_vs_attention(
        seq_lens,
        d_model=args.d_model,
        n_heads=args.n_heads,
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed if args.seed is not None else 0,
    )
    print(results_markdown(results), end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results_csv(results))
        print(f"wrote {args.out}")
    return 0


def cmd_count_params(args) -> int:
    if args.config is not None:
        encoder = _require_config(args).encoder
    else:
        mixing = MixingKind.from_label(args.mixing) if args.mixing else MixingKind.FOURIER_REAL
        encoder = base_encoder_config(mixing=mixing)
    print(f"parameters: {count_params(encoder):,}")
    counts = {
        n: count_params(dataclasses.replace(encoder, max_positions=n)) for n in (4096, 8192)
    }
    for n, total in counts.items():
        print(f"max_positions {n}: {total:,}")
    print(f"delta: {counts[8192] - counts[4096]:,}")
    return 0


_COMMANDS = {
    "train-mlm": cmd_train_mlm,
    "resume": cmd_resume,
    "finetune": cmd_finetune,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
    "count-params": cmd_count_params,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run config")
    common.add_argument("--seed", type=int, metavar="N", help="override training.seed")
    common.add_argument("--mixing", choices=MIXING_LABELS, help="override mixing kind")
    common.add_argument("--out", metavar="PATH", help="override the output path")

    parser = argparse.ArgumentParser(
        prog="specmix",
        description="Spectral token-mixing models: train, generate, evaluate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train-mlm", parents=[common],
                   help="pretrain an encoder with masked-token prediction")
    sub.add_parser("resume", parents=[common],
                   help="continue pretraining from a checkpoint")
    sub.add_parser("finetune", parents=[common],
                   help="train the encoder-decoder on source/target pairs")
    sub.add_parser("generate", parents=[common],
                   help="beam-search decode a JSONL file of sources")
    p_eval = sub.add_parser("evaluate", parents=[common], help="score prediction files")
    p_eval.add_argument("--metric", choices=["rouge", "relative-performance"],
                        default="rouge")
    p_eval.add_argument("--input", metavar="PATH",
                        help="JSONL of {hyp,ref} or CSV of task,candidate,reference")
    p_bench = sub.add_parser("bench", parents=[common],
                             help="time token mixing against self-attention")
    p_bench.add_argument("--seq-lens", default="512,4096", metavar="L1,L2,...",
                         help="comma-separated sequence lengths")
    p_bench.add_argument("--d-model", type=int, default=768)
    p_bench.add_argument("--n-heads", type=int, default=12)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--warmup", type=int, default=2)
    sub.add_parser("count-params", parents=[common],
                   help="print exact parameter counts and the 4096 vs 8192 delta")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CheckpointError, ShapeError, TrainingError,
            FloatingPointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
