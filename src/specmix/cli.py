"""Command-line front end: pretraining, resuming, fine-tuning, generation,
evaluation, benchmarking, and parameter counting.

Each command takes only the flags it reads. Those that read a JSON run config
(--config, see config module) let their --seed, --mixing and --out override it.
Every command is deterministic given (config, seed) and exits 0 on success, 1
with a one-line diagnostic on stderr for any expected error, 2 on a flag it
does not take.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

from .bench import (
    bench_mixing_vs_attention,
    results_csv,
    results_markdown,
    unclamped_blas_warning,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config
from .encoder import (
    base_encoder_config,
    count_params,
    init_encoder_state,
    state_from_arrays,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingError, build_config
from .metrics import TaskMetricPair, relative_performance, rouge1_f, rougeL_f
from .rng import SplitRng
from .seq2seq import (
    GenerationConfig,
    generate,
    init_seq2seq_state,
    seq2seq_state_from_arrays,
)
from .spectral import MixingKind
from .training import (
    ByteTokenizer,
    load_corpus_jsonl,
    pack_corpus,
    read_jsonl,
    train_mlm,
    train_seq2seq,
)


def _seed(args, default: int) -> int:
    if getattr(args, "seed", None) is None:
        return default
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    return args.seed


def _require_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config")
    cfg = load_run_config(args.config)
    cfg = dataclasses.replace(cfg, seed=_seed(args, cfg.seed))
    if getattr(args, "mixing", None) is not None:
        encoder = dataclasses.replace(cfg.encoder, mixing=args.mixing)
        cfg = dataclasses.replace(cfg, encoder=encoder)
    return cfg


def _require_input(cfg: RunConfig, key: str, command: str) -> str:
    path = cfg.path(key)
    if path is None:
        raise ConfigError(f"{command} requires paths.{key} in the config")
    if not os.path.exists(path):
        raise ConfigError(f"paths.{key}: no such file: {path}")
    return path


def _check_ids(where: str, what: str, ids, key: str, model) -> None:
    """Raise ConfigError at where unless ids run through model.<key>.

    ids is one sequence or a batch of rows. Rows must be non-empty and no
    longer than max_positions, and every id must be below vocab_size.
    """
    length = ids.shape[-1]
    if length == 0:
        raise ConfigError(f"{where}: empty {what}")
    if length > model.max_positions:
        raise ConfigError(f"{where}: {what} of {length} tokens exceeds "
                          f"model.{key}.max_positions {model.max_positions}")
    top = int(ids.max(initial=0))
    if top >= model.vocab_size:
        raise ConfigError(f"{where}: {what} id {top} needs model.{key}.vocab_size >= "
                          f"{top + 1}, got {model.vocab_size}")


def _check_out_dir(what: str, path) -> None:
    """Raise ConfigError naming what unless path, if given, is in an existing directory."""
    directory = os.path.dirname(path or "")
    if directory and not os.path.isdir(directory):
        raise ConfigError(f"{what}: no such directory: {directory}")


def _out_path(cfg: RunConfig, args, key: str) -> str:
    """--out, else paths.<key>; its directory, and paths.loss_csv's in training, must exist."""
    name, out = ("--out", args.out) if args.out is not None else (f"paths.{key}", cfg.path(key))
    if out is None:
        raise ConfigError(f"{args.command} needs --out or paths.{key}")
    _check_out_dir(name, out)
    if key == "checkpoint_out":
        _check_out_dir("paths.loss_csv", cfg.path("loss_csv"))
    return out


def _write_trace_csv(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "batch_size", "lr"])
        for row in trace:
            writer.writerow([row.step, row.loss, row.batch_size, row.lr])


def _finish_training(cfg: RunConfig, out_path, config_blob: dict, state, trace,
                     verb: str) -> int:
    """Save the checkpoint and the loss CSV, and report the run."""
    save_checkpoint(out_path, config_blob, {name: p.value for name, p in state.named_params()})
    loss_csv = cfg.path("loss_csv")
    if loss_csv is not None:
        _write_trace_csv(loss_csv, trace)
        print(f"wrote loss trace {loss_csv}")
    final = trace[-1].loss if trace else float("nan")
    print(f"{verb} {len(trace)} steps, final loss {final:.4f}")
    print(f"wrote checkpoint {out_path}")
    return 0


def _load_checkpoint_in(cfg: RunConfig, command: str):
    """The weights at paths.checkpoint_in as model.encoder, plus model.decoder for generate.

    Each saved config must equal its model.* section in every field but the
    encoder's mixing, which owns no parameters: a different kind is swapped in
    and reported. resume keeps the masked-prediction head; finetune drops it.
    """
    path = _require_input(cfg, "checkpoint_in", command)
    ckpt = load_checkpoint(path)
    if command == "generate":
        if "encoder" not in ckpt.config:
            raise CheckpointError(f"{path} is not a sequence-to-sequence checkpoint")
        headers, models = ckpt.config, {"encoder": cfg.encoder, "decoder": cfg.decoder}
    elif "encoder" in ckpt.config:
        raise CheckpointError(f"{path} is a sequence-to-sequence checkpoint, "
                              "not an encoder pretraining checkpoint")
    else:
        headers, models = {"encoder": ckpt.config}, {"encoder": cfg.encoder}
    saved = {key: build_config(type(model), headers.get(key), f"{path} {key}")
             for key, model in models.items()}
    for key, model in models.items():
        differing = [field.name for field in dataclasses.fields(model) if field.name != "mixing"
                     and getattr(saved[key], field.name) != getattr(model, field.name)]
        if differing:
            raise ConfigError(f"{path} {key} config differs from model.{key} in: "
                              f"{', '.join(differing)}")
    if saved["encoder"].mixing != cfg.encoder.mixing:
        print(f"mixing swapped {saved['encoder'].mixing.value} -> {cfg.encoder.mixing.value}")
    if "decoder" in models:
        return seq2seq_state_from_arrays(cfg.encoder, cfg.decoder, ckpt.arrays)
    return state_from_arrays(cfg.encoder, {name: arr for name, arr in ckpt.arrays.items()
                                           if command == "resume" or not name.startswith("mlm.")})


def cmd_train_mlm(args) -> int:
    """Pretrain model.encoder: train-mlm from fresh weights, resume from paths.checkpoint_in.

    A resumed run restarts the optimizer moments at zero.
    """
    cfg = _require_config(args)
    if cfg.patience is not None:
        raise ConfigError(f"training.patience is read only by finetune: "
                          f"{args.command} does not stop early")
    corpus = _require_input(cfg, "corpus", args.command)
    out = _out_path(cfg, args, "checkpoint_out")
    docs = load_corpus_jsonl(corpus)
    dataset = pack_corpus(docs, cfg.encoder.max_positions)
    if not len(dataset):
        raise ConfigError(f"{corpus}: {sum(map(len, docs))} tokens fill no slice of "
                          f"model.encoder.max_positions {cfg.encoder.max_positions}")
    # a vocabulary of special ids only is masking's error, which names it
    if cfg.encoder.vocab_size > ByteTokenizer.n_specials:
        _check_ids(corpus, "corpus", dataset, "encoder", cfg.encoder)
    if args.command == "resume":
        state = _load_checkpoint_in(cfg, "resume")
        print(f"resumed {cfg.path('checkpoint_in')} (optimizer moments reset)")
    else:
        state = init_encoder_state(cfg.encoder, SplitRng(cfg.seed), with_mlm_head=True)
    trace = train_mlm(cfg.encoder, state, dataset, cfg.batch_schedule(), cfg.steps, cfg.seed,
                      optimizer=cfg.build_optimizer(), policy=cfg.masking)
    return _finish_training(cfg, out, dataclasses.asdict(cfg.encoder), state, trace, "trained")


def _load_pairs(cfg: RunConfig, key: str) -> list:
    """paths.<key>'s (source, target) pairs, at least one, each checked against the model."""
    path = _require_input(cfg, key, "finetune")
    tokenizer, pairs = ByteTokenizer(), []
    for line_no, *texts in read_jsonl(path, ("source", "target")):
        source, target = tokenizer.encode_pair(*texts)
        where = f"{path}:{line_no}"
        _check_ids(where, "source", source, "encoder", cfg.encoder)
        _check_ids(where, "target (eos included)", target, "decoder", cfg.decoder)
        pairs.append((source, target))
    if not pairs:
        raise ConfigError(f"{path}: no pairs")
    return pairs


def cmd_finetune(args) -> int:
    cfg = _require_config(args)
    if cfg.decoder is None:
        raise ConfigError("finetune requires model.decoder in the config")
    (until, batch_size), *later = cfg.schedule
    if until is not None or later:
        raise ConfigError("finetune needs training.schedule to be one open-ended phase "
                          "[[null, batch]]: early stopping counts epochs at a constant batch")
    if cfg.masking is not None:
        raise ConfigError("training.masking is read only by train-mlm and resume: "
                          "finetune does not mask tokens")
    if cfg.path("val_pairs") is not None and cfg.patience is None:
        raise ConfigError("paths.val_pairs is read only for early stopping: "
                          "finetune needs training.patience with it")
    if cfg.patience is not None and cfg.path("val_pairs") is None:
        raise ConfigError("training.patience needs paths.val_pairs: early stopping watches "
                          "their loss")
    out = _out_path(cfg, args, "checkpoint_out")
    pairs = _load_pairs(cfg, "pairs")
    val_pairs = _load_pairs(cfg, "val_pairs") if cfg.path("val_pairs") is not None else None
    state = init_seq2seq_state(cfg.encoder, cfg.decoder, SplitRng(cfg.seed))
    if cfg.path("checkpoint_in") is not None:
        state.encoder = _load_checkpoint_in(cfg, "finetune")
        print(f"initialized encoder from {cfg.path('checkpoint_in')}")
    trace = train_seq2seq(
        state,
        pairs,
        cfg.steps,
        cfg.seed,
        optimizer=cfg.build_optimizer(),
        batch_size=batch_size,
        val_pairs=val_pairs,
        patience=cfg.patience,
    )
    config_blob = {
        "encoder": dataclasses.asdict(cfg.encoder),
        "decoder": dataclasses.asdict(cfg.decoder),
    }
    return _finish_training(cfg, out, config_blob, state, trace, "fine-tuned")


def cmd_generate(args) -> int:
    cfg = _require_config(args)
    if cfg.decoder is None:
        raise ConfigError("generate requires model.decoder in the config")
    _require_input(cfg, "checkpoint_in", "generate")
    sources_path = _require_input(cfg, "sources", "generate")
    out = _out_path(cfg, args, "output")
    tokenizer = ByteTokenizer()
    sources = [(f"{sources_path}:{line_no}", source, tokenizer.encode(source))
               for line_no, source in read_jsonl(sources_path, ("source",))]
    for where, _, ids in sources:
        if not len(ids):
            raise ConfigError(f"{where}: empty source")
    state = _load_checkpoint_in(cfg, "generate")
    gen = cfg.generation if cfg.generation is not None else GenerationConfig()
    # Decode everything first, so a source that fails leaves no partial output.
    lines = []
    for where, source, ids in sources:
        try:
            generated = generate(state, ids, gen)
        except ShapeError as exc:
            raise ShapeError(f"{where}: {exc}") from exc
        lines.append(json.dumps({"source": source, "generated": tokenizer.decode(generated)})
                     + "\n")
    with open(out, "w", encoding="utf-8") as out_fh:
        out_fh.writelines(lines)
    print(f"generated {len(lines)} sequences -> {out}")
    return 0


def _read_rouge_pairs(path):
    pairs = [(hyp, ref) for _, hyp, ref in read_jsonl(path, ("hyp", "ref"))]
    if not pairs:
        raise ConfigError(f"{path}: no evaluation pairs")
    return pairs


def _read_task_metric_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"task", "candidate", "reference"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: header must contain task,candidate,reference")
        rows = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            missing = [key for key in ("task", "candidate", "reference") if row[key] is None]
            if missing:
                raise ConfigError(f"{where}: missing {', '.join(missing)} cell")
            values = {}
            for key in ("candidate", "reference"):
                try:
                    values[key] = float(row[key])
                except ValueError as exc:
                    raise ConfigError(f"{where}: {key} {row[key]!r} is not a number") from exc
                if not math.isfinite(values[key]):
                    raise ConfigError(f"{where}: {key} {row[key]!r} is not finite")
            rows.append(TaskMetricPair(task=row["task"], **values))
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
    seq_lens = []
    for part in filter(None, map(str.strip, args.seq_lens.split(","))):
        try:
            seq_lens.append(int(part))
        except ValueError:
            raise ConfigError(f"--seq-lens: {part!r} is not an integer") from None
    if not seq_lens or min(seq_lens) < 1:
        raise ConfigError(f"--seq-lens: give one or more lengths >= 1, got {args.seq_lens!r}")
    _check_out_dir("--out", args.out)
    results = bench_mixing_vs_attention(
        seq_lens,
        d_model=args.d_model,
        n_heads=args.n_heads,
        repeats=args.repeats,
        warmup=args.warmup,
        seed=_seed(args, 0),
    )
    # warned once the arguments passed, so a rejected command prints one error line
    warning = unclamped_blas_warning()
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    print(results_markdown(results), end="")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results_csv(results))
        print(f"wrote {args.out}")
    return 0


def cmd_count_params(args) -> int:
    encoder = _require_config(args).encoder if args.config is not None else base_encoder_config()
    print(f"parameters: {count_params(encoder):,}")
    counts = {
        n: count_params(dataclasses.replace(encoder, max_positions=n)) for n in (4096, 8192)
    }
    for n, total in counts.items():
        print(f"max_positions {n}: {total:,}")
    print(f"delta: {counts[8192] - counts[4096]:,}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmix",
        description="Spectral token-mixing models: train, generate, evaluate, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, handler, summary in [
        ("train-mlm", cmd_train_mlm, "pretrain an encoder with masked-token prediction"),
        ("resume", cmd_train_mlm, "continue pretraining from a checkpoint"),
        ("finetune", cmd_finetune, "train the encoder-decoder on source/target pairs"),
        ("generate", cmd_generate, "beam-search decode a JSONL file of sources"),
        ("evaluate", cmd_evaluate, "score prediction files"),
        ("bench", cmd_bench, "time token mixing against self-attention"),
        ("count-params", cmd_count_params,
         "print exact parameter counts and the 4096 vs 8192 delta"),
    ]:
        p[name] = sub.add_parser(name, help=summary)
        p[name].set_defaults(handler=handler)
    training = ("train-mlm", "resume", "finetune")
    for name in (*training, "generate", "count-params"):
        p[name].add_argument("--config", metavar="PATH", help="JSON run config")
    for name in (*training, "generate"):
        p[name].add_argument("--mixing", choices=[kind.value for kind in MixingKind],
                             help="override model.encoder.mixing")
    p["evaluate"].add_argument("--metric", choices=["rouge", "relative-performance"],
                               default="rouge")
    p["evaluate"].add_argument("--input", metavar="PATH",
                               help="JSONL of {hyp,ref} or CSV of task,candidate,reference")
    p["bench"].add_argument("--seq-lens", default="512,4096", metavar="L1,L2,...",
                            help="comma-separated sequence lengths")
    p["bench"].add_argument("--d-model", type=int, default=768)
    p["bench"].add_argument("--n-heads", type=int, default=12)
    p["bench"].add_argument("--repeats", type=int, default=5)
    p["bench"].add_argument("--warmup", type=int, default=2)
    p["bench"].add_argument("--seed", type=int, metavar="N", help="seed of the timed inputs")
    p["bench"].add_argument("--out", metavar="PATH", help="also write the results as CSV")
    for name in training:
        p[name].add_argument("--seed", type=int, metavar="N", help="override training.seed")
    for name in (*training, "generate"):
        p[name].add_argument("--out", metavar="PATH", help="override the output path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, CheckpointError, ShapeError, TrainingError,
            FloatingPointError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
