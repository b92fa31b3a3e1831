"""Attention-free spectral encoders with manual reverse-mode gradients.

The package trains transformer-style encoders whose self-attention block is
replaced by a parameter-free 2D Fourier or Hartley transform over the token
grid, plus a sequence-to-sequence model that pairs such an encoder with a
standard attention decoder. Everything numerical is built on numpy float64:
the transforms, the autodiff tape, the optimizer, generation, metrics, and
the benchmark harness. The public surface is re-exported here; the module of
origin is the place to read for semantics.
"""

from .bench import BenchResult, bench_mixing_vs_attention, results_csv, results_markdown
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, load_run_config, parse_run_config
from .encoder import (
    EncoderConfig,
    EncoderState,
    base_encoder_config,
    count_params,
    encoder_config_to_dict,
    encoder_forward,
    init_encoder_state,
    mix_tokens,
    mlm_logits,
    mlm_loss,
    param_shapes,
    state_from_arrays,
    swap_mixing,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingError
from .metrics import RougeScore, TaskMetricPair, relative_performance, rouge1_f, rougeL_f
from .nn import Node, Parameter, Tape, multi_head_attention
from .rng import SplitRng
from .seq2seq import (
    DecoderConfig,
    GenerationConfig,
    Seq2SeqState,
    decoder_forward,
    generate,
    init_seq2seq_state,
    seq2seq_loss,
    seq2seq_state_from_arrays,
)
from .spectral import MixingKind, dft_naive, dht_naive, fft, fht, mix2d, mix2d_vjp
from .training import (
    AdamW,
    BatchSchedule,
    ByteTokenizer,
    EarlyStopper,
    MaskingPolicy,
    TraceRow,
    apply_mlm_mask,
    load_corpus_jsonl,
    lr_at,
    pack_corpus,
    train_mlm,
    train_seq2seq,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BatchSchedule",
    "BenchResult",
    "ByteTokenizer",
    "Checkpoint",
    "CheckpointError",
    "ConfigError",
    "DecoderConfig",
    "EarlyStopper",
    "EncoderConfig",
    "EncoderState",
    "GenerationConfig",
    "MaskingPolicy",
    "MixingKind",
    "Node",
    "Parameter",
    "RougeScore",
    "RunConfig",
    "Seq2SeqState",
    "ShapeError",
    "SplitRng",
    "Tape",
    "TaskMetricPair",
    "TraceRow",
    "TrainingError",
    "apply_mlm_mask",
    "base_encoder_config",
    "bench_mixing_vs_attention",
    "count_params",
    "decoder_forward",
    "dft_naive",
    "dht_naive",
    "encoder_config_to_dict",
    "encoder_forward",
    "fft",
    "fht",
    "generate",
    "init_encoder_state",
    "init_seq2seq_state",
    "load_checkpoint",
    "load_corpus_jsonl",
    "load_run_config",
    "lr_at",
    "mix2d",
    "mix2d_vjp",
    "mix_tokens",
    "mlm_logits",
    "mlm_loss",
    "multi_head_attention",
    "pack_corpus",
    "param_shapes",
    "parse_run_config",
    "relative_performance",
    "results_csv",
    "results_markdown",
    "rouge1_f",
    "rougeL_f",
    "save_checkpoint",
    "seq2seq_loss",
    "seq2seq_state_from_arrays",
    "state_from_arrays",
    "swap_mixing",
    "train_mlm",
    "train_seq2seq",
]
