"""Byte tokenization, corpus packing, masking, AdamW, and the one training loop.

Everything here is deterministic by construction: batch order comes from
seeded epoch permutations, masking draws from counter-split generator
streams keyed by a running example index, and gradient reduction order is
fixed. Identical (seed, corpus, config) reproduce loss traces and final
parameters bit-for-bit on the same platform.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import nn
# encoder_forward is not called here, but code that looks up or wraps this
# module's names finds it here
from .encoder import encoder_forward, mlm_loss  # noqa: F401
from .errors import ConfigError, TrainingError, is_int, is_real
from .nn import CHUNK_ELEMS
from .rng import SplitRng
from .seq2seq import BOS_ID, EOS_ID, PAD_ID, seq2seq_loss


class ByteTokenizer:
    """Reversible byte-level ids: five specials, then byte b at id b + 5."""

    pad_id = PAD_ID
    unk_id = 1
    bos_id = BOS_ID
    eos_id = EOS_ID
    mask_id = 4
    n_specials = 5
    vocab_size = 261

    def encode(self, text: str) -> np.ndarray:
        data = text.encode("utf-8")
        return np.frombuffer(data, dtype=np.uint8).astype(np.int64) + self.n_specials

    def encode_pair(self, source: str, target: str) -> tuple:
        """(source ids, target ids): the target gets a terminal eos so trained
        models learn to stop generating."""
        return self.encode(source), np.append(self.encode(target), self.eos_id)

    def decode_bytes(self, ids) -> bytes:
        ids = np.asarray(ids, dtype=np.int64)
        kept = ids[ids >= self.n_specials] - self.n_specials
        return kept.astype(np.uint8).tobytes()

    def decode(self, ids) -> str:
        return self.decode_bytes(ids).decode("utf-8", errors="replace")


def pack_corpus(docs, max_seq_len: int) -> np.ndarray:
    """All docs concatenated in order, cut into int64 slices [n_slices, max_seq_len].

    The partial tail is dropped.
    """
    if max_seq_len < 2:
        raise ConfigError("max_seq_len must be >= 2")
    arrays = [np.asarray(d, dtype=np.int64) for d in docs]
    stream = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
    n = stream.shape[0] // max_seq_len
    return stream[: n * max_seq_len].reshape(n, max_seq_len).copy()


@dataclass(frozen=True)
class MaskingPolicy:
    """Of the selected positions, mask_token_frac become [MASK], random_frac a
    random token, and the rest (1 - both) keep their token."""

    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_frac: float = 0.1

    def __post_init__(self):
        # mask_prob 0 is allowed as the explicit no-op policy.
        if not is_real(self.mask_prob) or not 0.0 <= self.mask_prob < 1.0:
            raise ConfigError("MaskingPolicy.mask_prob must be a finite number in [0, 1)")
        fracs = (self.mask_token_frac, self.random_frac)
        if not all(is_real(f) and f >= 0 for f in fracs) or sum(fracs) > 1.0 + 1e-9:
            raise ConfigError("MaskingPolicy mask_token_frac and random_frac must be finite, "
                              "nonnegative and sum to at most 1")


def apply_mlm_mask(slice_ids, policy: MaskingPolicy, rng,
                   vocab_size: int = ByteTokenizer.vocab_size):
    """Select positions at mask_prob; corrupt inputs, emit labels, ignore the rest.

    All three random vectors are drawn unconditionally and at full length so
    the stream consumption (hence every later draw) is independent of the
    slice contents. vocab_size must leave an id to draw beyond the
    tokenizer's special ids.
    """
    if vocab_size <= ByteTokenizer.n_specials:
        raise ConfigError(f"vocab_size {vocab_size} leaves no token id to draw: ids 0-"
                          f"{ByteTokenizer.n_specials - 1} are the {ByteTokenizer.n_specials} "
                          "special ids")
    ids = np.asarray(slice_ids, dtype=np.int64)
    L = ids.shape[0]
    u_select = rng.random(L)
    u_branch = rng.random(L)
    random_ids = rng.integers(ByteTokenizer.n_specials, vocab_size, size=L)

    selected = (u_select < policy.mask_prob) & (ids >= ByteTokenizer.n_specials)
    labels = np.where(selected, ids, nn.IGNORE_LABEL)
    inputs = ids.copy()
    to_mask = selected & (u_branch < policy.mask_token_frac)
    to_random = selected & ~to_mask & (u_branch < policy.mask_token_frac + policy.random_frac)
    inputs[to_mask] = ByteTokenizer.mask_id
    inputs[to_random] = random_ids[to_random]
    return inputs, labels


class AdamW:
    """Decoupled-weight-decay Adam with linear warmup to a constant rate.

    Moments live per parameter name; they are not persisted in checkpoints,
    so a resumed run restarts them from zero. The update is elementwise, so
    it runs over CHUNK_ELEMS-element flat chunks of each parameter with the
    same bits as over the whole. The constructor's arguments are the keys of
    a run config's training.optimizer section, checked here.
    """

    def __init__(self, base_lr=5e-5, weight_decay=0.01, warmup_steps=500,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        if not is_int(warmup_steps) or warmup_steps < 0:
            raise ConfigError("AdamW.warmup_steps must be an integer >= 0")
        for name, value, ok, rule in (
            ("base_lr", base_lr, lambda v: v >= 0, ">= 0"),
            ("weight_decay", weight_decay, lambda v: v >= 0, ">= 0"),
            ("beta1", beta1, lambda v: 0 <= v < 1, "in [0, 1)"),
            ("beta2", beta2, lambda v: 0 <= v < 1, "in [0, 1)"),
            ("eps", eps, lambda v: v > 0, "> 0"),
        ):
            if not (is_real(value) and ok(value)):
                raise ConfigError(f"AdamW.{name} must be a finite number {rule}")
        self.base_lr = base_lr
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.moments = {}

    def step(self, named_params) -> float:
        """One update over (name, Parameter) pairs; returns the rate used."""
        lr = lr_at(self.step_count, self)
        t = self.step_count + 1
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for name, p in named_params:
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p.value), np.zeros_like(p.value))
            # flat views: a Parameter's value and gradient are C-contiguous
            flat = [a.reshape(-1) for a in (p.grad, *self.moments[name], p.value)]
            for start in range(0, p.value.size, CHUNK_ELEMS):
                g, m, v, value = (a[start:start + CHUNK_ELEMS] for a in flat)
                if not np.all(np.isfinite(g)):
                    raise TrainingError(f"non-finite gradient in parameter {name}")
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * np.square(g)
                if lr != 0.0:
                    update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
                    value -= lr * (update + self.weight_decay * value)
            p.zero_grad()
        self.step_count += 1
        return lr


def lr_at(step: int, opt: AdamW) -> float:
    """Linear warmup from 0 over warmup_steps, then flat at base_lr."""
    if step >= opt.warmup_steps:
        return opt.base_lr
    return opt.base_lr * (step / opt.warmup_steps)


class BatchSchedule:
    """Ordered (until_step, batch_size) phases; until_step None means forever."""

    def __init__(self, phases):
        if not phases:
            raise ConfigError("BatchSchedule needs at least one phase")
        last = 0
        for i, (until, batch) in enumerate(phases):
            if not is_int(batch) or batch < 1:
                raise ConfigError("batch_size must be an integer >= 1")
            if until is None:
                if i != len(phases) - 1:
                    raise ConfigError("open-ended phase must come last")
            else:
                if not is_int(until) or until <= last:
                    raise ConfigError("until_step values must be strictly increasing integers")
                last = until
        self.phases = list(phases)

    def batch_at(self, step: int) -> int:
        for until, batch in self.phases:
            if until is None or step < until:
                return batch
        return self.phases[-1][1]


@dataclass(frozen=True)
class TraceRow:
    step: int
    loss: float
    batch_size: int
    lr: float


class _EpochSampler:
    """Cycles over dataset indices, reshuffling with a seeded rng per epoch."""

    def __init__(self, n: int, rng):
        self.n = n
        self.rng = rng
        self.order = np.empty(0, dtype=np.int64)
        self.cursor = 0

    def take(self, count: int):
        out = []
        while len(out) < count:
            if self.cursor == len(self.order):
                self.order = self.rng.permutation(self.n)
                self.cursor = 0
            out.append(int(self.order[self.cursor]))
            self.cursor += 1
        return out


# Largest rows x d_ff one shared MLM tape may hold: 8 MiB per [rows, d_ff]
# float64 array. train_mlm puts as many slices on one tape as fit; a slice
# larger than this alone keeps a tape of its own.
SHARED_TAPE_ELEMS = 2**20


def _train(named_params, n_examples: int, group_loss, group_size: int, batch_at, steps: int,
           seed: int, optimizer: AdamW | None, stop_after=None) -> list:
    """The one step loop; returns one TraceRow per optimizer step.

    Each step takes batch_at(step) example indices from the seeded epoch
    sampler and runs them in consecutive groups of up to group_size:
    group_loss(indices, tape) records the sum of a group's example losses on
    a fresh tape per group, which is back-propagated scaled by 1/batch. Then
    one optimizer step runs over named_params(), and the trace records the
    mean example loss. stop_after(step), when given, is asked after each step
    whether to end the run.
    """
    optimizer = optimizer if optimizer is not None else AdamW()
    sampler = _EpochSampler(n_examples, SplitRng(seed).split(0))
    trace = []
    for step in range(steps):
        total = batch_at(step)
        indices = sampler.take(total)
        losses = []
        for start in range(0, total, group_size):
            tape = nn.Tape()
            loss = group_loss(indices[start:start + group_size], tape)
            tape.backward(loss, seed=1.0 / total)
            losses.append(float(loss.value))
        lr = optimizer.step(named_params())
        # np.mean's arithmetic, over per-group sums
        trace.append(TraceRow(step=step, loss=float(np.sum(losses) / total),
                              batch_size=total, lr=lr))
        if stop_after is not None and stop_after(step):
            break
    return trace


def train_mlm(cfg, state, dataset: np.ndarray, schedule: BatchSchedule, steps: int,
              seed: int, optimizer: AdamW | None = None,
              policy: MaskingPolicy | None = None) -> list:
    """Masked-token pretraining loop; returns one TraceRow per optimizer step.

    Each example is one dataset slice masked by policy from a stream keyed by
    its running example index. A step's slices share a tape as one [B, L]
    batch, as many at a time as keep B x L x d_ff within SHARED_TAPE_ELEMS.
    Its loss is encoder.mlm_loss, which runs the last encoder block's
    row-wise tail and the prediction head on the masked (labeled) rows only.
    """
    if len(dataset) == 0:
        raise TrainingError("empty dataset")
    policy = policy if policy is not None else MaskingPolicy()
    mask_root = SplitRng(seed).split(1)
    example_counter = itertools.count()

    def group_loss(indices, tape):
        inputs, labels = zip(*(apply_mlm_mask(dataset[idx], policy,
                                              mask_root.split(next(example_counter)),
                                              vocab_size=cfg.vocab_size) for idx in indices))
        return mlm_loss(cfg, state, np.stack(inputs), np.stack(labels), tape)

    group_size = max(1, SHARED_TAPE_ELEMS // (dataset.shape[1] * cfg.d_ff))
    return _train(state.named_params, len(dataset), group_loss, group_size, schedule.batch_at,
                  steps, seed, optimizer)


class EarlyStopper:
    """Stop after `patience` consecutive validation epochs without improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError("patience must be >= 1")
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> bool:
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


def train_seq2seq(state, pairs, steps: int, seed: int, optimizer: AdamW | None = None,
                  batch_size: int = 4, val_pairs=None, patience: int | None = None) -> list:
    """Teacher-forced fine-tuning; optional epoch-level early stopping.

    With patience set, the mean loss over val_pairs (which must then be
    non-empty) is computed at the end of every step that completes an epoch
    of pairs.
    """
    if not pairs:
        raise TrainingError("empty pair set")
    if patience is not None and not val_pairs:
        raise ConfigError("patience needs validation pairs: early stopping watches their loss")
    schedule = BatchSchedule([(None, batch_size)])
    stopper = EarlyStopper(patience) if patience is not None else None

    def group_loss(indices, tape):  # one pair per tape: sources differ in length
        return seq2seq_loss(state, *pairs[indices[0]], tape)

    def stop_after(step) -> bool:
        if (step + 1) * batch_size // len(pairs) == step * batch_size // len(pairs):
            return False
        values = [float(seq2seq_loss(state, src, tgt, None).value) for src, tgt in val_pairs]
        return stopper.update(float(np.mean(values)))

    return _train(state.named_params, len(pairs), group_loss, 1, schedule.batch_at,
                  steps, seed, optimizer,
                  stop_after if stopper is not None else None)


def read_jsonl(path, fields) -> list:
    """(line number, *named string fields) of every object in a JSON-lines file.

    Blank lines are skipped. A line that is not UTF-8, invalid JSON, a line
    that is not an object, and a missing or non-string field raise ConfigError
    starting with path:line.
    """
    rows = []
    with open(path, "rb") as fh:
        # bytes.splitlines breaks lines where text mode would: \n, \r and \r\n
        for line_no, raw in enumerate(fh.read().splitlines(), start=1):
            where = f"{path}:{line_no}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{where}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ConfigError(f"{where}: expected a JSON object")
            for name in fields:
                if name not in record:
                    raise ConfigError(f"{where}: missing '{name}' field")
                if not isinstance(record[name], str):
                    raise ConfigError(f"{where}: field '{name}' must be a string")
            rows.append((line_no, *(record[name] for name in fields)))
    return rows


def load_corpus_jsonl(path) -> list:
    """One {"text": ...} object per line -> list of byte-token id arrays."""
    tokenizer = ByteTokenizer()
    return [tokenizer.encode(text) for _, text in read_jsonl(path, ("text",))]


def load_pairs_jsonl(path) -> list:
    """One {"source","target"} object per line -> ByteTokenizer.encode_pair pairs."""
    tokenizer = ByteTokenizer()
    return [tokenizer.encode_pair(source, target)
            for _, source, target in read_jsonl(path, ("source", "target"))]
