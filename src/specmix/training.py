"""Byte tokenization, corpus packing, masking, AdamW, and the training loops.

Everything here is deterministic by construction: batch order comes from
seeded epoch permutations, masking draws from counter-split generator
streams keyed by a running example index, and gradient reduction order is
fixed. Identical (seed, corpus, config) reproduce loss traces and final
parameters bit-for-bit on the same platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import encoder_forward, mlm_logits
from .errors import ConfigError, TrainingError, is_int
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

    def decode_bytes(self, ids) -> bytes:
        ids = np.asarray(ids, dtype=np.int64)
        kept = ids[ids >= self.n_specials] - self.n_specials
        return kept.astype(np.uint8).tobytes()

    def decode(self, ids) -> str:
        return self.decode_bytes(ids).decode("utf-8", errors="replace")


@dataclass
class PackedDataset:
    """Fixed-length training slices, shape [n_slices, max_seq_len]."""

    slices: np.ndarray

    def __len__(self) -> int:
        return self.slices.shape[0]

    def __getitem__(self, i) -> np.ndarray:
        return self.slices[i]


def pack_corpus(docs, max_seq_len: int) -> PackedDataset:
    """Concatenate all docs in order, cut full slices, drop the partial tail."""
    if max_seq_len < 2:
        raise ConfigError("max_seq_len must be >= 2")
    arrays = [np.asarray(d, dtype=np.int64) for d in docs]
    stream = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
    n = stream.shape[0] // max_seq_len
    return PackedDataset(stream[: n * max_seq_len].reshape(n, max_seq_len).copy())


@dataclass(frozen=True)
class MaskingPolicy:
    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_frac: float = 0.1
    keep_frac: float = 0.1

    def __post_init__(self):
        # mask_prob 0 is allowed as the explicit no-op policy.
        if not 0.0 <= self.mask_prob < 1.0:
            raise ConfigError("mask_prob must be in [0, 1)")
        fracs = (self.mask_token_frac, self.random_frac, self.keep_frac)
        if min(fracs) < 0 or abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError("mask/random/keep fractions must be nonnegative and sum to 1")


def apply_mlm_mask(slice_ids, policy: MaskingPolicy, rng,
                   vocab_size: int = ByteTokenizer.vocab_size):
    """Select positions at mask_prob; corrupt inputs, emit labels, ignore the rest.

    All three random vectors are drawn unconditionally and at full length so
    the stream consumption (hence every later draw) is independent of the
    slice contents.
    """
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
    so a resumed run restarts them from zero.
    """

    def __init__(self, base_lr=5e-5, weight_decay=0.01, warmup_steps=500,
                 beta1=0.9, beta2=0.999, eps=1e-8):
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
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in parameter {name}")
            if name not in self.moments:
                self.moments[name] = (np.zeros_like(p.value), np.zeros_like(p.value))
            m, v = self.moments[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            if lr != 0.0:
                update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
                p.value -= lr * (update + self.weight_decay * p.value)
            p.zero_grad()
        self.step_count += 1
        return lr


def lr_at(step: int, opt: AdamW) -> float:
    """Linear warmup from 0 over warmup_steps, then flat at base_lr."""
    if opt.warmup_steps <= 0 or step >= opt.warmup_steps:
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
        self.epochs_started = 0

    def take(self, count: int):
        out = []
        while len(out) < count:
            if self.cursor == len(self.order):
                self.order = self.rng.permutation(self.n)
                self.cursor = 0
                self.epochs_started += 1
            out.append(int(self.order[self.cursor]))
            self.cursor += 1
        return out


def train_mlm(cfg, state, dataset: PackedDataset, schedule: BatchSchedule, steps: int,
              seed: int, optimizer: AdamW | None = None,
              policy: MaskingPolicy | None = None) -> list:
    """Masked-token pretraining loop; returns one TraceRow per optimizer step."""
    if len(dataset) == 0:
        raise TrainingError("empty dataset")
    optimizer = optimizer if optimizer is not None else AdamW()
    policy = policy if policy is not None else MaskingPolicy()
    root = SplitRng(seed)
    sampler = _EpochSampler(len(dataset), root.split(0))
    mask_root = root.split(1)

    trace = []
    example_counter = 0
    for step in range(steps):
        total = schedule.batch_at(step)
        losses = []
        for idx in sampler.take(total):
            inputs, labels = apply_mlm_mask(
                dataset[idx], policy, mask_root.split(example_counter),
                vocab_size=cfg.vocab_size,
            )
            example_counter += 1
            tape = nn.Tape()
            hidden = encoder_forward(cfg, state, inputs, tape=tape)
            logits = mlm_logits(cfg, state, hidden, tape)
            loss = nn.masked_cross_entropy(logits, labels, tape)
            tape.backward(loss, seed=1.0 / total)
            losses.append(float(loss.value))
        lr = optimizer.step(state.named_params())
        trace.append(TraceRow(step=step, loss=float(np.mean(losses)),
                              batch_size=total, lr=lr))
    return trace


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


def _is_frozen(name: str, freeze_prefixes) -> bool:
    return any(name.startswith(prefix) for prefix in freeze_prefixes)


def train_seq2seq(state, pairs, steps: int, seed: int, optimizer: AdamW | None = None,
                  batch_size: int = 4, val_pairs=None, patience: int | None = None,
                  freeze_prefixes=()) -> list:
    """Teacher-forced fine-tuning; optional epoch-level early stopping.

    freeze_prefixes excludes matching parameters from optimization entirely:
    their gradients are discarded and weight decay never touches them.
    """
    if not pairs:
        raise TrainingError("empty pair set")
    optimizer = optimizer if optimizer is not None else AdamW()
    root = SplitRng(seed)
    sampler = _EpochSampler(len(pairs), root.split(0))
    stopper = EarlyStopper(patience) if patience is not None else None

    live_params = [
        (name, p) for name, p in state.named_params()
        if not _is_frozen(name, freeze_prefixes)
    ]
    frozen_params = [
        p for name, p in state.named_params() if _is_frozen(name, freeze_prefixes)
    ]

    def val_loss() -> float:
        values = [float(seq2seq_loss(state, src, tgt, None).value)
                  for src, tgt in val_pairs]
        return float(np.mean(values))

    trace = []
    examples_seen = 0
    epochs_completed = 0
    for step in range(steps):
        indices = sampler.take(batch_size)
        losses = []
        for idx in indices:
            src, tgt = pairs[idx]
            tape = nn.Tape()
            loss = seq2seq_loss(state, src, tgt, tape)
            tape.backward(loss, seed=1.0 / batch_size)
            losses.append(float(loss.value))
        for p in frozen_params:
            p.zero_grad()
        lr = optimizer.step(live_params)
        trace.append(TraceRow(step=step, loss=float(np.mean(losses)),
                              batch_size=batch_size, lr=lr))
        examples_seen += batch_size
        if stopper is not None and val_pairs:
            completed_now = examples_seen // len(pairs)
            if completed_now > epochs_completed:
                epochs_completed = completed_now
                if stopper.update(val_loss()):
                    break
    return trace


def read_jsonl(path, fields) -> list:
    """The named string fields of every object in a JSON-lines file, one tuple per line.

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
            rows.append(tuple(record[name] for name in fields))
    return rows


def load_corpus_jsonl(path, tokenizer: ByteTokenizer | None = None) -> list:
    """One {"text": ...} object per line -> list of token-id arrays."""
    tokenizer = tokenizer if tokenizer is not None else ByteTokenizer()
    return [tokenizer.encode(text) for text, in read_jsonl(path, ("text",))]


def load_pairs_jsonl(path, tokenizer: ByteTokenizer | None = None,
                     append_eos: bool = True) -> list:
    """One {"source","target"} object per line -> (source_ids, target_ids) pairs.

    Targets get a terminal eos so trained models learn to stop generating.
    """
    tokenizer = tokenizer if tokenizer is not None else ByteTokenizer()
    pairs = []
    for source, target in read_jsonl(path, ("source", "target")):
        tgt = tokenizer.encode(target)
        if append_eos:
            tgt = np.concatenate((tgt, [tokenizer.eos_id]))
        pairs.append((tokenizer.encode(source), tgt))
    return pairs
