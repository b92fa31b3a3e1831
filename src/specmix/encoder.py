"""Attention-free encoder: embeddings plus blocks of token mixing and feed-forward.

Each block applies the parameter-free spectral mixing sub-layer, then a
residual add and layer norm, then a two-layer GELU feed-forward, then another
add and norm (post-norm ordering throughout). The mixing kind is a config
field, not a parameter, so the named-parameter set is identical across all
five kinds; that is what makes checkpoint kind-swapping possible.

State also carries a first-token pooler and, when requested, a masked-token
prediction head (dense + GELU + norm + projection tied to the word
embeddings); both are included so parameter counts match the reference
configuration family this mirrors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import nn
from .errors import CheckpointError, ConfigError, ShapeError, build_config, is_int
from .nn import Node, Parameter, Tape
from .rng import SplitRng
from .spectral import MixingKind, mix2d, mix2d_vjp

LAYER_NORM_EPS = 1e-12  # of every layer norm, encoder and decoder alike
N_TOKEN_TYPES = 2  # token-type table rows; every token reads row 0, kept so counts match FNet


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder sizes and mixing kind; a mixing label is stored as its MixingKind member."""

    n_layers: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_positions: int
    mixing: MixingKind

    def __post_init__(self):
        for field in ("n_layers", "d_model", "d_ff", "vocab_size", "max_positions"):
            value = getattr(self, field)
            if not is_int(value) or value < 1:
                raise ConfigError(f"EncoderConfig.{field} must be a positive integer")
        try:
            object.__setattr__(self, "mixing", MixingKind(self.mixing))
        except ValueError:
            valid = ", ".join(kind.value for kind in MixingKind)
            raise ConfigError(
                f"EncoderConfig.mixing {self.mixing!r} is not one of: {valid}") from None


def base_encoder_config(max_positions=4096, mixing=MixingKind.FOURIER_REAL) -> EncoderConfig:
    """The full-size configuration used for parameter-count comparisons."""
    return EncoderConfig(
        n_layers=12, d_model=768, d_ff=3072, vocab_size=32000,
        max_positions=max_positions, mixing=mixing,
    )


def _tail_shapes(prefix, norm, d, ff) -> dict:
    """Name -> shape for the parameters _row_sublayers reads under prefix, in creation order."""
    return {
        f"{prefix}.{norm}.gamma": (d,),
        f"{prefix}.{norm}.beta": (d,),
        f"{prefix}.ff.w1": (d, ff),
        f"{prefix}.ff.b1": (ff,),
        f"{prefix}.ff.w2": (ff, d),
        f"{prefix}.ff.b2": (d,),
        f"{prefix}.ff_ln.gamma": (d,),
        f"{prefix}.ff_ln.beta": (d,),
    }


def param_shapes(cfg: EncoderConfig, with_mlm_head=True) -> dict:
    """Name -> shape for every parameter, the single source of state layout.

    Iteration order is creation order; initialization draws follow it, so the
    layout (not just the name set) is part of the determinism contract.
    """
    d, ff = cfg.d_model, cfg.d_ff
    shapes = {
        "embeddings.word": (cfg.vocab_size, d),
        "embeddings.position": (cfg.max_positions, d),
        "embeddings.token_type": (N_TOKEN_TYPES, d),
        "embeddings.ln.gamma": (d,),
        "embeddings.ln.beta": (d,),
    }
    for i in range(cfg.n_layers):
        shapes.update(_tail_shapes(f"layer{i}", "mixing_ln", d, ff))
    shapes["pooler.w"] = (d, d)
    shapes["pooler.b"] = (d,)
    if with_mlm_head:
        shapes["mlm.dense.w"] = (d, d)
        shapes["mlm.dense.b"] = (d,)
        shapes["mlm.ln.gamma"] = (d,)
        shapes["mlm.ln.beta"] = (d,)
        shapes["mlm.bias"] = (cfg.vocab_size,)
    return shapes


def count_params(cfg: EncoderConfig, with_mlm_head=True) -> int:
    """Exact scalar-parameter count; arithmetic only, nothing allocated."""
    return sum(int(np.prod(shape)) for shape in param_shapes(cfg, with_mlm_head).values())


class EncoderState:
    """Named Parameter set; layout is dictated by param_shapes."""

    def __init__(self, params: dict):
        self.params = params

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def named_params(self):
        return self.params.items()

    @property
    def has_mlm_head(self) -> bool:
        return "mlm.bias" in self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def init_encoder_state(cfg: EncoderConfig, rng: SplitRng, with_mlm_head=True) -> EncoderState:
    """Gaussian(0, 0.02) matrices, zero biases/shifts, unit scales."""
    return EncoderState(nn.init_params(param_shapes(cfg, with_mlm_head), rng))


def mix_tokens(x: Node, kind: MixingKind, tape: Tape | None, lead=None) -> Node:
    """The parameter-free mixing sub-layer as a taped op over [L, H] activations.

    lead, when given, is the ids' shape (L,) or (B, L): x then holds B
    slices' rows in row-major order, and each slice's L rows mix on their own.
    """
    shape = x.value.shape if lead is None else (*lead, x.value.shape[-1])
    out = Node(mix2d(x.value.reshape(shape), kind).reshape(x.value.shape))
    cot, xv = x.cot, (None if kind.is_linear else x.value.reshape(shape))  # linear VJPs skip x

    def backward(g):
        cot.add(mix2d_vjp(kind, xv, g.reshape(shape)).reshape(g.shape))
    nn._record(tape, out, backward)
    return out


def _add_norm(params, prefix, x: Node, y: Node, tape: Tape | None) -> Node:
    """The post-norm residual norm(x + y), with layer norm prefix's scale and shift."""
    return nn.layer_norm(nn.add(x, y, tape), params[f"{prefix}.gamma"], params[f"{prefix}.beta"],
                         LAYER_NORM_EPS, tape)


# Rows a tape-free forward runs through the row-wise sub-layers at a time, so
# their [rows, d_ff] activations stay this small at any sequence length.
# Chosen by a sweep over 32-512 on 256-2048 token documents: 64-512 matched
# the unblocked output bit for bit there, while 32-row blocks rounded
# differently inside BLAS, and 128 was the fastest.
ROW_BLOCK = 128


def _row_sublayers(params, prefix, norm, x: Node, y: Node, tape: Tape | None) -> Node:
    """A block's tail after its token-mixing output y: u = norm(x + y), then ff_ln(u + FF(u)).

    Each row is computed alone, so without a tape it runs ROW_BLOCK rows at a
    time into one output; a tape keeps every activation anyway, so with one it
    runs over all rows at once. Decoder layers run it after cross-attention.
    """
    if tape is None and len(x.value) > ROW_BLOCK:
        out = np.empty_like(x.value)
        for start in range(0, len(out), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            out[rows] = _row_sublayers(params, prefix, norm, Node(x.value[rows]),
                                       Node(y.value[rows]), None).value
        return Node(out)
    u = _add_norm(params, f"{prefix}.{norm}", x, y, tape)
    h = nn.linear(u, params[f"{prefix}.ff.w1"], params[f"{prefix}.ff.b1"], tape)
    h = nn.gelu(h, tape)
    h = nn.linear(h, params[f"{prefix}.ff.w2"], params[f"{prefix}.ff.b2"], tape)
    return _add_norm(params, f"{prefix}.ff_ln", u, h, tape)


def encoder_forward(cfg, state, token_ids, tape: Tape | None = None, rows=None) -> Node:
    """Hidden states [L, d_model] for token ids [L], [B·L, d_model] for a batch [B, L] of
    equal-length slices, or [len(rows), d_model].

    Embedding sum (word + position + token type 0) is normalized, then each
    block computes u = norm(x + mix(x)) and x' = norm(u + FF(u)). A batch's
    hidden state is its B·L rows in row-major order. Only the mixing step
    reads across rows, and it mixes each slice's L rows on their own, so each
    slice's rows are its own forward's (up to how BLAS rounds a row of a
    product of very few rows). The rest is _row_sublayers, which bounds its
    own tape-free memory. So when rows (indices into those B·L rows) is
    given, every block but the last and the last block's mixing still run on
    all rows, and the last block's tail runs on x and mix(x) gathered at rows
    by a taped row lookup: the output is those rows of the full output, equal
    to it up to rounding.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim not in (1, 2):
        raise ShapeError(f"token_ids must be [L] or [B, L], got shape {token_ids.shape}")
    L = token_ids.shape[-1]
    if L > cfg.max_positions:
        raise ShapeError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
    ids = token_ids.reshape(-1)
    positions = np.broadcast_to(np.arange(L), token_ids.shape).reshape(-1)

    # The lookups stay unnamed, so without a tape each is freed once summed.
    x = nn.add(nn.embedding_lookup(ids, state["embeddings.word"], tape),
               nn.embedding_lookup(positions, state["embeddings.position"], tape), tape)
    x = nn.add(x, nn.embedding_lookup(np.zeros(len(ids), dtype=np.int64),
                                      state["embeddings.token_type"], tape), tape)
    x = nn.layer_norm(x, state["embeddings.ln.gamma"], state["embeddings.ln.beta"], LAYER_NORM_EPS,
                      tape)

    for i in range(cfg.n_layers):
        y = mix_tokens(x, cfg.mixing, tape, token_ids.shape)
        if rows is not None and i == cfg.n_layers - 1:
            x, y = (nn.embedding_lookup(rows, n, tape) for n in (x, y))
        x = _row_sublayers(state, f"layer{i}", "mixing_ln", x, y, tape)
        del y  # so no block's mixing output outlives its tail
    return x


def mlm_logits(cfg, state, hidden: Node, tape: Tape | None = None) -> Node:
    """Vocabulary logits from hidden states via the tied prediction head."""
    if not state.has_mlm_head:
        raise CheckpointError("state was built without the masked-prediction head")
    h = nn.linear(hidden, state["mlm.dense.w"], state["mlm.dense.b"], tape)
    h = nn.gelu(h, tape)
    h = nn.layer_norm(h, state["mlm.ln.gamma"], state["mlm.ln.beta"], LAYER_NORM_EPS, tape)
    return nn.tied_logits(h, state["embeddings.word"], state["mlm.bias"], tape)


def mlm_loss(cfg, state, token_ids, labels, tape: Tape | None = None) -> Node:
    """Masked-token loss of a sequence [L], or the sum of the B slices' losses of a batch
    [B, L]; the last block's tail and the head run on labeled rows only.

    Only rows whose label is not IGNORE_LABEL feed the loss, so
    encoder_forward runs the last block's row-wise tail on those rows alone
    (its mixing still reads all L rows of their slice) and mlm_logits runs on
    its output: about 15% of the rows at the default masking rate. Each
    slice's loss is the mean over its own labeled rows, and equals
    masked_cross_entropy over the all-rows head's logits of its full
    forward; gradients differ from that only in rounding. A slice with no
    labeled row adds exactly 0, and with none at all no gradient flows.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != np.shape(token_ids):
        raise ShapeError(f"labels shape {labels.shape} does not match token ids "
                         f"{np.shape(token_ids)}")
    rows = np.flatnonzero(labels != nn.IGNORE_LABEL)
    hidden = encoder_forward(cfg, state, token_ids, tape=tape, rows=rows)
    return nn.masked_cross_entropy(mlm_logits(cfg, state, hidden, tape),
                                   labels.reshape(-1)[rows], tape, rows // labels.shape[-1])


# The JSON form of an EncoderConfig, as run configs and checkpoint headers store it.
encoder_config_to_dict = asdict


def state_from_arrays(cfg: EncoderConfig, arrays: dict) -> EncoderState:
    """Rebuild an EncoderState from checkpoint arrays, validating the name set."""
    shapes = param_shapes(cfg, with_mlm_head="mlm.bias" in arrays)
    return EncoderState(nn.params_from_arrays(shapes, arrays, "encoder config"))


def swap_mixing(checkpoint, new_kind: MixingKind):
    """Reload a checkpoint with its mixing kind overridden, weights untouched.

    Works because mixing contributes no parameters: the named set is identical
    across kinds. Returns the rewritten config together with the state.
    """
    cfg = build_config(EncoderConfig, checkpoint.config, "checkpoint encoder config")
    new_cfg = replace(cfg, mixing=new_kind)
    state = state_from_arrays(new_cfg, checkpoint.arrays)
    return new_cfg, state
