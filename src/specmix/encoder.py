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

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .errors import CheckpointError, ConfigError, ShapeError
from .nn import Node, Parameter, Tape
from .rng import SplitRng
from .spectral import MixingKind, mix2d, mix2d_vjp

@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_positions: int
    mixing: MixingKind
    n_token_types: int = 2
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        for field in ("n_layers", "d_model", "d_ff", "vocab_size", "max_positions",
                      "n_token_types"):
            if getattr(self, field) < 1:
                raise ConfigError(f"EncoderConfig.{field} must be positive")
        if self.layer_norm_eps <= 0:
            raise ConfigError("EncoderConfig.layer_norm_eps must be positive")
        if not isinstance(self.mixing, MixingKind):
            raise ConfigError("EncoderConfig.mixing must be a MixingKind")


def base_encoder_config(max_positions=4096, mixing=MixingKind.FOURIER_REAL) -> EncoderConfig:
    """The full-size configuration used for parameter-count comparisons."""
    return EncoderConfig(
        n_layers=12, d_model=768, d_ff=3072, vocab_size=32000,
        max_positions=max_positions, mixing=mixing,
    )


def param_shapes(cfg: EncoderConfig, with_mlm_head=True) -> dict:
    """Name -> shape for every parameter, the single source of state layout.

    Iteration order is creation order; initialization draws follow it, so the
    layout (not just the name set) is part of the determinism contract.
    """
    d, ff = cfg.d_model, cfg.d_ff
    shapes = {
        "embeddings.word": (cfg.vocab_size, d),
        "embeddings.position": (cfg.max_positions, d),
        "embeddings.token_type": (cfg.n_token_types, d),
        "embeddings.ln.gamma": (d,),
        "embeddings.ln.beta": (d,),
    }
    for i in range(cfg.n_layers):
        shapes[f"layer{i}.mixing_ln.gamma"] = (d,)
        shapes[f"layer{i}.mixing_ln.beta"] = (d,)
        shapes[f"layer{i}.ff.w1"] = (d, ff)
        shapes[f"layer{i}.ff.b1"] = (ff,)
        shapes[f"layer{i}.ff.w2"] = (ff, d)
        shapes[f"layer{i}.ff.b2"] = (d,)
        shapes[f"layer{i}.ff_ln.gamma"] = (d,)
        shapes[f"layer{i}.ff_ln.beta"] = (d,)
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


def mix_tokens(x: Node, kind: MixingKind, tape: Tape | None) -> Node:
    """The parameter-free mixing sub-layer as a taped op over [L, H] activations."""
    out = Node(mix2d(x.value, kind))
    if tape is not None:
        def backward():
            if out.grad is None:
                return
            x.add_grad(mix2d_vjp(kind, x.value, out.grad))
        tape.record(backward)
    return out


def _layer_norm(state, prefix, x, eps, tape):
    return nn.layer_norm(x, state[f"{prefix}.gamma"], state[f"{prefix}.beta"], eps, tape)


def encoder_forward(cfg, state, token_ids, type_ids=None, tape: Tape | None = None) -> Node:
    """Hidden states [L, d_model] for one sequence of token ids.

    Embedding sum (word + position + token type) is normalized, then each
    block computes u = norm(x + mix(x)) and x' = norm(u + FF(u)).
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim != 1:
        raise ShapeError(f"token_ids must be 1-D, got shape {token_ids.shape}")
    L = token_ids.shape[0]
    if L > cfg.max_positions:
        raise ShapeError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
    if type_ids is None:
        type_ids = np.zeros(L, dtype=np.int64)
    eps = cfg.layer_norm_eps

    word = nn.embedding_lookup(token_ids, state["embeddings.word"], tape)
    pos = nn.embedding_lookup(np.arange(L), state["embeddings.position"], tape)
    typ = nn.embedding_lookup(type_ids, state["embeddings.token_type"], tape)
    x = nn.add(nn.add(word, pos, tape), typ, tape)
    x = _layer_norm(state, "embeddings.ln", x, eps, tape)

    for i in range(cfg.n_layers):
        mixed = mix_tokens(x, cfg.mixing, tape)
        u = _layer_norm(state, f"layer{i}.mixing_ln", nn.add(x, mixed, tape), eps, tape)
        h = nn.linear(u, state[f"layer{i}.ff.w1"], state[f"layer{i}.ff.b1"], tape)
        h = nn.gelu(h, tape)
        h = nn.linear(h, state[f"layer{i}.ff.w2"], state[f"layer{i}.ff.b2"], tape)
        x = _layer_norm(state, f"layer{i}.ff_ln", nn.add(u, h, tape), eps, tape)
    return x


def mlm_logits(cfg, state, hidden: Node, tape: Tape | None = None) -> Node:
    """Vocabulary logits from hidden states via the tied prediction head."""
    if not state.has_mlm_head:
        raise CheckpointError("state was built without the masked-prediction head")
    h = nn.linear(hidden, state["mlm.dense.w"], state["mlm.dense.b"], tape)
    h = nn.gelu(h, tape)
    h = _layer_norm(state, "mlm.ln", h, cfg.layer_norm_eps, tape)
    return nn.tied_logits(h, state["embeddings.word"], state["mlm.bias"], tape)


def encoder_config_to_dict(cfg: EncoderConfig) -> dict:
    return {
        "n_layers": cfg.n_layers,
        "d_model": cfg.d_model,
        "d_ff": cfg.d_ff,
        "vocab_size": cfg.vocab_size,
        "max_positions": cfg.max_positions,
        "mixing": cfg.mixing.label,
        "n_token_types": cfg.n_token_types,
        "layer_norm_eps": cfg.layer_norm_eps,
    }


def encoder_config_from_dict(data: dict) -> EncoderConfig:
    try:
        fields = dict(data)
        fields["mixing"] = MixingKind.from_label(fields["mixing"])
        return EncoderConfig(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad encoder config: {exc}") from exc


def state_from_arrays(cfg: EncoderConfig, arrays: dict) -> EncoderState:
    """Rebuild an EncoderState from checkpoint arrays, validating the name set."""
    shapes = param_shapes(cfg, with_mlm_head="mlm.bias" in arrays)
    return EncoderState(nn.params_from_arrays(shapes, arrays, "encoder config"))


def swap_mixing(checkpoint, new_kind: MixingKind):
    """Reload a checkpoint with its mixing kind overridden, weights untouched.

    Works because mixing contributes no parameters: the named set is identical
    across kinds. Returns the rewritten config together with the state.
    """
    cfg = encoder_config_from_dict(checkpoint.config)
    new_cfg = replace(cfg, mixing=new_kind)
    state = state_from_arrays(new_cfg, checkpoint.arrays)
    return new_cfg, state
