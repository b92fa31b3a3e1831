"""Spectral encoder paired with an attention decoder through cross-attention.

The encoder never attends; the decoder does, both over its own (causal)
prefix and over the encoder's hidden states. Cross-attention is therefore the
only path from source to output, and the path by which decoder training
reaches encoder parameters.

Generation is length-normalized beam search (beam 1 is greedy) with an
optional no-repeat n-gram constraint: a candidate token whose selection would
complete an n-gram already present in its hypothesis is banned before
selection. Decoding is incremental: cross-attention keys and values are
projected once per source, one preallocated cache holds every hypothesis's
self-attention keys and values and is written in place, and one decoder step
advances every live hypothesis at once.
``decoder_forward`` runs the whole target at once, for teacher-forced training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import (
    EncoderConfig,
    EncoderState,
    _add_norm,
    _row_sublayers,
    _tail_shapes,
    encoder_forward,
    init_encoder_state,
    state_from_arrays,
)
from .errors import ConfigError, ShapeError, is_int
from .nn import Node, Tape
from .rng import SplitRng

PAD_ID = 0
BOS_ID = 2
EOS_ID = 3


@dataclass(frozen=True)
class DecoderConfig:
    n_layers: int = 6
    d_model: int = 768
    d_ff: int = 3072
    n_heads: int = 12
    vocab_size: int = 32000
    max_positions: int = 512

    def __post_init__(self):
        for field in ("n_layers", "d_model", "d_ff", "n_heads", "vocab_size",
                      "max_positions"):
            value = getattr(self, field)
            if not is_int(value) or value < 1:
                raise ConfigError(f"DecoderConfig.{field} must be a positive integer")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"DecoderConfig.d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )


@dataclass(frozen=True)
class GenerationConfig:
    max_input_len: int = 4096
    max_target_len: int = 512
    no_repeat_ngram: int = 2
    beam_size: int = 1
    eos_id: int = EOS_ID
    bos_id = BOS_ID  # not a field: seq2seq_loss always trains with BOS_ID at position 0

    def __post_init__(self):
        for field, low in (("max_input_len", 1), ("max_target_len", 1), ("beam_size", 1),
                           ("no_repeat_ngram", 0)):
            value = getattr(self, field)
            if not is_int(value) or value < low:
                raise ConfigError(f"GenerationConfig.{field} must be an integer >= {low}")
        if not is_int(self.eos_id):
            raise ConfigError("GenerationConfig.eos_id must be an integer")


def decoder_param_shapes(cfg: DecoderConfig) -> dict:
    d, ff = cfg.d_model, cfg.d_ff
    shapes = {
        "decoder.embeddings.word": (cfg.vocab_size, d),
        "decoder.embeddings.position": (cfg.max_positions, d),
        "decoder.embeddings.ln.gamma": (d,),
        "decoder.embeddings.ln.beta": (d,),
    }
    for i in range(cfg.n_layers):
        for attn in ("self_attn", "cross_attn"):
            shapes.update(_attention_shapes(f"decoder.layer{i}.{attn}", d))
        shapes[f"decoder.layer{i}.self_ln.gamma"] = (d,)
        shapes[f"decoder.layer{i}.self_ln.beta"] = (d,)
        shapes.update(_tail_shapes(f"decoder.layer{i}", "cross_ln", d, ff))
    shapes["decoder.output_bias"] = (cfg.vocab_size,)
    return shapes


class Seq2SeqState:
    """Encoder state plus decoder parameter set; widths agree by construction."""

    def __init__(self, encoder_cfg: EncoderConfig, encoder: EncoderState,
                 decoder_cfg: DecoderConfig, decoder: dict):
        if encoder_cfg.d_model != decoder_cfg.d_model:
            raise ConfigError(
                f"encoder d_model {encoder_cfg.d_model} != decoder d_model {decoder_cfg.d_model}"
            )
        self.encoder_cfg = encoder_cfg
        self.encoder = encoder
        self.decoder_cfg = decoder_cfg
        self.decoder = decoder

    def named_params(self):
        for name, p in self.encoder.named_params():
            yield f"encoder.{name}", p
        yield from self.decoder.items()

    def zero_grad(self) -> None:
        for _, p in self.named_params():
            p.zero_grad()


def init_seq2seq_state(encoder_cfg: EncoderConfig, decoder_cfg: DecoderConfig,
                       rng: SplitRng) -> Seq2SeqState:
    """Fresh random model; the encoder is built without the prediction head."""
    enc = init_encoder_state(encoder_cfg, rng.split(0), with_mlm_head=False)
    dec = nn.init_params(decoder_param_shapes(decoder_cfg), rng.split(1))
    return Seq2SeqState(encoder_cfg, enc, decoder_cfg, dec)


def seq2seq_state_from_arrays(encoder_cfg: EncoderConfig, decoder_cfg: DecoderConfig,
                              arrays: dict) -> Seq2SeqState:
    """Rebuild a full model from checkpoint arrays, validating both name sets.

    Names under ``encoder.`` belong to the encoder; every other name must be
    a decoder parameter.
    """
    prefix = "encoder."
    enc_arrays = {n[len(prefix):]: v for n, v in arrays.items() if n.startswith(prefix)}
    dec_arrays = {n: v for n, v in arrays.items() if not n.startswith(prefix)}
    encoder = state_from_arrays(encoder_cfg, enc_arrays)
    decoder = nn.params_from_arrays(decoder_param_shapes(decoder_cfg), dec_arrays,
                                    "decoder config")
    return Seq2SeqState(encoder_cfg, encoder, decoder_cfg, decoder)


def _attention_shapes(prefix: str, d: int) -> dict:
    """Name -> shape of one attention sub-layer's projections, in creation order."""
    return {f"{prefix}.{w}{p}": (d, d) if w == "w" else (d,) for p in "qkvo" for w in "wb"}


def _proj(params: dict, prefix: str, w: str, x: Node, tape: Tape | None) -> Node:
    """Attention projection w ("q", "k", "v" or "o") of sub-layer prefix applied to x."""
    return nn.linear(x, params[f"{prefix}.w{w}"], params[f"{prefix}.b{w}"], tape)


def _kv(params: dict, prefix: str, source: Node, tape: Tape | None) -> tuple:
    """Keys and values of attention sub-layer prefix over source."""
    return tuple(_proj(params, prefix, w, source, tape) for w in "kv")


def _attention_sublayer(params: dict, prefix: str, x: Node, kv, n_heads: int, causal: bool,
                        tape: Tape | None) -> Node:
    """Attention sub-layer prefix over x: project the queries, attend, project the output.

    kv() returns the keys and values, so the caller decides where they come
    from; it is called after the queries are projected, since tape order
    fixes the gradient's rounding. The attention is causal when causal is set.
    """
    q = _proj(params, prefix, "q", x, tape)
    ctx = nn.multi_head_attention(q, *kv(), n_heads, tape, causal)
    return _proj(params, prefix, "o", ctx, tape)


def _decoder_stack(cfg: DecoderConfig, decoder: dict, ids, positions, self_kv, cross_kv,
                   causal: bool, tape: Tape | None) -> Node:
    """Vocabulary logits from the decoder's sub-layers, in their one fixed order.

    Embeddings of ids at positions, then per layer self-attention, cross-
    attention and feed-forward, each added to its input and normalized, then
    the tied output projection. Cross-attention and feed-forward are the
    encoder block's row-wise tail, with cross-attention as its mixing
    sub-layer. Both attentions are _attention_sublayer, self-attention causal
    when causal is set; self_kv(i, x) and cross_kv(i) return layer i's keys
    and values.
    """
    word = nn.embedding_lookup(ids, decoder["decoder.embeddings.word"], tape)
    pos = nn.embedding_lookup(positions, decoder["decoder.embeddings.position"], tape)
    x = _add_norm(decoder, "decoder.embeddings.ln", word, pos, tape)

    for i in range(cfg.n_layers):
        prefix = f"decoder.layer{i}"
        y = _attention_sublayer(decoder, f"{prefix}.self_attn", x, lambda: self_kv(i, x),
                                cfg.n_heads, causal, tape)
        u = _add_norm(decoder, f"{prefix}.self_ln", x, y, tape)
        y = _attention_sublayer(decoder, f"{prefix}.cross_attn", u, lambda: cross_kv(i),
                                cfg.n_heads, False, tape)
        x = _row_sublayers(decoder, prefix, "cross_ln", u, y, tape)

    return nn.tied_logits(x, decoder["decoder.embeddings.word"], decoder["decoder.output_bias"], tape)


def decoder_forward(cfg: DecoderConfig, decoder: dict, target_ids, encoder_out: Node,
                    tape: Tape | None = None) -> Node:
    """Vocabulary logits [L_tgt, V] given the causal prefix and encoder states."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.ndim != 1:
        raise ShapeError(f"target_ids must be 1-D, got shape {target_ids.shape}")
    L = target_ids.shape[0]
    if L > cfg.max_positions:
        raise ShapeError(f"target length {L} exceeds max_positions {cfg.max_positions}")
    if encoder_out.value.ndim != 2 or encoder_out.value.shape[1] != cfg.d_model:
        raise ShapeError(
            f"encoder output shape {encoder_out.value.shape} incompatible with d_model {cfg.d_model}"
        )

    return _decoder_stack(
        cfg, decoder, target_ids, np.arange(L),
        lambda i, x: _kv(decoder, f"decoder.layer{i}.self_attn", x, tape),
        lambda i: _kv(decoder, f"decoder.layer{i}.cross_attn", encoder_out, tape), True, tape)


def seq2seq_loss(state: Seq2SeqState, source_ids, target_ids, tape: Tape | None = None) -> Node:
    """Teacher-forced mean cross-entropy; pad positions in the target are ignored."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.size == 0:
        raise ShapeError("seq2seq_loss: empty target")
    decoder_input = np.insert(target_ids[:-1], 0, BOS_ID)
    labels = np.where(target_ids == PAD_ID, nn.IGNORE_LABEL, target_ids)
    hidden = encoder_forward(state.encoder_cfg, state.encoder, source_ids, tape=tape)
    logits = decoder_forward(state.decoder_cfg, state.decoder, decoder_input, hidden, tape)
    return nn.masked_cross_entropy(logits, labels, tape)


def _ban_repeats(logp: np.ndarray, tokens: np.ndarray, n: int) -> None:
    """Set logp[b, tok] to -inf where tok would complete an n-gram already in tokens[b].

    tokens is [B, T], one hypothesis per row, each rescanned whole: window s
    matches where tokens[b, s:s + n - 1] equals the row's last n - 1 tokens,
    and then bans tokens[b, s + n - 1].
    """
    width = tokens.shape[1] - n + 1  # n-gram windows per row
    if n <= 0 or width <= 0:
        return
    match = np.ones((tokens.shape[0], width), dtype=bool)
    for j in range(n - 1):
        match &= tokens[:, j:j + width] == tokens[:, width + j, None]
    rows, starts = np.nonzero(match)
    logp[rows, tokens[rows, starts + n - 1]] = -np.inf


def _decoder_step(cfg: DecoderConfig, decoder: dict, tokens, t: int, cross_kv: list,
                  cache: np.ndarray) -> np.ndarray:
    """Logits [B, V] at position t of B hypotheses, in one tape-free _decoder_stack pass.

    tokens [B] holds each hypothesis's newest token. The stack runs without a
    causal mask, since each row is one query over its own prefix. Layer i's
    cross-attention keys and values are cross_kv[i], two Nodes of shape
    [L_src, d_model] that every hypothesis shares. Its self-attention keys
    and values come from self_kv, which writes position t's projections into
    cache [n_layers, 2, beam, max_len, d_model], where positions before t
    already are, and returns the views cache[i, :, :B, :t + 1]. Row b equals
    the last row of decoder_forward on hypothesis b's whole prefix, up to
    rounding.
    """
    n = len(tokens)

    def self_kv(i, x):
        for kv, new in zip(cache[i], _kv(decoder, f"decoder.layer{i}.self_attn", x, None)):
            kv[:n, t] = new.value
        return tuple(Node(kv[:n, :t + 1]) for kv in cache[i])

    return _decoder_stack(cfg, decoder, tokens, np.full(n, t), self_kv, cross_kv.__getitem__,
                          False, None).value


def generate(state: Seq2SeqState, source_ids, gen: GenerationConfig) -> list:
    """Beam-searched token ids for one source, bos/eos stripped from the result.

    Decoding is incremental. The source is encoded once and each layer's
    cross-attention keys and values are projected once, [L_src, d_model]
    each. One preallocated cache [n_layers, 2, beam_size, max_len, d_model]
    holds the live hypotheses' self-attention keys and values, row b for
    hypothesis b, beside the token matrix [beam_size, max_len + 1] (bos in
    column 0) and the summed log-probabilities [B]. Each step runs all B
    hypotheses through the decoder as one [B, d_model] batch that writes its
    position into the cache in place. Beam selection copies only the rows
    whose hypothesis changed index.

    Hypotheses are ranked by mean log-probability per generated token; ties
    break toward the lower token id, then the earlier hypothesis. The n-gram
    constraint covers the whole hypothesis including bos.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)[: gen.max_input_len]
    hidden = encoder_forward(state.encoder_cfg, state.encoder, source_ids)
    cfg, decoder = state.decoder_cfg, state.decoder
    cross_kv = [_kv(decoder, f"decoder.layer{i}.cross_attn", hidden, None)
                for i in range(cfg.n_layers)]
    # bos occupies one decoder position, so content length is capped below it.
    max_len = min(gen.max_target_len, cfg.max_positions - 1)
    cache = np.empty((cfg.n_layers, 2, gen.beam_size, max_len, cfg.d_model))
    tokens = np.empty((gen.beam_size, max_len + 1), dtype=np.int64)
    tokens[0, 0] = gen.bos_id
    totals = np.zeros(1)
    length, finished = 1, []  # finished: (score, ids without bos and eos)
    for t in range(max_len):
        B = len(totals)
        logp = nn.log_softmax_rows(_decoder_step(cfg, decoder, tokens[:B, t], t, cross_kv,
                                                 cache))
        _ban_repeats(logp, tokens[:B, :t + 1], gen.no_repeat_ngram)
        # each row's best beam_size tokens, exact ties resolved toward the lower id
        top = np.argsort(-logp, axis=-1, kind="stable")[:, : gen.beam_size]
        hyp, tok = np.repeat(np.arange(B), top.shape[1]), top.ravel()
        finite = np.isfinite(logp[hyp, tok])
        hyp, tok = hyp[finite], tok[finite]
        if not len(tok):
            break
        new_totals = totals[hyp] + logp[hyp, tok]
        scores = new_totals / (t + 1)  # t + 1 generated tokens: bos excluded
        best = np.lexsort((hyp, tok, -scores))[: gen.beam_size]
        hyp, tok, scores, new_totals = hyp[best], tok[best], scores[best], new_totals[best]
        ended = tok == gen.eos_id
        finished += [(score, tokens[h, 1:t + 1].tolist())
                     for score, h in zip(scores[ended].tolist(), hyp[ended])]
        keep, totals = hyp[~ended], new_totals[~ended]
        if not len(keep) or len(finished) >= gen.beam_size:
            break
        moved = np.flatnonzero(keep != np.arange(len(keep)))  # none at beam 1
        if len(moved):
            tokens[moved, :t + 1] = tokens[keep[moved], :t + 1]
            cache[:, :, moved, :t + 1] = cache[:, :, keep[moved], :t + 1]
        tokens[:len(keep), t + 1] = tok[~ended]
        length = t + 2

    # ids drop only the frame, leading bos and terminal eos. A mid-sequence
    # special stays put, otherwise dropping it could splice a repeated n-gram.
    if finished:
        return max(finished, key=lambda f: f[0])[1]
    return tokens[np.argmax(totals / max(length - 1, 1)), 1:length].tolist()
