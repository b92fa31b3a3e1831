"""Spectral encoder paired with an attention decoder through cross-attention.

The encoder never attends; the decoder does, both over its own (causal)
prefix and over the encoder's hidden states. Cross-attention is therefore the
only path from source to output, and the path by which decoder training
reaches encoder parameters.

Generation is length-normalized beam search (beam 1 is greedy) with an
optional no-repeat n-gram constraint: a candidate token whose selection would
complete an n-gram already present in its hypothesis is banned before
selection. Decoding is incremental: cross-attention keys and values are
projected once per source, each hypothesis keeps its self-attention keys and
values, and one decoder step advances every live hypothesis at once.
``decoder_forward`` runs the whole target at once, for teacher-forced training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .encoder import (
    EncoderConfig,
    EncoderState,
    encoder_forward,
    init_encoder_state,
    state_from_arrays,
)
from .errors import ConfigError, ShapeError
from .nn import AttentionConfig, AttentionParams, Node, Tape
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
    layer_norm_eps: float = 1e-12

    def __post_init__(self):
        for field in ("n_layers", "d_model", "d_ff", "n_heads", "vocab_size",
                      "max_positions"):
            if getattr(self, field) < 1:
                raise ConfigError(f"DecoderConfig.{field} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"DecoderConfig.d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.layer_norm_eps <= 0:
            raise ConfigError("DecoderConfig.layer_norm_eps must be positive")


@dataclass(frozen=True)
class GenerationConfig:
    max_input_len: int = 4096
    max_target_len: int = 512
    no_repeat_ngram: int = 2
    beam_size: int = 1
    eos_id: int = EOS_ID
    bos_id: int = BOS_ID
    pad_id: int = PAD_ID

    def __post_init__(self):
        if self.max_target_len < 1:
            raise ConfigError("GenerationConfig.max_target_len must be >= 1")
        if self.beam_size < 1:
            raise ConfigError("GenerationConfig.beam_size must be >= 1")
        if self.no_repeat_ngram < 0:
            raise ConfigError("GenerationConfig.no_repeat_ngram must be >= 0")


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
            for w, shape in (("wq", (d, d)), ("bq", (d,)), ("wk", (d, d)), ("bk", (d,)),
                             ("wv", (d, d)), ("bv", (d,)), ("wo", (d, d)), ("bo", (d,))):
                shapes[f"decoder.layer{i}.{attn}.{w}"] = shape
        shapes[f"decoder.layer{i}.self_ln.gamma"] = (d,)
        shapes[f"decoder.layer{i}.self_ln.beta"] = (d,)
        shapes[f"decoder.layer{i}.cross_ln.gamma"] = (d,)
        shapes[f"decoder.layer{i}.cross_ln.beta"] = (d,)
        shapes[f"decoder.layer{i}.ff.w1"] = (d, ff)
        shapes[f"decoder.layer{i}.ff.b1"] = (ff,)
        shapes[f"decoder.layer{i}.ff.w2"] = (ff, d)
        shapes[f"decoder.layer{i}.ff.b2"] = (d,)
        shapes[f"decoder.layer{i}.ff_ln.gamma"] = (d,)
        shapes[f"decoder.layer{i}.ff_ln.beta"] = (d,)
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


def _attn_params(decoder: dict, prefix: str) -> AttentionParams:
    return AttentionParams(**{
        w: decoder[f"{prefix}.{w}"]
        for w in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    })


def _decoder_stack(cfg: DecoderConfig, decoder: dict, ids, positions, attend_self,
                   attend_cross, tape: Tape | None) -> Node:
    """Vocabulary logits from the decoder's sub-layers, in their one fixed order.

    Embeddings of ids at positions, then per layer self-attention, cross-
    attention and feed-forward, each added to its input and normalized, then
    the tied output projection. attend_self(i, x) and attend_cross(i, u)
    return layer i's attention outputs, so the caller decides where keys and
    values come from.
    """
    def ln(prefix, x):
        return nn.layer_norm(x, decoder[f"{prefix}.gamma"], decoder[f"{prefix}.beta"],
                             cfg.layer_norm_eps, tape)

    word = nn.embedding_lookup(ids, decoder["decoder.embeddings.word"], tape)
    pos = nn.embedding_lookup(positions, decoder["decoder.embeddings.position"], tape)
    x = ln("decoder.embeddings.ln", nn.add(word, pos, tape))

    for i in range(cfg.n_layers):
        u = ln(f"decoder.layer{i}.self_ln", nn.add(x, attend_self(i, x), tape))
        w = ln(f"decoder.layer{i}.cross_ln", nn.add(u, attend_cross(i, u), tape))
        h = nn.linear(w, decoder[f"decoder.layer{i}.ff.w1"], decoder[f"decoder.layer{i}.ff.b1"], tape)
        h = nn.gelu(h, tape)
        h = nn.linear(h, decoder[f"decoder.layer{i}.ff.w2"], decoder[f"decoder.layer{i}.ff.b2"], tape)
        x = ln(f"decoder.layer{i}.ff_ln", nn.add(w, h, tape))

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
    self_cfg = AttentionConfig(n_heads=cfg.n_heads, d_model=cfg.d_model, causal=True)
    cross_cfg = AttentionConfig(n_heads=cfg.n_heads, d_model=cfg.d_model, causal=False)

    def attend_self(i, x):
        params = _attn_params(decoder, f"decoder.layer{i}.self_attn")
        return nn.multi_head_attention(x, x, x, params, self_cfg, tape)

    def attend_cross(i, u):
        params = _attn_params(decoder, f"decoder.layer{i}.cross_attn")
        return nn.multi_head_attention(u, encoder_out, encoder_out, params, cross_cfg, tape)

    return _decoder_stack(cfg, decoder, target_ids, np.arange(L), attend_self, attend_cross, tape)


def seq2seq_loss(state: Seq2SeqState, source_ids, target_ids, tape: Tape | None = None,
                 bos_id: int = BOS_ID, pad_id: int = PAD_ID) -> Node:
    """Teacher-forced mean cross-entropy; pad positions in the target are ignored."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if target_ids.size == 0:
        raise ShapeError("seq2seq_loss: empty target")
    decoder_input = np.concatenate(([bos_id], target_ids[:-1]))
    labels = np.where(target_ids == pad_id, nn.IGNORE_LABEL, target_ids)
    hidden = encoder_forward(state.encoder_cfg, state.encoder, source_ids, tape=tape)
    logits = decoder_forward(state.decoder_cfg, state.decoder, decoder_input, hidden, tape)
    return nn.masked_cross_entropy(logits, labels, tape)


def _record_ngram(seen: dict, tokens: list, n: int) -> dict:
    """Index the n-gram that tokens[-1] completes: (n-1)-gram -> tokens seen after it.

    Values are frozensets, so a shallow dict copy gives a hypothesis its own
    index. Returns seen, updated in place.
    """
    if 0 < n <= len(tokens):
        key = tuple(tokens[len(tokens) - n:-1])
        seen[key] = seen.get(key, frozenset()) | {tokens[-1]}
    return seen


def _banned_tokens(seen: dict, tokens: list, n: int) -> frozenset:
    """Token ids that would complete an n-gram already present in tokens.

    seen is the index _record_ngram built over every prefix of tokens.
    """
    if n <= 0 or len(tokens) < n - 1:
        return frozenset()
    return seen.get(tuple(tokens[len(tokens) - (n - 1):]), frozenset())


def _proj(decoder: dict, prefix: str, w: str, x: Node) -> Node:
    return nn.linear(x, decoder[f"{prefix}.w{w}"], decoder[f"{prefix}.b{w}"], None)


def _decoder_step(cfg: DecoderConfig, decoder: dict, tokens, cross_kv: list,
                  self_kv: list):
    """Logits [B, V] at the next position of B hypotheses, in one decoder pass.

    tokens [B] holds each hypothesis's newest token. Layer i attends over the
    encoder's keys and values cross_kv[i] ([L_src, H, d_h] each), and over
    its own position plus self_kv[i] ([B, t, H, d_h] each, the t positions
    before it). Row b equals the last row of
    decoder_forward on hypothesis b's whole prefix, up to rounding. Returns
    the logits and self_kv extended by this position.
    """
    n, t = len(tokens), self_kv[0][0].shape[1]
    heads = (cfg.n_heads, cfg.d_model // cfg.n_heads)
    extended = []

    def attend_self(i, x):
        prefix = f"decoder.layer{i}.self_attn"
        k, v = (np.concatenate((cached, _proj(decoder, prefix, w, x).value.reshape(n, 1, *heads)),
                               axis=1)
                for cached, w in zip(self_kv[i], "kv"))
        extended.append((k, v))
        ctx = nn._attend(_proj(decoder, prefix, "q", x).value.reshape(n, 1, *heads), k, v)
        return _proj(decoder, prefix, "o", Node(ctx.reshape(n, cfg.d_model)))

    def attend_cross(i, u):
        prefix = f"decoder.layer{i}.cross_attn"
        ctx = nn._attend(_proj(decoder, prefix, "q", u).value.reshape(n, *heads), *cross_kv[i])
        return _proj(decoder, prefix, "o", Node(ctx.reshape(n, cfg.d_model)))

    logits = _decoder_stack(cfg, decoder, tokens, np.full(n, t), attend_self, attend_cross, None)
    return logits.value, extended


def generate(state: Seq2SeqState, source_ids, gen: GenerationConfig) -> list:
    """Beam-searched token ids for one source, bos/eos stripped from the result.

    Decoding is incremental. The source is encoded once and each layer's
    cross-attention keys and values are projected once. Every live
    hypothesis keeps its self-attention keys and values, and each step runs
    all of them through the decoder as one [beam, d] batch that extends those
    caches by one position; beam selection reorders the caches to the kept
    hypotheses.

    Hypotheses are ranked by mean log-probability per generated token; ties
    break toward the lower token id, then the earlier hypothesis. The n-gram
    constraint covers the whole hypothesis including bos, through an index
    each hypothesis extends as it grows.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)[: gen.max_input_len]
    hidden = encoder_forward(state.encoder_cfg, state.encoder, source_ids)
    cfg, decoder = state.decoder_cfg, state.decoder
    heads = (cfg.n_heads, cfg.d_model // cfg.n_heads)
    cross_kv = [
        tuple(_proj(decoder, f"decoder.layer{i}.cross_attn", w, hidden).value.reshape(-1, *heads)
              for w in "kv")
        for i in range(cfg.n_layers)
    ]
    self_kv = [(np.empty((1, 0, *heads)), np.empty((1, 0, *heads)))] * cfg.n_layers
    # bos occupies one decoder position, so content length is capped below it.
    max_len = min(gen.max_target_len, cfg.max_positions - 1)
    n = gen.no_repeat_ngram

    live = [([gen.bos_id], 0.0, _record_ngram({}, [gen.bos_id], n))]
    finished = []
    for _ in range(max_len):
        logits, self_kv = _decoder_step(cfg, decoder, [h[0][-1] for h in live], cross_kv, self_kv)
        logp = nn.log_softmax_rows(logits)
        candidates = []
        for hyp_idx, (tokens, total, seen) in enumerate(live):
            row = logp[hyp_idx]
            for tok in _banned_tokens(seen, tokens, n):
                row[tok] = -np.inf
            # descending logp, exact ties resolved toward the lower token id
            order = np.lexsort((np.arange(row.shape[0]), -row))[: gen.beam_size]
            for tok in order:
                tok = int(tok)
                if not np.isfinite(row[tok]):
                    continue
                new_total = total + float(row[tok])
                n_generated = len(tokens)  # excludes bos, counts the new token
                score = new_total / n_generated
                candidates.append((score, tok, hyp_idx, new_total))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live, keep = [], []
        for score, tok, hyp_idx, new_total in candidates[: gen.beam_size]:
            tokens, _, seen = live[hyp_idx]
            tokens = tokens + [tok]
            if tok == gen.eos_id:
                finished.append((score, tokens))
            else:
                next_live.append((tokens, new_total, _record_ngram(dict(seen), tokens, n)))
                keep.append(hyp_idx)
        live = next_live
        if not live or len(finished) >= gen.beam_size:
            break
        self_kv = [(k[keep], v[keep]) for k, v in self_kv]

    if finished:
        finished.sort(key=lambda c: -c[0])
        best = finished[0][1]
    elif live:
        best = max(
            enumerate(live), key=lambda e: (e[1][1] / max(len(e[1][0]) - 1, 1), -e[0])
        )[1][0]
    else:
        return []
    # strip only the frame: leading bos, terminal eos. A mid-sequence special
    # stays put, otherwise stripping could splice a repeated n-gram together.
    best = best[1:]
    if best and best[-1] == gen.eos_id:
        best = best[:-1]
    return best[: gen.max_target_len]
