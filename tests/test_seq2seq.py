"""Decoder semantics, the cross-attention seam, teacher forcing, and generation."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import check_grad
from specmix import encoder, nn, seq2seq
from specmix.checkpoint import load_checkpoint, save_checkpoint
from specmix.encoder import ROW_BLOCK, EncoderConfig, encoder_forward, init_encoder_state
from specmix.errors import CheckpointError, ConfigError, ShapeError
from specmix.nn import Node, Tape
from specmix.rng import SplitRng
from specmix.seq2seq import (
    BOS_ID,
    EOS_ID,
    DecoderConfig,
    GenerationConfig,
    _attention_shapes,
    _ban_repeats,
    decoder_forward,
    decoder_param_shapes,
    generate,
    init_seq2seq_state,
    seq2seq_loss,
    seq2seq_state_from_arrays,
)
from specmix.spectral import MixingKind

ENC = EncoderConfig(n_layers=1, d_model=4, d_ff=8, vocab_size=7, max_positions=8,
                    mixing=MixingKind.HARTLEY)
DEC = DecoderConfig(n_layers=1, d_model=4, d_ff=8, n_heads=2, vocab_size=7,
                    max_positions=8)


def make_state(seed=0):
    return init_seq2seq_state(ENC, DEC, SplitRng(seed))


def make_strong_state(seed=0):
    """Test model with 10x weight scale for finite-difference work.

    At the 0.02 training init, attention is near-uniform and the gradients
    reaching the encoder through cross-attention sit at ~1e-7, the same order
    as central-difference roundoff at step 1e-6; FD would measure noise.
    Boosting the matrices makes every path's gradient resolvable.
    """
    state = init_seq2seq_state(ENC, DEC, SplitRng(seed))
    for _, p in state.named_params():
        if p.value.ndim == 2 and not p.name.endswith((".gamma", ".beta")):
            p.value *= 10.0
    return state


class TestConfigs:
    def test_decoder_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            DecoderConfig(n_layers=1, d_model=6, d_ff=8, n_heads=4, vocab_size=7,
                          max_positions=8)

    def test_decoder_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DecoderConfig(n_layers=0)

    def test_generation_bounds(self):
        with pytest.raises(ConfigError):
            GenerationConfig(max_target_len=0)
        with pytest.raises(ConfigError):
            GenerationConfig(beam_size=0)
        with pytest.raises(ConfigError):
            GenerationConfig(no_repeat_ngram=-1)
        for length in (0, -1):  # -1 used to drop the source's last token silently
            with pytest.raises(ConfigError, match="max_input_len"):
                GenerationConfig(max_input_len=length)

    def test_width_mismatch_rejected(self):
        wide = DecoderConfig(n_layers=1, d_model=8, d_ff=8, n_heads=2, vocab_size=7,
                             max_positions=8)
        with pytest.raises(ConfigError):
            init_seq2seq_state(ENC, wide, SplitRng(0))


class TestSeq2SeqState:
    def test_init_deterministic(self):
        a, b = make_state(5), make_state(5)
        for (name, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(pa.value, pb.value), name

    def test_prefixed_names(self):
        names = [name for name, _ in make_state().named_params()]
        assert any(n.startswith("encoder.layer0.ff.w1") for n in names)
        assert any(n.startswith("decoder.layer0.cross_attn.wq") for n in names)
        assert "encoder.mlm.bias" not in names  # no prediction head in seq2seq

    def test_attention_entries_are_attention_shapes_in_order(self):
        cfg = DecoderConfig(n_layers=2, d_model=4, d_ff=8, n_heads=2, vocab_size=7,
                            max_positions=8)
        attention = [(name, shape) for name, shape in decoder_param_shapes(cfg).items()
                     if "_attn." in name]
        assert attention == [entry for i in range(2) for kind in ("self_attn", "cross_attn")
                             for entry in _attention_shapes(f"decoder.layer{i}.{kind}", 4).items()]

    def arrays(self):
        return {name: p.value for name, p in make_state(3).named_params()}

    def test_from_arrays_round_trip(self):
        rebuilt = seq2seq_state_from_arrays(ENC, DEC, self.arrays())
        for (name, pa), (_, pb) in zip(make_state(3).named_params(), rebuilt.named_params()):
            assert pa.value.tobytes() == pb.value.tobytes(), name

    def test_from_arrays_missing_decoder_parameter(self):
        arrays = self.arrays()
        del arrays["decoder.layer0.cross_attn.bk"]
        with pytest.raises(CheckpointError, match="decoder.layer0.cross_attn.bk"):
            seq2seq_state_from_arrays(ENC, DEC, arrays)

    def test_from_arrays_stray_name(self):
        arrays = dict(self.arrays(), stray=np.zeros(3))
        with pytest.raises(CheckpointError, match="stray"):
            seq2seq_state_from_arrays(ENC, DEC, arrays)

    def test_from_arrays_wrong_shape(self):
        arrays = dict(self.arrays(), **{"decoder.output_bias": np.zeros(3)})
        with pytest.raises(CheckpointError, match="decoder.output_bias"):
            seq2seq_state_from_arrays(ENC, DEC, arrays)


def init_digest(named_params) -> str:
    h = hashlib.sha256()
    for name, p in named_params:
        h.update(name.encode("utf-8"))
        h.update(p.value.tobytes())
    return h.hexdigest()


class TestInitBytes:
    """Initial parameters are part of the determinism contract: pin their bytes."""

    ENC2 = EncoderConfig(n_layers=2, d_model=8, d_ff=16, vocab_size=12, max_positions=16,
                         mixing=MixingKind.HARTLEY)
    DEC2 = DecoderConfig(n_layers=2, d_model=8, d_ff=16, n_heads=2, vocab_size=12,
                         max_positions=16)

    def test_encoder_with_head(self):
        state = init_encoder_state(self.ENC2, SplitRng(5), with_mlm_head=True)
        assert init_digest(state.named_params()) == (
            "7a1fba68b08c437d77a7676a7cb431c624bfba1e188d2341db7414e239cdd960")

    def test_encoder_without_head(self):
        state = init_encoder_state(self.ENC2, SplitRng(5), with_mlm_head=False)
        assert init_digest(state.named_params()) == (
            "6c6fe2e0dd09fdcae12053f60b8d9b85a678f58a084975edb7493d86908aa8d7")

    def test_seq2seq(self):
        state = init_seq2seq_state(self.ENC2, self.DEC2, SplitRng(5))
        assert init_digest(state.named_params()) == (
            "f43a821dadba68a1669a5c1742681275ca9705493e4bda17b8e83ca2a9b26f12")


class TestDecoderForward:
    def test_single_position_runs(self):
        state = make_state(1)
        hidden = Node(np.random.default_rng(0).normal(size=(3, 4)))
        out = decoder_forward(DEC, state.decoder, [BOS_ID], hidden)
        assert out.value.shape == (1, 7)
        assert np.all(np.isfinite(out.value))

    def test_causality_bit_exact(self):
        """Logits at position t ignore target tokens past t."""
        state = make_state(2)
        hidden = Node(np.random.default_rng(1).normal(size=(3, 4)))
        a = decoder_forward(DEC, state.decoder, [2, 5, 6, 5], hidden)
        b = decoder_forward(DEC, state.decoder, [2, 5, 1, 0], hidden)
        assert np.array_equal(a.value[:2], b.value[:2])
        assert not np.array_equal(a.value[2:], b.value[2:])

    def test_width_mismatch(self):
        state = make_state(0)
        with pytest.raises(ShapeError):
            decoder_forward(DEC, state.decoder, [2, 5], Node(np.zeros((3, 5))))

    def test_length_overflow(self):
        state = make_state(0)
        with pytest.raises(ShapeError, match="9.*8"):
            decoder_forward(DEC, state.decoder, np.full(9, 5), Node(np.zeros((3, 4))))

    def test_zeroed_cross_value_cuts_source_dependence(self):
        # With W_v of every cross-attention zeroed, a @ 0 vanishes exactly, so
        # logits cannot react to the source at all.
        state = make_state(3)
        for i in range(DEC.n_layers):
            state.decoder[f"decoder.layer{i}.cross_attn.wv"].value[...] = 0.0
            state.decoder[f"decoder.layer{i}.cross_attn.bv"].value[...] = 0.0
        rng = np.random.default_rng(2)
        h1 = Node(rng.normal(size=(3, 4)))
        h2 = Node(rng.normal(size=(3, 4)))
        a = decoder_forward(DEC, state.decoder, [2, 5, 6], h1)
        b = decoder_forward(DEC, state.decoder, [2, 5, 6], h2)
        assert np.array_equal(a.value, b.value)

    def test_source_dependence_without_zeroing(self):
        state = make_state(3)
        rng = np.random.default_rng(2)
        a = decoder_forward(DEC, state.decoder, [2, 5, 6], Node(rng.normal(size=(3, 4))))
        b = decoder_forward(DEC, state.decoder, [2, 5, 6], Node(rng.normal(size=(3, 4))))
        assert not np.array_equal(a.value, b.value)


class TestRowBlockedDecoderForward:
    """Without a tape the decoder's feed-forward tails run ROW_BLOCK rows at a time, as the encoder's do."""

    LENGTHS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_matches_the_taped_forward_one_block_at_a_time(self, length, monkeypatch):
        cfg = DecoderConfig(n_layers=2, d_model=16, d_ff=32, n_heads=2, vocab_size=50,
                            max_positions=2 * ROW_BLOCK + 3)
        decoder = nn.init_params(seq2seq.decoder_param_shapes(cfg), SplitRng(4))
        rng = np.random.default_rng(length)
        ids = rng.integers(0, 50, size=length)
        source = Node(rng.normal(size=(10, 16)))
        rows = []
        original = nn.linear

        def linear(x, w, b, tape):
            if ".ff." in w.name:
                rows.append(x.value.shape[0])
            return original(x, w, b, tape)

        monkeypatch.setattr(encoder.nn, "linear", linear)
        free = decoder_forward(cfg, decoder, ids, source).value
        assert max(rows) <= ROW_BLOCK and sum(rows) == 4 * length
        rows.clear()
        taped = decoder_forward(cfg, decoder, ids, source, tape=Tape()).value
        assert rows == [length] * 4
        assert free.shape == (length, 50)
        np.testing.assert_allclose(free, taped, rtol=0.0, atol=1e-12)


class TestSeq2SeqLoss:
    def test_empty_target_rejected(self):
        with pytest.raises(ShapeError):
            seq2seq_loss(make_state(0), [5, 6], [])

    def test_uniform_logits_cost_log_vocab(self):
        # Zeroed tied table and bias force logits to zero: uniform over V.
        state = make_state(0)
        state.decoder["decoder.embeddings.word"].value[...] = 0.0
        state.decoder["decoder.output_bias"].value[...] = 0.0
        loss = seq2seq_loss(state, [5, 6], [5])
        assert abs(loss.value - np.log(7.0)) <= 1e-12

    def test_swapping_target_tokens_changes_loss(self):
        state = make_state(4)
        a = seq2seq_loss(state, [5, 6, 5], [5, 6])
        b = seq2seq_loss(state, [5, 6, 5], [6, 5])
        assert a.value != b.value

    def test_pad_labels_ignored(self):
        state = make_state(4)
        short = seq2seq_loss(state, [5, 6], [5])
        padded = seq2seq_loss(state, [5, 6], [5, 0])
        assert np.isclose(short.value, padded.value, rtol=1e-10, atol=0)


class TestSeq2SeqGradients:
    def test_cross_attention_trains_the_encoder(self):
        """FD through the seam: the decoder loss must reach encoder weights."""
        state = make_strong_state(7)
        src = np.array([5, 6, 5, 1])
        tgt = np.array([6, 5, 3])

        tape = Tape()
        loss = seq2seq_loss(state, src, tgt, tape)
        tape.backward(loss)

        def f():
            return float(seq2seq_loss(state, src, tgt, None).value)

        w = state.encoder["layer0.ff.w1"]
        assert np.abs(w.grad).max() > 0
        check_grad(f, w.value, w.grad, 1e-4)

    def test_every_parameter_matches_fd(self):
        state = make_strong_state(8)
        src = np.array([5, 6, 1])
        tgt = np.array([6, 5, 3])

        tape = Tape()
        loss = seq2seq_loss(state, src, tgt, tape)
        tape.backward(loss)

        def f():
            return float(seq2seq_loss(state, src, tgt, None).value)

        for name, p in state.named_params():
            check_grad(f, p.value, p.grad, 1e-4, zero_floor=1e-8)


class TestTrainingStepMemory:
    def test_step_peak_stays_near_the_forward_peak(self):
        # Tape.backward frees each closure's activations and cotangents as it
        # goes, so backward adds little to the forward pass's traced peak
        # (1.6x when the tape held every closure until it was dropped).
        enc = EncoderConfig(n_layers=2, d_model=32, d_ff=128, vocab_size=261,
                            max_positions=512, mixing=MixingKind.HARTLEY)
        dec = DecoderConfig(n_layers=2, d_model=32, d_ff=128, n_heads=4, vocab_size=261,
                            max_positions=32)
        state = init_seq2seq_state(enc, dec, SplitRng(0))
        rng = np.random.default_rng(0)
        source, target = rng.integers(5, 261, size=512), rng.integers(5, 261, size=24)
        tracemalloc.start()
        try:
            tape = Tape()
            loss = seq2seq_loss(state, source, target, tape)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tape.backward(loss)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step_peak <= 1.10 * forward_peak, (step_peak, forward_peak)


class TestLoadedStateMemory:
    def test_a_loaded_state_holds_only_its_weights(self, tmp_path):
        """Loading for inference allocates no gradient buffer, before or after generate.

        At the summarize benchmark's sizes (308,037 parameters, 2.35 MiB of values) a
        buffer per parameter doubled what a load left traced.
        """
        enc = EncoderConfig(n_layers=2, d_model=64, d_ff=256, vocab_size=261,
                            max_positions=1024, mixing=MixingKind.HARTLEY)
        dec = DecoderConfig(n_layers=2, d_model=64, d_ff=256, n_heads=4, vocab_size=261,
                            max_positions=64)
        arrays = {name: p.value for name, p in init_seq2seq_state(enc, dec, SplitRng(0))
                  .named_params()}
        values = sum(a.nbytes for a in arrays.values())
        path = tmp_path / "s2s.spmx"
        save_checkpoint(path, {}, arrays)
        tracemalloc.start()
        try:
            state = seq2seq_state_from_arrays(enc, dec, load_checkpoint(path).arrays)
            loaded = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        generate(state, np.arange(5, 37), GenerationConfig(max_input_len=32, max_target_len=4,
                                                           beam_size=2))
        assert all(p.grad is None for _, p in state.named_params())
        assert loaded <= values + 2**20, (loaded, values)


def scan_banned(tokens, n: int) -> set:
    """Brute-force n-gram ban: rescan every window of the hypothesis."""
    if n <= 0 or len(tokens) < n - 1:
        return set()
    prefix = tuple(tokens[len(tokens) - (n - 1):]) if n > 1 else ()
    banned = set()
    for start in range(len(tokens) - n + 1):
        window = tuple(tokens[start:start + n])
        if window[:-1] == prefix:
            banned.add(window[-1])
    return banned


def banned(tokens, n: int) -> set:
    """The token ids _ban_repeats sets to -inf for one hypothesis."""
    logp = np.zeros((1, 8))
    _ban_repeats(logp, np.array([tokens], dtype=np.int64), n)
    return set(np.flatnonzero(logp[0] == -np.inf).tolist())


class TestBannedTokens:
    def test_bigram_example(self):
        # Hypothesis [a,b,a]: bigram (a,b) exists and the tail is "a", so b is
        # banned for the next slot.
        a, b = 5, 6
        assert banned([BOS_ID, a, b, a], 2) == {b}

    def test_disabled(self):
        assert banned([BOS_ID, 5, 6, 5], 0) == set()

    def test_unigram_bans_everything_seen(self):
        assert banned([BOS_ID, 5, 6], 1) == {BOS_ID, 5, 6}

    def test_too_short_for_prefix(self):
        assert banned([BOS_ID], 3) == set()

    @given(st.integers(1, 4), st.integers(0, 12), st.integers(0, 4), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_rows_match_full_rescan(self, rows, length, n, data):
        tokens = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=length,
                                                      max_size=length),
                                             min_size=rows, max_size=rows)), dtype=np.int64)
        logp = np.zeros((rows, 4))
        _ban_repeats(logp, tokens, n)
        for row, hypothesis in zip(logp, tokens.tolist()):
            assert set(np.flatnonzero(row == -np.inf).tolist()) == scan_banned(hypothesis, n)


def rig_constant_argmax(state, token, strength=10.0):
    """Make logits equal to a fixed bias row so every step argmaxes `token`."""
    state.decoder["decoder.embeddings.word"].value[...] = 0.0
    bias = state.decoder["decoder.output_bias"].value
    bias[...] = 0.0
    bias[token] = strength


class TestGenerate:
    def test_degenerate_model_emits_max_len_copies(self):
        state = make_state(0)
        rig_constant_argmax(state, token=5)
        gen = GenerationConfig(max_target_len=6, no_repeat_ngram=0, beam_size=1)
        assert generate(state, [5, 6], gen) == [5] * 6

    def test_bigram_ban_changes_emission(self):
        state = make_state(0)
        rig_constant_argmax(state, token=5)
        gen = GenerationConfig(max_target_len=6, no_repeat_ngram=2, beam_size=1)
        out = generate(state, [5, 6], gen)
        seen = set()
        for pair in zip(out, out[1:]):
            assert pair not in seen
            seen.add(pair)

    def test_tie_break_prefers_lowest_token_id(self):
        state = make_state(0)
        rig_constant_argmax(state, token=1, strength=0.0)  # flat logits everywhere
        gen = GenerationConfig(max_target_len=2, no_repeat_ngram=0, beam_size=1)
        assert generate(state, [5], gen) == [0, 0]

    def test_eos_stops_generation(self):
        state = make_state(0)
        rig_constant_argmax(state, token=EOS_ID)
        gen = GenerationConfig(max_target_len=6, no_repeat_ngram=0, beam_size=1)
        assert generate(state, [5, 6], gen) == []

    def test_stops_when_the_ngram_ban_leaves_no_candidate(self):
        """Banning repeated unigrams, a vocabulary of 8 runs out after its 7 non-bos ids."""
        dec = DecoderConfig(n_layers=1, d_model=4, d_ff=8, n_heads=2, vocab_size=8,
                            max_positions=32)
        state = init_seq2seq_state(ENC, dec, SplitRng(0))
        gen = GenerationConfig(max_target_len=20, no_repeat_ngram=1, beam_size=2,
                               eos_id=dec.vocab_size)
        assert sorted(generate(state, [5, 6, 1], gen)) == [0, 1, 3, 4, 5, 6, 7]

    def test_deterministic(self):
        state = make_state(9)
        gen = GenerationConfig(max_target_len=8, no_repeat_ngram=2, beam_size=2)
        a = generate(state, [5, 6, 5], gen)
        b = generate(state, [5, 6, 5], gen)
        assert a == b

    def test_never_longer_than_cap(self):
        state = make_state(9)
        gen = GenerationConfig(max_target_len=4, no_repeat_ngram=0, beam_size=2)
        assert len(generate(state, [5, 6, 5], gen)) <= 4

    def test_beam_one_equals_reference_greedy(self):
        """Independent greedy oracle with brute-force n-gram screening."""
        def greedy_oracle(state, source, gen):
            from specmix.encoder import encoder_forward
            hidden = encoder_forward(state.encoder_cfg, state.encoder,
                                     np.asarray(source)[: gen.max_input_len])
            tokens = [gen.bos_id]
            out = []
            for _ in range(min(gen.max_target_len, state.decoder_cfg.max_positions - 1)):
                logits = decoder_forward(state.decoder_cfg, state.decoder, tokens, hidden)
                row = logits.value[-1].copy()
                shifted = row - row.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                n = gen.no_repeat_ngram
                if n > 0:
                    for tok in range(len(logp)):
                        cand = tokens + [tok]
                        grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
                        if grams and grams.count(grams[-1]) > 1:
                            logp[tok] = -np.inf
                best = min(
                    (t for t in range(len(logp)) if np.isfinite(logp[t])),
                    key=lambda t: (-logp[t], t), default=None,
                )
                if best is None:
                    break
                tokens.append(best)
                if best == gen.eos_id:
                    break
            return [t for t in tokens[1:] if t != gen.eos_id]

        for seed in range(4):
            state = make_state(20 + seed)
            gen = GenerationConfig(max_target_len=6, no_repeat_ngram=2, beam_size=1)
            src = [5, 6, 5, 6]
            assert generate(state, src, gen) == greedy_oracle(state, src, gen)

    def test_no_repeated_ngram_property(self):
        for seed in range(4):
            state = make_state(30 + seed)
            gen = GenerationConfig(max_target_len=8, no_repeat_ngram=2, beam_size=2)
            out = generate(state, [5, 6, 1, 5], gen)
            grams = [tuple(out[i:i + 2]) for i in range(len(out) - 1)]
            assert len(grams) == len(set(grams))


def uncached_generate(state, source_ids, gen, step_rows):
    """Reference beam search: decoder_forward over each hypothesis's whole prefix.

    Scoring, tie-breaks, the full-rescan n-gram ban, early stop and output
    framing are those generate must keep. step_rows receives, per step, the
    [live, V] log-probabilities before the ban.
    """
    source_ids = np.asarray(source_ids, dtype=np.int64)[: gen.max_input_len]
    hidden = encoder_forward(state.encoder_cfg, state.encoder, source_ids)
    max_len = min(gen.max_target_len, state.decoder_cfg.max_positions - 1)
    live = [([gen.bos_id], 0.0)]
    finished = []
    for _ in range(max_len):
        candidates, rows = [], []
        for hyp_idx, (tokens, total) in enumerate(live):
            logits = decoder_forward(state.decoder_cfg, state.decoder, tokens, hidden)
            logp = nn.log_softmax_rows(logits.value[-1])
            rows.append(logp.copy())
            for tok in scan_banned(tokens, gen.no_repeat_ngram):
                logp[tok] = -np.inf
            order = np.lexsort((np.arange(logp.shape[0]), -logp))[: gen.beam_size]
            for tok in order:
                tok = int(tok)
                if np.isfinite(logp[tok]):
                    new_total = total + float(logp[tok])
                    candidates.append((new_total / len(tokens), tok, hyp_idx, new_total))
        step_rows.append(np.array(rows))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for score, tok, hyp_idx, new_total in candidates[: gen.beam_size]:
            tokens = live[hyp_idx][0] + [tok]
            if tok == gen.eos_id:
                finished.append((score, tokens))
            else:
                next_live.append((tokens, new_total))
        live = next_live
        if not live or len(finished) >= gen.beam_size:
            break
    if finished:
        finished.sort(key=lambda c: -c[0])
        best = finished[0][1]
    elif live:
        best = max(
            enumerate(live), key=lambda e: (e[1][1] / max(len(e[1][0]) - 1, 1), -e[0])
        )[1][0]
    else:
        return []
    best = best[1:]
    if best and best[-1] == gen.eos_id:
        best = best[:-1]
    return best[: gen.max_target_len]


@st.composite
def decoding_cases(draw):
    """A random small model, source and generation config."""
    n_heads = draw(st.integers(1, 2))
    d_model = n_heads * draw(st.sampled_from((2, 4)))
    vocab = draw(st.integers(6, 12))
    max_positions = draw(st.integers(2, 10))
    enc = EncoderConfig(n_layers=draw(st.integers(1, 2)), d_model=d_model, d_ff=8,
                        vocab_size=vocab, max_positions=8,
                        mixing=draw(st.sampled_from(list(MixingKind))))
    dec = DecoderConfig(n_layers=draw(st.integers(1, 2)), d_model=d_model, d_ff=8,
                        n_heads=n_heads, vocab_size=vocab, max_positions=max_positions)
    state = init_seq2seq_state(enc, dec, SplitRng(draw(st.integers(0, 2**16))))
    # 30 sharpens the logits; 0 flattens them, so hypotheses tie exactly
    scale = draw(st.sampled_from((1.0, 30.0, 0.0)))
    for p in state.decoder.values():
        if p.value.ndim == 2:
            p.value *= scale
    source = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=8))
    gen = GenerationConfig(max_input_len=8, max_target_len=draw(st.integers(1, max_positions)),
                           no_repeat_ngram=draw(st.integers(0, 3)),
                           beam_size=draw(st.integers(1, 4)),
                           eos_id=draw(st.sampled_from((EOS_ID, vocab))))
    return state, source, gen


class TestCachedDecoding:
    """generate's cached, beam-batched steps against the uncached reference."""

    @given(decoding_cases())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_uncached_reference(self, case):
        state, source, gen = case
        cached_rows = []
        log_softmax_rows = nn.log_softmax_rows

        def spy(v):
            out = log_softmax_rows(v)
            cached_rows.append(out.copy())
            return out

        expected_rows = []
        expected = uncached_generate(state, source, gen, expected_rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "log_softmax_rows", spy)
            got = generate(state, source, gen)
        assert got == expected
        assert len(cached_rows) == len(expected_rows)
        for got_rows, want_rows in zip(cached_rows, expected_rows):
            assert got_rows.shape == want_rows.shape
            assert np.max(np.abs(got_rows - want_rows)) <= 1e-10

    @pytest.mark.parametrize("beam", [1, 2, 3, 4])
    def test_unreachable_eos_runs_to_max_target_len(self, beam):
        state = make_state(11)
        gen = GenerationConfig(max_target_len=DEC.max_positions - 1, no_repeat_ngram=0,
                               beam_size=beam, eos_id=DEC.vocab_size)
        assert len(generate(state, [5, 6, 1, 5], gen)) == gen.max_target_len

    def test_decoder_forward_not_called(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("generate re-ran decoder_forward")

        monkeypatch.setattr(seq2seq, "decoder_forward", forbidden)
        gen = GenerationConfig(max_target_len=5, no_repeat_ngram=2, beam_size=3)
        assert len(generate(make_state(12), [5, 6, 1], gen)) <= 5
