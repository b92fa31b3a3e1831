"""Tokenizer, packing, masking, optimizer, schedules, and both training loops."""

import re

import numpy as np
import pytest

from specmix.encoder import EncoderConfig, init_encoder_state
from specmix.errors import ConfigError, TrainingError
from specmix.nn import Parameter
from specmix.rng import SplitRng
from specmix.seq2seq import DecoderConfig, init_seq2seq_state
from specmix.spectral import MixingKind
from specmix.training import (
    AdamW,
    BatchSchedule,
    ByteTokenizer,
    EarlyStopper,
    MaskingPolicy,
    apply_mlm_mask,
    load_corpus_jsonl,
    load_pairs_jsonl,
    lr_at,
    pack_corpus,
    read_jsonl,
    train_mlm,
    train_seq2seq,
    _EpochSampler,
)

TOK = ByteTokenizer()

MICRO = EncoderConfig(n_layers=1, d_model=16, d_ff=32, vocab_size=261,
                      max_positions=32, mixing=MixingKind.HARTLEY)


def repetitive_docs(n_docs=8):
    text = "the cat sat on the mat. " * 12
    return [TOK.encode(text) for _ in range(n_docs)]


class TestByteTokenizer:
    def test_round_trip_ascii(self):
        assert TOK.decode(TOK.encode("hello, world")) == "hello, world"

    def test_round_trip_unicode(self):
        s = "héllo ∑ café"
        assert TOK.decode(TOK.encode(s)) == s

    def test_special_ids(self):
        assert (TOK.pad_id, TOK.unk_id, TOK.bos_id, TOK.eos_id, TOK.mask_id) == (0, 1, 2, 3, 4)
        assert TOK.vocab_size == 261

    def test_byte_offset(self):
        assert list(TOK.encode("A")) == [ord("A") + 5]

    def test_decode_skips_specials(self):
        ids = [TOK.bos_id, ord("h") + 5, ord("i") + 5, TOK.eos_id, TOK.pad_id]
        assert TOK.decode(ids) == "hi"


class TestPackCorpus:
    def test_hand_counted_slices(self):
        docs = [np.arange(10) + 5, np.arange(7) + 5, np.arange(5) + 5]
        ds = pack_corpus(docs, 8)
        assert len(ds) == 2
        assert ds.slices.shape == (2, 8)

    def test_stream_is_concatenation_prefix(self):
        docs = [np.arange(10) + 5, np.arange(7) + 5, np.arange(5) + 5]
        stream = np.concatenate(docs)
        ds = pack_corpus(docs, 8)
        assert np.array_equal(ds.slices.reshape(-1), stream[:16])

    def test_exact_fit(self):
        ds = pack_corpus([np.arange(8) + 5], 8)
        assert len(ds) == 1

    def test_everything_dropped(self):
        assert len(pack_corpus([np.arange(7) + 5], 8)) == 0

    def test_empty_corpus(self):
        assert len(pack_corpus([], 8)) == 0

    def test_min_length_enforced(self):
        with pytest.raises(ConfigError):
            pack_corpus([np.arange(8)], 1)


class TestMaskingPolicy:
    def test_defaults(self):
        p = MaskingPolicy()
        assert p.mask_prob == 0.15
        assert p.mask_token_frac + p.random_frac + p.keep_frac == 1.0

    def test_zero_prob_allowed(self):
        MaskingPolicy(mask_prob=0.0)

    def test_prob_one_rejected(self):
        with pytest.raises(ConfigError):
            MaskingPolicy(mask_prob=1.0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            MaskingPolicy(mask_token_frac=0.8, random_frac=0.3, keep_frac=0.1)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigError):
            MaskingPolicy(mask_token_frac=1.2, random_frac=-0.3, keep_frac=0.1)


class TestApplyMlmMask:
    def test_zero_prob_is_identity(self):
        ids = TOK.encode("some text here")
        inputs, labels = apply_mlm_mask(ids, MaskingPolicy(mask_prob=0.0), SplitRng(0))
        assert np.array_equal(inputs, ids)
        assert (labels == -1).all()

    def test_selection_rate_monte_carlo(self):
        """Empirical rate over 1e6 positions within 3 sigma of 0.15."""
        ids = np.full(1_000_000, 50, dtype=np.int64)
        _, labels = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(123))
        rate = float((labels != -1).mean())
        assert 0.148 <= rate <= 0.152

    def test_deterministic(self):
        ids = TOK.encode("determinism check text " * 20)
        a = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(7))
        b = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(7))
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_labels_only_at_selected_positions(self):
        ids = TOK.encode("x" * 400)
        inputs, labels = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(3))
        untouched = labels == -1
        assert np.array_equal(inputs[untouched], ids[untouched])
        assert np.array_equal(labels[~untouched], ids[~untouched])

    def test_specials_never_selected(self):
        ids = np.array([TOK.pad_id, TOK.bos_id, TOK.eos_id, TOK.mask_id, TOK.unk_id] * 200)
        inputs, labels = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(5))
        assert (labels == -1).all()
        assert np.array_equal(inputs, ids)

    def test_branch_composition(self):
        ids = np.full(200_000, 60, dtype=np.int64)
        inputs, labels = apply_mlm_mask(ids, MaskingPolicy(), SplitRng(11))
        selected = labels != -1
        n_sel = selected.sum()
        masked = (inputs == TOK.mask_id) & selected
        kept = (inputs == ids) & selected
        randomized = selected & ~masked & ~kept
        assert abs(masked.sum() / n_sel - 0.8) < 0.02
        assert abs(kept.sum() / n_sel - 0.1) < 0.02
        assert abs(randomized.sum() / n_sel - 0.1) < 0.02
        corrupted = inputs[randomized]
        assert (corrupted >= TOK.n_specials).all() and (corrupted < TOK.vocab_size).all()


class TestLrSchedule:
    def test_warmup_endpoints(self):
        opt = AdamW(base_lr=5e-5, warmup_steps=500)
        assert lr_at(0, opt) == 0.0
        assert lr_at(250, opt) == pytest.approx(2.5e-5)
        assert lr_at(10_000, opt) == 5e-5

    def test_no_warmup(self):
        opt = AdamW(base_lr=1e-3, warmup_steps=0)
        assert lr_at(0, opt) == 1e-3


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        opt = AdamW(base_lr=1e-2, weight_decay=0.0, warmup_steps=0)
        opt.step([("w", p)])
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # Bias correction makes m_hat / sqrt(v_hat) = 1 for the first step, so
        # the parameter moves by almost exactly -lr.
        p = Parameter("w", np.array([0.5]))
        p.grad[...] = 1.0
        opt = AdamW(base_lr=1e-2, weight_decay=0.0, warmup_steps=0)
        opt.step([("w", p)])
        assert np.isclose(p.value[0], 0.5 - 1e-2, rtol=1e-6)

    def test_weight_decay_geometric(self):
        p = Parameter("w", np.array([2.0]))
        opt = AdamW(base_lr=0.1, weight_decay=0.01, warmup_steps=0)
        for _ in range(5):
            opt.step([("w", p)])
        assert np.isclose(p.value[0], 2.0 * (1 - 0.1 * 0.01) ** 5, rtol=1e-12)

    def test_zero_lr_is_identity(self):
        p = Parameter("w", np.array([1.0]))
        p.grad[...] = 3.0
        opt = AdamW(base_lr=0.0, warmup_steps=0)
        opt.step([("w", p)])
        assert p.value[0] == 1.0

    def test_nonfinite_grad_names_parameter(self):
        p = Parameter("layer0.ff.w1", np.ones(3))
        p.grad[...] = np.nan
        opt = AdamW(warmup_steps=0)
        with pytest.raises(TrainingError, match="layer0.ff.w1"):
            opt.step([("layer0.ff.w1", p)])

    def test_grads_cleared_after_step(self):
        p = Parameter("w", np.ones(3))
        p.grad[...] = 1.0
        opt = AdamW(base_lr=1e-3, warmup_steps=0)
        opt.step([("w", p)])
        assert not p.grad.any()


class TestBatchSchedule:
    def test_phase_boundary(self):
        sched = BatchSchedule([(100, 2), (None, 4)])
        assert sched.batch_at(99) == 2
        assert sched.batch_at(100) == 4

    def test_strictly_increasing_required(self):
        with pytest.raises(ConfigError):
            BatchSchedule([(100, 2), (100, 4), (None, 8)])

    def test_open_phase_must_be_last(self):
        with pytest.raises(ConfigError):
            BatchSchedule([(None, 2), (100, 4)])

    def test_positive_batch(self):
        with pytest.raises(ConfigError):
            BatchSchedule([(None, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            BatchSchedule([])


def micro_train(seed=0, steps=60, state=None, **kwargs):
    dataset = pack_corpus(repetitive_docs(), MICRO.max_positions)
    if state is None:
        state = init_encoder_state(MICRO, SplitRng(seed))
    defaults = dict(
        schedule=BatchSchedule([(None, 2)]),
        steps=steps,
        seed=seed,
        optimizer=AdamW(base_lr=1e-3, warmup_steps=5),
    )
    defaults.update(kwargs)
    return state, train_mlm(MICRO, state, dataset, **defaults)


class TestTrainMlm:
    def test_loss_decreases_on_repetitive_corpus(self):
        _, trace = micro_train(seed=1)
        first = np.mean([r.loss for r in trace[:10]])
        last = np.mean([r.loss for r in trace[-10:]])
        assert last < first

    def test_trace_is_deterministic(self):
        _, a = micro_train(seed=2)
        _, b = micro_train(seed=2)
        assert [(r.step, r.loss, r.batch_size, r.lr) for r in a] == \
               [(r.step, r.loss, r.batch_size, r.lr) for r in b]

    def test_final_state_deterministic(self):
        sa, _ = micro_train(seed=3, steps=10)
        sb, _ = micro_train(seed=3, steps=10)
        for (name, pa), (_, pb) in zip(sa.named_params(), sb.named_params()):
            assert pa.value.tobytes() == pb.value.tobytes(), name

    def test_schedule_switches_batch(self):
        _, trace = micro_train(seed=0, steps=6, schedule=BatchSchedule([(3, 2), (None, 4)]))
        assert [r.batch_size for r in trace] == [2, 2, 2, 4, 4, 4]

    def test_grad_accum_matches_larger_batch(self):
        # batch 1 x accum 2 consumes the same examples in the same order with
        # the same 1/total gradient scaling as batch 2 x accum 1.
        sa, ta = micro_train(seed=5, steps=8, schedule=BatchSchedule([(None, 2)]))
        sb, tb = micro_train(seed=5, steps=8, schedule=BatchSchedule([(None, 1)]),
                             grad_accum=2)
        assert [r.loss for r in ta] == [r.loss for r in tb]
        for (name, pa), (_, pb) in zip(sa.named_params(), sb.named_params()):
            assert pa.value.tobytes() == pb.value.tobytes(), name

    def test_empty_dataset_rejected(self):
        state = init_encoder_state(MICRO, SplitRng(0))
        with pytest.raises(TrainingError):
            train_mlm(MICRO, state, pack_corpus([], 32), BatchSchedule([(None, 2)]),
                      steps=1, seed=0)

    def test_lr_recorded(self):
        _, trace = micro_train(seed=0, steps=3,
                               optimizer=AdamW(base_lr=1e-3, warmup_steps=5))
        assert trace[0].lr == 0.0
        assert trace[2].lr == pytest.approx(1e-3 * 2 / 5)


class TestEpochSampler:
    def test_stream_is_the_seeded_permutations_in_order(self):
        n = 7
        sampler = _EpochSampler(n, SplitRng(4).split(0))
        # uneven takes that cross epoch boundaries, 3 epochs in all
        stream = [i for count in (3, 5, 2, 1, 10) for i in sampler.take(count)]
        rng = SplitRng(4).split(0)
        expected = np.concatenate([rng.permutation(n) for _ in range(3)])
        assert stream == expected.tolist()
        assert sampler.epochs_started == 3


class TestEarlyStopper:
    def test_monotone_rise_stops_after_patience(self):
        stopper = EarlyStopper(patience=3)
        decisions = [stopper.update(loss) for loss in (1.0, 1.1, 1.2, 1.3)]
        assert decisions == [False, False, False, True]

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(patience=3)
        decisions = [stopper.update(v) for v in (1.0, 1.1, 0.9, 1.0, 1.1, 1.2)]
        assert decisions == [False, False, False, False, False, True]

    def test_positive_patience_required(self):
        with pytest.raises(ConfigError):
            EarlyStopper(0)


ENC = EncoderConfig(n_layers=1, d_model=8, d_ff=16, vocab_size=261, max_positions=16,
                    mixing=MixingKind.HARTLEY)
DEC = DecoderConfig(n_layers=1, d_model=8, d_ff=16, n_heads=2, vocab_size=261,
                    max_positions=16)


def copy_pairs(n=4, length=5, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        ids = rng.integers(TOK.n_specials, TOK.vocab_size, size=length)
        pairs.append((ids, np.concatenate((ids, [TOK.eos_id]))))
    return pairs


class TestTrainSeq2seq:
    def test_deterministic(self):
        pairs = copy_pairs()
        a = train_seq2seq(init_seq2seq_state(ENC, DEC, SplitRng(1)), pairs, steps=6,
                          seed=9, optimizer=AdamW(base_lr=1e-3, warmup_steps=0),
                          batch_size=2)
        b = train_seq2seq(init_seq2seq_state(ENC, DEC, SplitRng(1)), pairs, steps=6,
                          seed=9, optimizer=AdamW(base_lr=1e-3, warmup_steps=0),
                          batch_size=2)
        assert [r.loss for r in a] == [r.loss for r in b]

    def test_empty_pairs_rejected(self):
        with pytest.raises(TrainingError):
            train_seq2seq(init_seq2seq_state(ENC, DEC, SplitRng(0)), [], steps=1, seed=0)

    def test_loss_decreases(self):
        state = init_seq2seq_state(ENC, DEC, SplitRng(2))
        trace = train_seq2seq(state, copy_pairs(), steps=50, seed=3,
                              optimizer=AdamW(base_lr=3e-3, warmup_steps=5),
                              batch_size=4)
        assert np.mean([r.loss for r in trace[-5:]]) < np.mean([r.loss for r in trace[:5]])

    def test_frozen_decoder_still_learns_through_seam(self):
        """With every decoder weight pinned, only the cross-attention path into
        the encoder can reduce the loss."""
        state = init_seq2seq_state(ENC, DEC, SplitRng(4))
        before = {name: p.value.copy() for name, p in state.named_params()}
        trace = train_seq2seq(state, copy_pairs(), steps=60, seed=5,
                              optimizer=AdamW(base_lr=3e-3, warmup_steps=5),
                              batch_size=4, freeze_prefixes=("decoder.",))
        for name, p in state.named_params():
            if name.startswith("decoder."):
                assert np.array_equal(p.value, before[name]), name
        assert any(not np.array_equal(p.value, before[name])
                   for name, p in state.named_params() if name.startswith("encoder."))
        assert np.mean([r.loss for r in trace[-5:]]) < np.mean([r.loss for r in trace[:5]])

    def test_early_stopping_on_flat_validation(self):
        # Freezing everything pins the validation loss, so the best never
        # improves after epoch 1 and patience 2 stops the run at epoch 3.
        pairs = copy_pairs(n=4)
        state = init_seq2seq_state(ENC, DEC, SplitRng(6))
        trace = train_seq2seq(state, pairs, steps=100, seed=7,
                              optimizer=AdamW(base_lr=1e-3, warmup_steps=0),
                              batch_size=2, val_pairs=pairs[:2], patience=2,
                              freeze_prefixes=("encoder.", "decoder."))
        assert len(trace) == 6  # 2 steps per epoch x 3 epochs


class TestLoaders:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "abc"}\n\n{"text": "déf"}\n', encoding="utf-8")
        docs = load_corpus_jsonl(path)
        assert TOK.decode(docs[0]) == "abc"
        assert TOK.decode(docs[1]) == "déf"

    def test_corpus_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"body": "abc"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="text"):
            load_corpus_jsonl(path)

    def test_read_jsonl_names_the_bad_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"hyp": "a", "ref": "b", "x": 1}\n\n', encoding="utf-8")
        assert read_jsonl(path, ("hyp", "ref")) == [("a", "b")]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"hyp": 5, "ref": "b"}\n')
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: field 'hyp' must be a string")):
            read_jsonl(path, ("hyp", "ref"))

    def test_pairs_append_eos(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"source": "ab", "target": "cd"}\n', encoding="utf-8")
        (src, tgt), = load_pairs_jsonl(path)
        assert TOK.decode(src) == "ab"
        assert tgt[-1] == TOK.eos_id
        assert TOK.decode(tgt) == "cd"

    def test_pairs_no_eos_option(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"source": "ab", "target": "cd"}\n', encoding="utf-8")
        (_, tgt), = load_pairs_jsonl(path, append_eos=False)
        assert tgt[-1] != TOK.eos_id

    def test_pairs_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": "ab"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="target"):
            load_pairs_jsonl(path)
