"""Encoder state layout, parameter counts, forward semantics, and full-model grads."""

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fdcheck import check_grad
from specmix import encoder, nn, training
from specmix.encoder import (
    ROW_BLOCK,
    EncoderConfig,
    base_encoder_config,
    count_params,
    encoder_config_to_dict,
    encoder_forward,
    init_encoder_state,
    mix_tokens,
    mlm_logits,
    mlm_loss,
    param_shapes,
    swap_mixing,
)
from specmix.errors import CheckpointError, ConfigError, ShapeError, build_config
from specmix.nn import Node, Tape
from specmix.rng import SplitRng
from specmix.spectral import MixingKind, dft_naive
from specmix.training import BatchSchedule, MaskingPolicy, apply_mlm_mask, train_mlm

LINEAR_KINDS = [MixingKind.FOURIER_REAL, MixingKind.HARTLEY, MixingKind.FOURIER_IMAG]

TINY = EncoderConfig(
    n_layers=2, d_model=8, d_ff=16, vocab_size=11, max_positions=8,
    mixing=MixingKind.HARTLEY,
)


def tiny_cfg(**overrides):
    fields = encoder_config_to_dict(TINY)
    fields["mixing"] = TINY.mixing
    fields.update(overrides)
    return EncoderConfig(**fields)


class TestEncoderConfig:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ConfigError):
            tiny_cfg(n_layers=0)

    def test_label_is_stored_as_its_member(self):
        assert tiny_cfg(mixing="hartley").mixing is MixingKind.HARTLEY

    def test_unknown_label_lists_the_kinds(self):
        with pytest.raises(ConfigError, match="'hartly' is not one of: fourier-real, hartley"):
            tiny_cfg(mixing="hartly")

    def test_round_trips_through_dict(self):
        cfg = tiny_cfg(mixing=MixingKind.PHASE)
        data = json.loads(json.dumps(encoder_config_to_dict(cfg)))
        assert data["mixing"] == "phase"
        assert build_config(EncoderConfig, data, "encoder") == cfg

    def test_base_values(self):
        cfg = base_encoder_config()
        assert (cfg.n_layers, cfg.d_model, cfg.d_ff) == (12, 768, 3072)
        assert (cfg.vocab_size, cfg.max_positions) == (32000, 4096)


class TestCountParams:
    """Counts are pure arithmetic over the declared shape set."""

    def test_word_embedding_block(self):
        shapes = param_shapes(base_encoder_config())
        assert int(np.prod(shapes["embeddings.word"])) == 24_576_000

    def test_base_count_near_published_size(self):
        n = count_params(base_encoder_config(max_positions=4096))
        assert abs(n - 85_600_000) / 85_600_000 <= 0.02
        assert n == 85_645_568

    def test_position_extension_delta_is_exact(self):
        hi = count_params(base_encoder_config(max_positions=8192))
        lo = count_params(base_encoder_config(max_positions=4096))
        assert hi - lo == 4096 * 768 == 3_145_728

    def test_count_matches_allocated_state(self):
        state = init_encoder_state(TINY, SplitRng(0))
        total = sum(p.value.size for _, p in state.named_params())
        assert total == count_params(TINY)

    def test_shape_set_invariant_across_kinds(self):
        # Mixing contributes zero parameters, so layout ignores the kind.
        base = param_shapes(tiny_cfg(mixing=MixingKind.FOURIER_REAL))
        for kind in MixingKind:
            assert param_shapes(tiny_cfg(mixing=kind)) == base
            assert count_params(tiny_cfg(mixing=kind)) == count_params(TINY)

    def test_head_inclusion_flag(self):
        with_head = count_params(TINY, with_mlm_head=True)
        without = count_params(TINY, with_mlm_head=False)
        d, v = TINY.d_model, TINY.vocab_size
        assert with_head - without == d * d + d + 2 * d + v


class TestInitEncoderState:
    def test_deterministic(self):
        a = init_encoder_state(TINY, SplitRng(7))
        b = init_encoder_state(TINY, SplitRng(7))
        for (name, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(pa.value, pb.value), name

    def test_scales_and_shifts(self):
        state = init_encoder_state(TINY, SplitRng(0))
        assert np.array_equal(state["embeddings.ln.gamma"].value, np.ones(8))
        assert not state["layer0.ff.b1"].value.any()
        assert not state["mlm.bias"].value.any()
        assert state["embeddings.word"].value.std() < 0.05

    def test_head_optional(self):
        state = init_encoder_state(TINY, SplitRng(0), with_mlm_head=False)
        assert not state.has_mlm_head
        assert "mlm.dense.w" not in state.params
        with pytest.raises(CheckpointError):
            mlm_logits(TINY, state, Node(np.zeros((2, 8))), None)


class TestEncoderForward:
    def test_degenerate_single_position(self):
        """1 layer, d_model=2: sequence transform is size 1, block is pure algebra."""
        cfg = EncoderConfig(n_layers=1, d_model=2, d_ff=2, vocab_size=5,
                            max_positions=4, mixing=MixingKind.FOURIER_REAL)
        state = init_encoder_state(cfg, SplitRng(3))
        out = encoder_forward(cfg, state, [1])
        again = encoder_forward(cfg, state, [1])
        assert out.value.shape == (1, 2)
        assert np.all(np.isfinite(out.value))
        assert np.array_equal(out.value, again.value)

    @pytest.mark.parametrize("kind", [MixingKind.FOURIER_REAL, MixingKind.HARTLEY])
    def test_single_position_mixing_reduces_to_hidden_axis(self, kind):
        # L=1: the length-1 sequence transform is the identity, so mixing
        # equals the hidden-axis transform alone.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 6))
        spec = dft_naive(x[0])
        expected = spec.real if kind is MixingKind.FOURIER_REAL else spec.real - spec.imag
        got = mix_tokens(Node(x), kind, None).value
        assert np.allclose(got[0], expected, atol=1e-12)

    def test_length_overflow_names_both_numbers(self):
        state = init_encoder_state(TINY, SplitRng(0))
        with pytest.raises(ShapeError, match="9.*8"):
            encoder_forward(TINY, state, np.zeros(9, dtype=int))

    def test_rejects_batched_ids(self):
        state = init_encoder_state(TINY, SplitRng(0))
        with pytest.raises(ShapeError, match=r"\[L\] or \[B, L\]"):
            encoder_forward(TINY, state, np.zeros((2, 2, 4), dtype=int))

    def test_kind_changes_activations_not_layout(self):
        state = init_encoder_state(TINY, SplitRng(1))
        ids = [1, 4, 2, 9]
        real = encoder_forward(tiny_cfg(mixing=MixingKind.FOURIER_REAL), state, ids)
        hart = encoder_forward(tiny_cfg(mixing=MixingKind.HARTLEY), state, ids)
        assert not np.array_equal(real.value, hart.value)
        assert param_shapes(tiny_cfg(mixing=MixingKind.FOURIER_REAL)) == param_shapes(
            tiny_cfg(mixing=MixingKind.HARTLEY)
        )

    def test_deterministic(self):
        state = init_encoder_state(TINY, SplitRng(2))
        ids = [3, 1, 4, 1, 5]
        a = encoder_forward(TINY, state, ids)
        b = encoder_forward(TINY, state, ids)
        assert np.array_equal(a.value, b.value)


class TestRowBlockedForward:
    """Without a tape the row-wise sub-layers run ROW_BLOCK rows at a time; with one, all at once."""

    LENGTHS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]

    @staticmethod
    def model(kind, d_ff=32, max_positions=2 * ROW_BLOCK + 3):
        cfg = EncoderConfig(n_layers=2, d_model=16, d_ff=d_ff, vocab_size=50,
                            max_positions=max_positions, mixing=kind)
        return cfg, init_encoder_state(cfg, SplitRng(4), with_mlm_head=False)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("kind", list(MixingKind))
    def test_matches_the_taped_forward(self, kind, length):
        cfg, state = self.model(kind)
        ids = np.random.default_rng(length).integers(0, 50, size=length)
        free = encoder_forward(cfg, state, ids).value
        taped = encoder_forward(cfg, state, ids, tape=Tape()).value
        assert free.shape == (length, 16)
        np.testing.assert_allclose(free, taped, rtol=0.0, atol=1e-12)

    def test_feed_forward_sees_one_block_at_a_time(self, monkeypatch):
        rows = []
        original = nn.linear

        def linear(x, w, b, tape):
            rows.append(x.value.shape[0])
            return original(x, w, b, tape)

        monkeypatch.setattr(encoder.nn, "linear", linear)
        cfg, state = self.model(MixingKind.HARTLEY)
        ids = np.zeros(2 * ROW_BLOCK + 3, dtype=np.int64)
        encoder_forward(cfg, state, ids)
        assert rows == [ROW_BLOCK] * 4 + [3] * 2 + [ROW_BLOCK] * 4 + [3] * 2
        rows.clear()
        encoder_forward(cfg, state, ids, tape=Tape())
        assert rows == [2 * ROW_BLOCK + 3] * 4

    def test_peak_memory_barely_grows_with_d_ff(self):
        """Quadrupling d_ff adds at most a tenth to a tape-free forward's traced peak.

        At L=2048, d_model 32 the unblocked forward grew 6.1 -> 9.0 MiB; the
        blocked one stays at 2.0 MiB, four [L, d_model] float64 arrays: the
        mixing step's input, complex spectrum and output.
        """
        length = 2048
        ids = np.random.default_rng(0).integers(0, 50, size=length)
        peaks = []
        for d_ff in (32, 128):
            cfg = EncoderConfig(n_layers=2, d_model=32, d_ff=d_ff, vocab_size=50,
                                max_positions=length, mixing=MixingKind.HARTLEY)
            state = init_encoder_state(cfg, SplitRng(0), with_mlm_head=False)
            encoder_forward(cfg, state, ids[:8])  # transform set-up outside the trace
            tracemalloc.start()
            try:
                encoder_forward(cfg, state, ids)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks
        assert max(peaks) <= 5 * length * 32 * 8, peaks

    @pytest.mark.parametrize("shape, digest", [
        ((1021,), "0b8285ce1888ddb79b6a7ed559adb6c04e5c9ded404554880e16660ae732131d"),
        ((2, 509), "4081b0f6451b59b05d710e6df54dd332c17cfbf0a4903eb25e569c1589e06678"),
    ])
    def test_bytes_at_the_long_document_widths(self, shape, digest):
        """The tape-free forward at the longdoc_encode benchmark's widths is pinned to its bytes.

        Both inputs span eight ROW_BLOCKs, the last one partial; the second is
        a batch of two slices of prime length.
        """
        cfg = EncoderConfig(n_layers=2, d_model=96, d_ff=384, vocab_size=261,
                            max_positions=2048, mixing=MixingKind.HARTLEY)
        state = init_encoder_state(cfg, SplitRng(7), with_mlm_head=False)
        ids = np.random.default_rng(1021).integers(5, cfg.vocab_size, size=shape)
        out = encoder_forward(cfg, state, ids).value
        assert out.shape == (1021 if len(shape) == 1 else 1018, 96)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


class TestTapedForwardMemory:
    def test_tape_holds_only_what_backward_reads(self):
        """A taped forward at summarize size holds the arrays its backward reads, and no more.

        Each block keeps two [L, d_ff] arrays (gelu's derivative and the
        second linear's input) and three [L, d_model] ones (both norms'
        normalized inputs and the first linear's input). Outside the blocks
        sit the embedding norm's normalized input and the output, and the
        small arrays: one [L, 1] inverse deviation per norm and the position
        and type ids. The bound counts these, plus 64 KiB for the tape's own
        objects. When closures held nodes, this forward held 23.6 MiB; now
        12.1 MiB.
        """
        n_layers, length, d_model, d_ff = 2, 1024, 64, 256
        cfg = EncoderConfig(n_layers=n_layers, d_model=d_model, d_ff=d_ff, vocab_size=50,
                            max_positions=length, mixing=MixingKind.HARTLEY)
        state = init_encoder_state(cfg, SplitRng(0), with_mlm_head=False)
        ids = np.random.default_rng(0).integers(0, 50, size=length)
        encoder_forward(cfg, state, ids)  # transform set-up outside the trace
        tracemalloc.start()
        try:
            tape = Tape()
            hidden = encoder_forward(cfg, state, ids, tape=tape)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        blocks = n_layers * (2 * length * d_ff + 3 * length * d_model) * 8
        small = (2 * n_layers + 1 + 2) * length * 8
        assert held <= blocks + 2 * length * d_model * 8 + small + 64 * 1024, held
        tape.backward(hidden)
        assert state["layer0.ff.w1"].grad.any()


class TestEncoderGradients:
    """Full-model check: loss through the prediction head, FD over every parameter."""

    @pytest.mark.parametrize("kind", LINEAR_KINDS)
    def test_every_parameter_matches_fd(self, kind):
        cfg = tiny_cfg(mixing=kind)
        state = init_encoder_state(cfg, SplitRng(11))
        ids = np.array([1, 4, 2, 9])
        labels = np.array([5, -1, 0, -1])

        def run(tape):
            hidden = encoder_forward(cfg, state, ids, tape=tape)
            logits = mlm_logits(cfg, state, hidden, tape)
            return nn.masked_cross_entropy(logits, labels, tape)

        tape = Tape()
        loss = run(tape)
        tape.backward(loss)

        def f():
            return float(run(None).value)

        for name, p in state.named_params():
            check_grad(f, p.value, p.grad, 1e-4, zero_floor=1e-8)


class TestRowsForward:
    """encoder_forward(rows=r) runs the last block's tail on rows r: the full output's rows r."""

    LENGTHS = [1, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3]

    @staticmethod
    def model(kind):
        cfg = EncoderConfig(n_layers=2, d_model=16, d_ff=32, vocab_size=50,
                            max_positions=2 * ROW_BLOCK + 3, mixing=kind)
        return cfg, init_encoder_state(cfg, SplitRng(4))

    @staticmethod
    def pick(length):
        """Ids, and up to a third of the positions unsorted with the first repeated at the end."""
        rng = np.random.default_rng(length)
        rows = rng.permutation(length)[:max(1, length // 3)]
        return rng.integers(0, 50, size=length), np.append(rows, rows[0])

    @staticmethod
    def assert_close(a, ref, what):
        # BLAS sums over other row blocks, so only rounding may differ
        assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref), what

    @pytest.mark.parametrize("taped", [False, True], ids=["free", "taped"])
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("kind", list(MixingKind))
    def test_matches_the_full_output_rows(self, kind, length, taped):
        cfg, state = self.model(kind)
        ids, rows = self.pick(length)
        out = encoder_forward(cfg, state, ids, tape=Tape() if taped else None, rows=rows).value
        full = encoder_forward(cfg, state, ids, tape=Tape() if taped else None).value
        assert out.shape == (len(rows), 16)
        self.assert_close(out, full[rows], "output")

    @pytest.mark.parametrize("taped", [False, True], ids=["free", "taped"])
    def test_no_rows_is_an_empty_output(self, taped):
        cfg, state = self.model(MixingKind.HARTLEY)
        out = encoder_forward(cfg, state, np.arange(5), tape=Tape() if taped else None,
                              rows=np.zeros(0, dtype=np.int64))
        assert out.value.shape == (0, 16)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("kind", LINEAR_KINDS + [MixingKind.MODULUS])
    def test_gradients_through_the_head_match(self, kind, length):
        """Phase gradients are too ill-conditioned to compare here; TestMlmLoss covers it."""
        cfg, state = self.model(kind)
        ids, rows = self.pick(length)
        labels = np.random.default_rng(0).integers(0, 50, size=len(rows))

        def grads(hidden_on):
            state.zero_grad()
            tape = Tape()
            loss = nn.masked_cross_entropy(mlm_logits(cfg, state, hidden_on(tape), tape),
                                           labels, tape)
            tape.backward(loss)
            return {name: p.grad.copy() for name, p in state.named_params()}

        got = grads(lambda t: encoder_forward(cfg, state, ids, tape=t, rows=rows))
        ref = grads(lambda t: nn.embedding_lookup(rows, encoder_forward(cfg, state, ids, tape=t),
                                                  t))
        for name, g in ref.items():
            self.assert_close(got[name], g, name)

    def test_train_mlm_runs_the_last_tail_on_labeled_rows(self, monkeypatch):
        """Earlier blocks' feed-forward sees all rows of a step's shared tape; the last block's
        and the head's see only the labeled rows."""
        cfg = EncoderConfig(n_layers=3, d_model=8, d_ff=16, vocab_size=261, max_positions=32,
                            mixing=MixingKind.HARTLEY)
        state = init_encoder_state(cfg, SplitRng(0))
        dataset = np.random.default_rng(0).integers(5, 261, size=(4, 32))
        seen, labeled = [], []
        linear, mask = nn.linear, training.apply_mlm_mask

        def spy_linear(x, w, b, tape):
            seen.append((w.name, x.value.shape[0]))
            return linear(x, w, b, tape)

        def spy_mask(*args, **kwargs):
            inputs, labels = mask(*args, **kwargs)
            labeled.append(int((labels != nn.IGNORE_LABEL).sum()))
            return inputs, labels

        monkeypatch.setattr(encoder.nn, "linear", spy_linear)
        monkeypatch.setattr(training, "apply_mlm_mask", spy_mask)
        train_mlm(cfg, state, dataset, BatchSchedule([(None, 2)]), 2, seed=3)
        assert len(labeled) == 4 and 0 < min(labeled)
        expected = []
        for n in (labeled[0] + labeled[1], labeled[2] + labeled[3]):  # one tape per step
            for name, rows in (("layer0", 64), ("layer1", 64), ("layer2", n)):
                expected += [(f"{name}.ff.w1", rows), (f"{name}.ff.w2", rows)]
            expected.append(("mlm.dense.w", n))
        assert seen == expected


class TestMlmLoss:
    """The labeled-rows loss against the full forward and the all-rows head it replaced."""

    IDS = np.array([1, 4, 2, 9, 7, 3, 10, 5])

    @staticmethod
    def loss_and_grads(state, loss_on):
        state.zero_grad()
        tape = Tape()
        loss = loss_on(tape)
        tape.backward(loss)
        return float(loss.value), {name: p.grad.copy() for name, p in state.named_params()}

    @pytest.mark.parametrize("labels", [[5, -1, 0, -1, -1, 9, -1, 3], [-1] * 8],
                             ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("kind", list(MixingKind))
    def test_matches_the_all_rows_head(self, kind, labels):
        cfg = tiny_cfg(mixing=kind)
        state = init_encoder_state(cfg, SplitRng(11))
        labels = np.array(labels)
        loss, grads = self.loss_and_grads(
            state, lambda t: mlm_loss(cfg, state, self.IDS, labels, t))
        ref_loss, ref_grads = self.loss_and_grads(
            state, lambda t: nn.masked_cross_entropy(
                mlm_logits(cfg, state, encoder_forward(cfg, state, self.IDS, tape=t), t),
                labels, t))
        assert loss == ref_loss
        for name, ref in ref_grads.items():
            # BLAS sums over fewer rows, so only rounding may differ
            assert np.linalg.norm(grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name

    def test_no_labeled_rows_is_exactly_zero_with_zero_grads(self):
        state = init_encoder_state(TINY, SplitRng(3))
        inputs, labels = apply_mlm_mask(self.IDS[self.IDS >= 5], MaskingPolicy(mask_prob=0.0),
                                        SplitRng(0).split(0), vocab_size=TINY.vocab_size)
        tape = Tape()
        loss = mlm_loss(TINY, state, inputs, labels, tape)
        tape.backward(loss)
        assert loss.value == 0.0
        assert not any(p.grad.any() for _, p in state.named_params())

    def test_labels_shape_mismatch(self):
        state = init_encoder_state(TINY, SplitRng(0))
        with pytest.raises(ShapeError, match="labels shape"):
            mlm_loss(TINY, state, [1, 2, 3, 4], [0, 1, 2], None)


class TestBatchedForward:
    """A [B, L] batch of slices against the B per-example forwards and tapes it replaces."""

    B = 3

    @staticmethod
    def model(kind, length):
        cfg = EncoderConfig(n_layers=2, d_model=16, d_ff=32, vocab_size=50,
                            max_positions=length, mixing=kind)
        return cfg, init_encoder_state(cfg, SplitRng(4))

    @classmethod
    def batch(cls, length):
        """Ids [B, L] and each slice's labels: every third position, from a per-slice offset."""
        rng = np.random.default_rng(length)
        ids = rng.integers(0, 50, size=(cls.B, length))
        labels = np.full(ids.shape, nn.IGNORE_LABEL)
        for b in range(cls.B):
            labels[b, b::3] = rng.integers(0, 50, size=len(labels[b, b::3]))
        return ids, labels

    @pytest.mark.parametrize("taped", [False, True], ids=["free", "taped"])
    @pytest.mark.parametrize("length", [ROW_BLOCK - 1, ROW_BLOCK + 3])
    @pytest.mark.parametrize("kind", list(MixingKind))
    def test_matches_the_per_example_forwards(self, kind, length, taped):
        """Bit for bit, with and without rows; tape-free row blocks cross slice boundaries.

        (At L = ROW_BLOCK + 1 a lone slice's tape-free forward ends in a one-row block, which
        BLAS rounds differently from a row of a larger one.)
        """
        cfg, state = self.model(kind, length)
        ids, labels = self.batch(length)

        def forward(token_ids, rows=None):
            return encoder_forward(cfg, state, token_ids, tape=Tape() if taped else None,
                                   rows=rows).value

        got = forward(ids)
        assert got.shape == (self.B * length, 16)
        assert np.array_equal(got, np.concatenate([forward(row) for row in ids]))
        got = forward(ids, np.flatnonzero(labels != nn.IGNORE_LABEL))
        ref = [forward(ids[b], np.flatnonzero(labels[b] != nn.IGNORE_LABEL))
               for b in range(self.B)]
        assert np.array_equal(got, np.concatenate(ref))

    @pytest.mark.parametrize("kind", LINEAR_KINDS + [MixingKind.MODULUS])
    def test_mlm_loss_matches_the_per_example_tapes(self, kind):
        """Loss and every parameter gradient of one [B, L] tape against B tapes' sums.

        Phase gradients are too ill-conditioned to compare here; the 8-token test below covers
        it.
        """
        cfg, state = self.model(kind, ROW_BLOCK + 3)
        ids, labels = self.batch(ROW_BLOCK + 3)
        self.assert_matches(cfg, state, ids, labels)

    @pytest.mark.parametrize("kind", list(MixingKind))
    def test_mlm_loss_at_eight_tokens_with_an_unlabeled_slice(self, kind):
        """The unlabeled slice adds exactly 0 to the loss and nothing to any gradient."""
        cfg = tiny_cfg(mixing=kind)
        state = init_encoder_state(cfg, SplitRng(11))
        ids = np.stack([TestMlmLoss.IDS, TestMlmLoss.IDS[::-1]])
        labels = np.array([[5, -1, 0, -1, -1, 9, -1, 3], [-1] * 8])
        self.assert_matches(cfg, state, ids, labels)

    @staticmethod
    def assert_matches(cfg, state, ids, labels):
        loss, grads = TestMlmLoss.loss_and_grads(
            state, lambda t: mlm_loss(cfg, state, ids, labels, t))
        state.zero_grad()
        ref_loss = 0.0
        for row, row_labels in zip(ids, labels):
            tape = Tape()
            one = mlm_loss(cfg, state, row, row_labels, tape)
            tape.backward(one)
            ref_loss += float(one.value)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, p in state.named_params():
            # BLAS sums a parameter gradient over all B slices' rows at once
            assert np.linalg.norm(grads[name] - p.grad) <= 1e-12 * np.linalg.norm(p.grad), name

    def test_labels_must_match_the_batch(self):
        state = init_encoder_state(TINY, SplitRng(0))
        with pytest.raises(ShapeError, match="labels shape"):
            mlm_loss(TINY, state, np.zeros((2, 4), dtype=int), np.zeros(8, dtype=int), None)


class TestSwapMixing:
    def make_checkpoint(self, kind=MixingKind.FOURIER_REAL, seed=0):
        cfg = tiny_cfg(mixing=kind)
        state = init_encoder_state(cfg, SplitRng(seed))
        arrays = {name: p.value.copy() for name, p in state.named_params()}
        return cfg, state, SimpleNamespace(
            config=encoder_config_to_dict(cfg), arrays=arrays
        )

    def test_swap_preserves_parameter_bytes(self):
        cfg, state, ckpt = self.make_checkpoint(MixingKind.FOURIER_REAL)
        new_cfg, new_state = swap_mixing(ckpt, MixingKind.FOURIER_IMAG)
        assert new_cfg.mixing is MixingKind.FOURIER_IMAG
        for name, p in state.named_params():
            assert new_state[name].value.tobytes() == p.value.tobytes(), name

    def test_swap_changes_forward_output(self):
        cfg, state, ckpt = self.make_checkpoint(MixingKind.FOURIER_REAL)
        new_cfg, new_state = swap_mixing(ckpt, MixingKind.FOURIER_IMAG)
        ids = [1, 2, 3, 4]
        before = encoder_forward(cfg, state, ids)
        after = encoder_forward(new_cfg, new_state, ids)
        assert not np.array_equal(before.value, after.value)

    def test_identity_swap_is_noop(self):
        cfg, state, ckpt = self.make_checkpoint(MixingKind.HARTLEY)
        new_cfg, new_state = swap_mixing(ckpt, MixingKind.HARTLEY)
        ids = [1, 2, 3, 4]
        assert np.array_equal(
            encoder_forward(cfg, state, ids).value,
            encoder_forward(new_cfg, new_state, ids).value,
        )

    def test_missing_parameter_listed(self):
        _, _, ckpt = self.make_checkpoint()
        del ckpt.arrays["layer1.ff.w2"]
        with pytest.raises(CheckpointError, match="layer1.ff.w2"):
            swap_mixing(ckpt, MixingKind.HARTLEY)

    def test_extra_parameter_listed(self):
        _, _, ckpt = self.make_checkpoint()
        ckpt.arrays["stray"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="stray"):
            swap_mixing(ckpt, MixingKind.HARTLEY)

    def test_wrong_shape_rejected(self):
        _, _, ckpt = self.make_checkpoint()
        ckpt.arrays["pooler.b"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="pooler.b"):
            swap_mixing(ckpt, MixingKind.HARTLEY)
