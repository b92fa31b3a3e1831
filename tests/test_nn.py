"""Dense op forward values (hand-derived) and VJPs against finite differences."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf

from fdcheck import check_grad
from specmix import nn
from specmix.encoder import mix_tokens
from specmix.errors import ShapeError
from specmix.nn import Node, Parameter, Tape
from specmix.seq2seq import _attention_shapes, _attention_sublayer, _proj
from specmix.spectral import MixingKind


def scalar_loss(out_value, proj):
    return float((out_value * proj).sum())


class TestTapeAndNodes:
    """Recording, accumulation, and the inference path."""

    def test_backward_through_add(self):
        a = Node([1.0, 2.0])
        b = Node([3.0, 4.0])
        tape = Tape()
        out = nn.add(a, b, tape)
        tape.backward(out, seed=np.array([5.0, 7.0]))
        assert np.array_equal(a.grad, [5.0, 7.0])
        assert np.array_equal(b.grad, [5.0, 7.0])

    def test_first_cotangent_is_owned_not_aliased(self):
        # add hands one cotangent (here the read-only seed view) to both of
        # its inputs; each node must own a copy before the second one adds in.
        x = Node([1.0, 2.0])
        seed = np.array([5.0, 7.0])
        tape = Tape()
        out = nn.add(x, x, tape)
        tape.backward(out, seed=seed)
        assert np.array_equal(x.grad, [10.0, 14.0])
        assert np.array_equal(out.grad, [5.0, 7.0])
        assert np.array_equal(seed, [5.0, 7.0])

    def test_owned_cotangent_is_handed_over_and_others_copied(self):
        # add keeps the first g it is given; nn.add, which hands its output's
        # cotangent to two inputs, gives each its own copy.
        cot, fresh = nn.Cotangent(), np.array([1.0, 2.0])
        cot.add(fresh)
        assert cot.grad is fresh
        a, b = Node([1.0, 2.0]), Node([3.0, 4.0])
        tape = Tape()
        out = nn.add(a, b, tape)
        tape.backward(out)
        for x, y in ((a.grad, b.grad), (a.grad, out.grad), (b.grad, out.grad)):
            assert not np.shares_memory(x, y)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.add(Node([1.0]), Node([1.0, 2.0]), None)

    def test_no_tape_records_nothing(self):
        a = Node([1.0, 2.0])
        out = nn.add(a, Node([0.0, 0.0]), None)
        assert out.grad is None and a.grad is None

    def test_parameter_grad_persists_across_backwards(self):
        # Two independent tapes accumulate into the same buffer until cleared.
        p = Parameter("w", np.eye(2))
        for _ in range(2):
            tape = Tape()
            out = nn.linear(Node([1.0, 1.0]), p, Parameter("b", np.zeros(2)), tape)
            tape.backward(out, seed=np.ones(2))
        assert np.array_equal(p.grad, 2.0 * np.ones((2, 2)))
        p.zero_grad()
        assert not p.grad.any()

    def test_op_reached_by_no_cotangent_is_skipped(self):
        # Both ops read x, but only the first feeds the output. The second's
        # backward must not run: its plain-Node weight never allocates a
        # gradient buffer, and its Parameter bias keeps a zero gradient.
        rng = np.random.default_rng(0)
        x = Node(rng.normal(size=(3, 4)))
        w1, b1 = Parameter("w1", rng.normal(size=(4, 2))), Parameter("b1", np.zeros(2))
        w2, b2 = Node(rng.normal(size=(4, 5))), Parameter("b2", np.zeros(5))
        b2.zero_grad()  # a buffer the skipped backward would add into
        tape = Tape()
        used = nn.linear(x, w1, b1, tape)
        unused = nn.linear(x, w2, b2, tape)
        proj = rng.normal(size=(3, 2))
        tape.backward(used, seed=proj)
        assert unused.grad is None and w2.grad is None
        assert not b2.grad.any()
        assert np.array_equal(x.grad, proj @ w1.value.T)
        assert np.array_equal(b1.grad, proj.sum(axis=0))

    def test_backward_consumes_the_tape(self):
        # Each closure is dropped once it has run, which frees what it captured.
        x = Node([1.0, 2.0])
        tape = Tape()
        out = nn.gelu(nn.add(x, x, tape), tape)
        tape.backward(out)
        assert not tape._steps

    def test_second_backward_raises(self):
        # A used tape holds no closures; a rerun would seed only the output.
        x = Node([1.0, 2.0])
        tape = Tape()
        out = nn.add(x, x, tape)
        tape.backward(out)
        with pytest.raises(RuntimeError, match="already ran"):
            tape.backward(out)
        assert np.array_equal(x.grad, [2.0, 2.0])


class TestLinear:
    def test_identity(self):
        out = nn.linear(Node([1.0, 2.0]), Node(np.eye(2)), Node(np.zeros(2)), None)
        assert np.array_equal(out.value, [1.0, 2.0])

    def test_hand_product(self):
        out = nn.linear(
            Node([1.0, 0.0]), Node([[3.0, 4.0], [5.0, 6.0]]), Node([1.0, 1.0]), None
        )
        assert np.array_equal(out.value, [4.0, 5.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            nn.linear(Node(np.zeros((4, 5))), Node(np.zeros((2, 3))), Node(np.zeros(3)), None)

    def test_bias_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.linear(Node(np.zeros((4, 2))), Node(np.zeros((2, 3))), Node(np.zeros(2)), None)

    def test_grads_match_fd(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            xv = rng.normal(size=(3, 4))
            wv = rng.normal(size=(4, 2))
            bv = rng.normal(size=2)
            proj = rng.normal(size=(3, 2))
            x, w, b = Node(xv), Node(wv), Node(bv)
            tape = Tape()
            out = nn.linear(x, w, b, tape)
            tape.backward(out, seed=proj)

            def f():
                return scalar_loss(nn.linear(Node(xv), Node(wv), Node(bv), None).value, proj)

            check_grad(f, xv, x.grad, 1e-6)
            check_grad(f, wv, w.grad, 1e-6)
            check_grad(f, bv, b.grad, 1e-6)


class TestLayerNorm:
    def test_two_point_row(self):
        # mean 2, population variance 1.
        out = nn.layer_norm(Node([1.0, 3.0]), Node(np.ones(2)), Node(np.zeros(2)), 0.0, None)
        assert np.allclose(out.value, [-1.0, 1.0], atol=1e-12)

    def test_constant_row_maps_to_zero(self):
        out = nn.layer_norm(
            Node([7.0, 7.0, 7.0]), Node(np.ones(3)), Node(np.zeros(3)), 1e-12, None
        )
        assert np.abs(out.value).max() <= 1e-3

    def test_normalization_property(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 16)) * 3.0 + 1.5
        out = nn.layer_norm(Node(x), Node(np.ones(16)), Node(np.zeros(16)), 1e-12, None)
        assert np.abs(out.value.mean(axis=-1)).max() <= 1e-9
        assert np.abs(out.value.var(axis=-1) - 1.0).max() <= 1e-6

    def test_grads_match_fd(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            xv = rng.normal(size=(2, 5))
            gv = rng.normal(size=5)
            bv = rng.normal(size=5)
            proj = rng.normal(size=(2, 5))
            x, g, b = Node(xv), Node(gv), Node(bv)
            tape = Tape()
            out = nn.layer_norm(x, g, b, 1e-12, tape)
            tape.backward(out, seed=proj)

            def f():
                return scalar_loss(
                    nn.layer_norm(Node(xv), Node(gv), Node(bv), 1e-12, None).value, proj
                )

            check_grad(f, xv, x.grad, 1e-5)
            check_grad(f, gv, g.grad, 1e-5)
            check_grad(f, bv, b.grad, 1e-5)


GELU_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                 1e-300, -40.0, 40.0, 1e308, -1e308]


def gelu_sweep() -> np.ndarray:
    """Specials, points either side of |x / sqrt 2| = 1 (where erf switches branch), normals."""
    rng = np.random.default_rng(9)
    edge = np.sqrt(2.0) * np.concatenate([1.0 + np.linspace(-1e-12, 1e-12, 41),
                                          np.linspace(0.9, 1.1, 41)])
    normals = [rng.normal(size=500) * scale for scale in (0.2, 1.0, 3.0)]
    return np.concatenate([GELU_SPECIALS, edge, -edge, *normals])


class TestGelu:
    def test_zero(self):
        assert nn.gelu(Node(0.0), None).value == 0.0

    def test_large_positive_asymptote(self):
        assert abs(nn.gelu(Node(10.0), None).value - 10.0) <= 1e-6

    def test_grad_matches_fd_at_pinned_points(self):
        xv = np.array([-2.0, -0.5, 0.5, 2.0])
        proj = np.array([1.0, -1.0, 2.0, 0.5])
        x = Node(xv)
        tape = Tape()
        out = nn.gelu(x, tape)
        tape.backward(out, seed=proj)

        def f():
            return scalar_loss(nn.gelu(Node(xv), None).value, proj)

        check_grad(f, xv, x.grad, 1e-6)

    @staticmethod
    def assert_same_bits(got, want):
        """Byte equality, except that a NaN need only meet a NaN: erf keeps no NaN's sign."""
        got, want = np.asarray(got), np.asarray(want)
        nan = np.isnan(want)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_erf_is_exactly_odd(self):
        """The sign fold in nn.gelu holds its bits only because scipy's erf is exactly odd."""
        z = gelu_sweep() * nn._INV_SQRT2
        self.assert_same_bits(np.copysign(erf(np.abs(z)), z), erf(z))

    @pytest.mark.parametrize("xv", [gelu_sweep().reshape(2, -1), *map(np.array, GELU_SPECIALS)],
                             ids=["sweep", *map(repr, GELU_SPECIALS)])
    def test_forwards_and_backward_match_the_unfolded_reference_bits(self, xv):
        g = np.random.default_rng(10).normal(size=xv.shape)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and 1e308 ** 2
            cdf = 0.5 * (1.0 + erf(xv * nn._INV_SQRT2))
            pdf = nn._INV_SQRT_2PI * np.exp(-0.5 * xv * xv)
            want, want_grad = xv * cdf, g * (cdf + xv * pdf)
            free = nn.gelu(Node(xv), None).value
            x = Node(xv)
            tape = Tape()
            taped = nn.gelu(x, tape)
            tape.backward(taped, seed=g)
        self.assert_same_bits(free, want)
        self.assert_same_bits(taped.value, want)
        self.assert_same_bits(x.grad, want_grad)


def keeps_input_value(op, shape) -> bool:
    """Whether the tape keeps a taped op's input value once the caller drops the input Node.

    The input is itself a taped add's output, so its producer's record is on
    the tape too. Backward still reaches the input's cotangent afterwards.
    """
    rng = np.random.default_rng(8)
    tape = Tape()
    x = nn.add(Node(rng.normal(size=shape)), Node(rng.normal(size=shape)), tape)
    value, cot = x.value, x.cot
    out = op(x, tape)
    del x
    probe = np.empty(0)  # an array only this frame holds
    kept = sys.getrefcount(value) > sys.getrefcount(probe)
    tape.backward(out)
    assert cot.grad is not None and cot.grad.shape == shape
    return kept


class TestTapeKeepsOnlyWhatBackwardReads:
    """Closures hold their inputs' cotangents and the arrays their VJPs read, never a Node."""

    FREED = {
        "add": lambda x, tape: nn.add(x, Node(np.ones((3, 4))), tape),
        "layer_norm": lambda x, tape: nn.layer_norm(x, Node(np.ones(4)), Node(np.zeros(4)),
                                                    1e-5, tape),
        "gelu": nn.gelu,
        "masked_cross_entropy": lambda x, tape: nn.masked_cross_entropy(x, [0, -1, 3], tape),
        "mix_tokens hartley": lambda x, tape: mix_tokens(x, MixingKind.HARTLEY, tape),
    }
    KEPT = {
        "linear": lambda x, tape: nn.linear(x, Node(np.ones((4, 2))), Node(np.zeros(2)), tape),
        "tied_logits": lambda x, tape: nn.tied_logits(x, Node(np.ones((6, 4))),
                                                      Node(np.zeros(6)), tape),
        "mix_tokens modulus": lambda x, tape: mix_tokens(x, MixingKind.MODULUS, tape),
        "mix_tokens phase": lambda x, tape: mix_tokens(x, MixingKind.PHASE, tape),
    }

    @pytest.mark.parametrize("name", FREED)
    def test_input_value_is_freed(self, name):
        assert not keeps_input_value(self.FREED[name], (3, 4))

    @pytest.mark.parametrize("name", KEPT)
    def test_input_value_that_backward_reads_is_kept(self, name):
        assert keeps_input_value(self.KEPT[name], (3, 4))


class TestSoftmax:
    """The row softmax inside attention; its gradient is checked through attention's."""

    def test_symmetry(self):
        assert np.array_equal(nn._softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_max_subtraction_stability(self):
        out = nn._softmax_rows(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = nn._softmax_rows(rng.normal(size=(7, 9)) * 10.0)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12


class TestEmbeddingLookup:
    def test_single_row_gather(self):
        table = Node([[1.0, 2.0], [3.0, 4.0]])
        out = nn.embedding_lookup([0], table, None)
        assert np.array_equal(out.value, [[1.0, 2.0]])

    def test_out_of_range_names_offender(self):
        with pytest.raises(ShapeError, match="7"):
            nn.embedding_lookup([0, 7], Node(np.zeros((5, 3))), None)

    def test_negative_id_rejected(self):
        with pytest.raises(ShapeError):
            nn.embedding_lookup([-1], Node(np.zeros((5, 3))), None)

    def test_repeated_id_accumulates(self):
        table = Node(np.zeros((5, 2)))
        tape = Tape()
        out = nn.embedding_lookup([3, 3], table, tape)
        tape.backward(out, seed=np.array([[1.0, 2.0], [10.0, 20.0]]))
        assert np.array_equal(table.grad[3], [11.0, 22.0])
        assert not table.grad[[0, 1, 2, 4]].any()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_scatter_matches_row_add_at_bit_for_bit(self, order):
        # The flat scatter adds each element in the order a 2-D np.add.at
        # does, into a gradient that already holds a cotangent of any layout.
        rng = np.random.default_rng(8)
        ids = rng.integers(0, 6, size=(40,))
        start, g = rng.normal(size=(6, 5)), rng.normal(size=(40, 5))
        table = Node(np.zeros((6, 5)))
        table.grad = np.array(start, order=order)
        tape = Tape()
        tape.backward(nn.embedding_lookup(ids, table, tape), seed=g)
        expected = start.copy()
        np.add.at(expected, ids, g)
        assert np.array_equal(table.grad, expected)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(3)
        ev = rng.normal(size=(5, 3))
        ids = np.array([4, 0, 4, 2])
        proj = rng.normal(size=(4, 3))
        table = Node(ev)
        tape = Tape()
        out = nn.embedding_lookup(ids, table, tape)
        tape.backward(out, seed=proj)

        def f():
            return scalar_loss(nn.embedding_lookup(ids, Node(ev), None).value, proj)

        check_grad(f, ev, table.grad, 1e-6)


class TestTiedLogits:
    def test_forward_is_x_emb_t_plus_bias(self):
        x = Node([[1.0, 2.0]])
        emb = Node([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bias = Node([0.5, 0.0, -0.5])
        out = nn.tied_logits(x, emb, bias, None)
        assert np.array_equal(out.value, [[1.5, 2.0, 2.5]])

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            nn.tied_logits(Node(np.zeros((2, 3))), Node(np.zeros((4, 2))), Node(np.zeros(4)), None)

    def test_grads_match_fd(self):
        rng = np.random.default_rng(9)
        xv = rng.normal(size=(3, 4))
        ev = rng.normal(size=(6, 4))
        bv = rng.normal(size=6)
        proj = rng.normal(size=(3, 6))
        x, emb, bias = Node(xv), Node(ev), Node(bv)
        tape = Tape()
        out = nn.tied_logits(x, emb, bias, tape)
        tape.backward(out, seed=proj)

        def f():
            return scalar_loss(nn.tied_logits(Node(xv), Node(ev), Node(bv), None).value, proj)

        check_grad(f, xv, x.grad, 1e-6)
        check_grad(f, ev, emb.grad, 1e-6)
        check_grad(f, bv, bias.grad, 1e-6)


class TestGradientsAccumulateInPlace:
    """_add_matmul adds a @ b into a gradient buffer in row chunks with a @ b's bits."""

    @pytest.mark.parametrize("rows, d_in, d_out, chunk", [
        (37, 30, 50, 100),   # 2-row chunks
        (9, 13, 5, 15),      # 3-row chunks; the last takes the one row left over
        (20, 11, 2, 4),      # 2-row chunks of a two-column product
        (64, 129, 96, 960),  # 10-row chunks and a 9-row rest
        (3, 1, 4, 1),        # one row: one chunk
        (1024, 768, 3072, nn.CHUNK_ELEMS),  # 682 rows and a rest of 86
        (154, 3000, 768, nn.CHUNK_ELEMS),   # 2730 rows and a rest of 270
    ])
    def test_chunks_match_the_whole_product(self, rows, d_in, d_out, chunk, monkeypatch):
        monkeypatch.setattr(nn, "CHUNK_ELEMS", chunk)
        rng = np.random.default_rng(rows)
        x, g, grad = (rng.normal(size=shape) for shape in ((rows, d_in), (rows, d_out),
                                                           (d_in, d_out)))
        cot = nn.Cotangent()
        cot.grad = grad.copy()
        nn._add_matmul(cot, x.T, g)
        grad += x.T @ g
        assert np.array_equal(cot.grad, grad)

    def test_without_a_buffer_the_product_becomes_it(self):
        a, b = np.arange(6.0).reshape(2, 3), np.arange(12.0).reshape(3, 4)
        cot = nn.Cotangent()
        nn._add_matmul(cot, a, b)
        assert np.array_equal(cot.grad, a @ b)

    def test_weight_and_embedding_gradients_add_in_chunks_with_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(nn, "CHUNK_ELEMS", 12)  # 2-row chunks of [6, 11] and [11, 6]
        rng = np.random.default_rng(4)
        x, g = rng.normal(size=(7, 6)), rng.normal(size=(7, 11))
        w, emb = Parameter("w", rng.normal(size=(6, 11))), Parameter("emb", rng.normal(size=(11, 6)))
        w.zero_grad()
        emb.zero_grad()
        w.grad[...], emb.grad[...] = rng.normal(size=(6, 11)), rng.normal(size=(11, 6))
        want_w, want_emb = w.grad + x.T @ g, emb.grad + g.T @ x
        for op in (lambda tape: nn.linear(Node(x), w, Node(np.zeros(11)), tape),
                   lambda tape: nn.tied_logits(Node(x), emb, Node(np.zeros(11)), tape)):
            tape = Tape()
            tape.backward(op(tape), seed=g)
        assert np.array_equal(w.grad, want_w)
        assert np.array_equal(emb.grad, want_emb)


class TestMaskedCrossEntropy:
    def test_uniform_logits_single_label(self):
        """One labeled position over four equal logits costs ln 4."""
        logits = Node(np.zeros((3, 4)))
        out = nn.masked_cross_entropy(logits, [-1, 2, -1], None)
        assert abs(out.value - np.log(4.0)) <= 1e-12

    def test_all_ignored_is_zero_with_zero_grad(self):
        logits = Node(np.random.default_rng(0).normal(size=(3, 4)))
        tape = Tape()
        out = nn.masked_cross_entropy(logits, [-1, -1, -1], tape)
        assert out.value == 0.0
        tape.backward(out)
        assert logits.grad is None or not logits.grad.any()

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            nn.masked_cross_entropy(Node(np.zeros((2, 4))), [0, 4], None)

    def test_underflowing_label_probability_stays_finite(self):
        """exp(-805) underflows to 0, but its log is finite: log-sum-exp keeps it."""
        logits = Node(np.array([[0.0, -800.0, 5.0]]))
        tape = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = nn.masked_cross_entropy(logits, [1], tape)
            tape.backward(out)
        assert out.value == pytest.approx(805.0 + np.log1p(np.exp(-5.0)), rel=1e-12)
        np.testing.assert_allclose(logits.grad, [[1 / (1 + np.exp(5.0)), -1.0,
                                                  1 / (1 + np.exp(-5.0))]], atol=1e-12)

    def test_labels_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.masked_cross_entropy(Node(np.zeros((2, 4))), [0, 1, 2], None)

    def test_each_example_is_its_own_mean(self):
        """Three examples: one labeled row, two, and none, which adds exactly 0."""
        lv = np.random.default_rng(0).normal(size=(6, 4))
        labels = np.array([2, -1, 0, 3, -1, -1])
        examples = np.array([0, 0, 1, 1, 2, 2])
        logits = Node(lv)
        tape = Tape()
        out = nn.masked_cross_entropy(logits, labels, tape, examples)
        tape.backward(out)
        parts = [nn.masked_cross_entropy(Node(lv[examples == b]), labels[examples == b], None)
                 for b in range(3)]
        assert parts[2].value == 0.0
        assert out.value == parts[0].value + parts[1].value + parts[2].value

        def f():
            return float(nn.masked_cross_entropy(Node(lv), labels, None, examples).value)

        check_grad(f, lv, logits.grad, 1e-5)
        assert not logits.grad[4:].any()

    def test_examples_shape_mismatch(self):
        with pytest.raises(ShapeError, match="examples"):
            nn.masked_cross_entropy(Node(np.zeros((2, 4))), [0, 1], None, [0])

    def test_grad_matches_fd(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            lv = rng.normal(size=(4, 5))
            labels = np.array([2, -1, 0, 4])
            logits = Node(lv)
            tape = Tape()
            out = nn.masked_cross_entropy(logits, labels, tape)
            tape.backward(out)

            def f():
                return float(nn.masked_cross_entropy(Node(lv), labels, None).value)

            check_grad(f, lv, logits.grad, 1e-5)


def make_attention_params(rng, d):
    """The eight projection tensors of attention sub-layer "attn", by name."""
    return {name: Parameter(name, rng.normal(size=shape) * 0.5)
            for name, shape in _attention_shapes("attn", d).items()}


def attention_sublayer(params, q, k, v, n_heads, tape, causal=False):
    """The decoder's attention sub-layer, with keys projected from k and values from v."""
    return _attention_sublayer(
        params, "attn", q, lambda: (_proj(params, "attn", "k", k, tape),
                                    _proj(params, "attn", "v", v, tape)),
        n_heads, causal, tape)


class TestMultiHeadAttention:
    """Masking, the one-key degenerate case, batched keys, shape checks and VJPs."""

    def test_single_key_weight_is_one(self):
        # With one key the softmax weight is 1, so the q/k path drops out:
        # output is exactly (v @ Wv) @ Wo when biases are zero.
        rng = np.random.default_rng(4)
        d = 4
        params = make_attention_params(rng, d)
        for p in "qkvo":
            params[f"attn.b{p}"].value[...] = 0.0
        qv, kv, vv = (rng.normal(size=(1, d)) for _ in range(3))
        out = attention_sublayer(params, Node(qv), Node(kv), Node(vv), 1, None)
        expected = (vv @ params["attn.wv"].value) @ params["attn.wo"].value
        assert np.allclose(out.value, expected, atol=1e-12)

    def test_causal_mask_blocks_future_positions(self):
        # Row i of the output must not react to key/value rows j > i.
        rng = np.random.default_rng(7)
        d = 6
        params = make_attention_params(rng, d)
        qv = rng.normal(size=(3, d))
        kv = rng.normal(size=(3, d))
        vv = rng.normal(size=(3, d))
        base = attention_sublayer(params, Node(qv), Node(kv), Node(vv), 2, None, causal=True)
        kv2, vv2 = kv.copy(), vv.copy()
        kv2[1:] += 100.0
        vv2[1:] -= 50.0
        moved = attention_sublayer(params, Node(qv), Node(kv2), Node(vv2), 2, None, causal=True)
        assert np.array_equal(base.value[0], moved.value[0])
        assert not np.array_equal(base.value[1], moved.value[1])

    def test_empty_keys_rejected(self):
        with pytest.raises(ShapeError):
            nn.multi_head_attention(Node(np.zeros((2, 4))), Node(np.zeros((0, 4))),
                                    Node(np.zeros((0, 4))), 1, None)

    def test_rejects_indivisible_heads(self):
        x = Node(np.zeros((2, 8)))
        with pytest.raises(ShapeError, match="n_heads 3"):
            nn.multi_head_attention(x, x, x, 3, None)

    def test_rejects_nonpositive_heads(self):
        x = Node(np.zeros((2, 8)))
        with pytest.raises(ShapeError, match="n_heads 0"):
            nn.multi_head_attention(x, x, x, 0, None)

    def test_rejects_k_and_v_of_different_shapes(self):
        q = Node(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            nn.multi_head_attention(q, Node(np.zeros((3, 4))), Node(np.zeros((2, 4))), 2, None)

    def test_rejects_keys_narrower_than_queries(self):
        q, kv = Node(np.zeros((2, 4))), Node(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            nn.multi_head_attention(q, kv, kv, 2, None)

    def test_rejects_taped_batched_keys(self):
        q, kv = Node(np.zeros((2, 4))), Node(np.zeros((2, 3, 4)))
        nn.multi_head_attention(q, kv, kv, 2, None)  # untaped, the decode form is fine
        with pytest.raises(ShapeError, match="taped"):
            nn.multi_head_attention(q, kv, kv, 2, Tape())

    def test_rejects_queries_that_do_not_split_over_key_sets(self):
        q, kv = Node(np.zeros((3, 4))), Node(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            nn.multi_head_attention(q, kv, kv, 2, None)

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_batched_keys_match_per_group_calls(self, rows, causal):
        # The decode form: group b of `rows` query rows attends its own keys
        # [t, d]. One call over keys [B, t, d] equals B calls over 2-D keys.
        rng = np.random.default_rng(23)
        n_groups, t, d = 3, 5, 8
        qv = rng.normal(size=(n_groups * rows, d))
        kv, vv = rng.normal(size=(2, n_groups, t, d))
        batched = nn.multi_head_attention(Node(qv), Node(kv), Node(vv), 2, None, causal)
        for b in range(n_groups):
            own = slice(b * rows, (b + 1) * rows)
            single = nn.multi_head_attention(Node(qv[own]), Node(kv[b]), Node(vv[b]), 2, None,
                                             causal)
            assert np.abs(batched.value[own] - single.value).max() <= 1e-12

    @pytest.mark.parametrize("n_groups, t", [(1, 1), (3, 7), (4, 33)])
    def test_key_views_of_a_larger_buffer_match_contiguous_keys(self, n_groups, t):
        # generate's cache form: keys and values [B, t, d] are strided views of
        # one [2, beam, max_len, d] buffer, and must give the contiguous bits.
        rng = np.random.default_rng(29)
        d = 8
        qv = rng.normal(size=(n_groups, d))
        cache = rng.normal(size=(2, n_groups + 2, t + 5, d))
        kv, vv = cache[:, :n_groups, :t]
        assert not kv.flags.c_contiguous or n_groups == 1
        viewed = nn.multi_head_attention(Node(qv), Node(kv), Node(vv), 2, None)
        copied = nn.multi_head_attention(Node(qv), Node(np.ascontiguousarray(kv)),
                                         Node(np.ascontiguousarray(vv)), 2, None)
        assert np.array_equal(viewed.value, copied.value)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        d = 8
        params = make_attention_params(rng, d)
        qv = rng.normal(size=(5, d))
        a = attention_sublayer(params, Node(qv), Node(qv), Node(qv), 4, None, causal=True)
        b = attention_sublayer(params, Node(qv.copy()), Node(qv.copy()), Node(qv.copy()), 4,
                               None, causal=True)
        assert np.array_equal(a.value, b.value)

    @pytest.mark.parametrize("causal", [False, True])
    def test_grads_match_fd(self, causal):
        """Inputs and all eight projection tensors against central differences.

        Non-causal runs cross-attention shapes, with more keys than queries.
        """
        rng = np.random.default_rng(17 + causal)
        d, heads = 4, 2
        l_k = 3 if causal else 5
        params = make_attention_params(rng, d)
        qv = rng.normal(size=(3, d))
        kv = rng.normal(size=(l_k, d))
        vv = rng.normal(size=(l_k, d))
        proj = rng.normal(size=(3, d))

        q, k, v = Node(qv), Node(kv), Node(vv)
        tape = Tape()
        out = attention_sublayer(params, q, k, v, heads, tape, causal)
        tape.backward(out, seed=proj)

        def f():
            fresh = attention_sublayer(params, Node(qv), Node(kv), Node(vv), heads, None, causal)
            return scalar_loss(fresh.value, proj)

        check_grad(f, qv, q.grad, 1e-4)
        check_grad(f, kv, k.grad, 1e-4)
        check_grad(f, vv, v.grad, 1e-4)
        # zero_floor covers bk: a key bias shifts every logit in a softmax row
        # equally, so its true gradient is identically zero and FD sees noise.
        for tensor in params.values():
            check_grad(f, tensor.value, tensor.grad, 1e-4, zero_floor=1e-8)


def stored_weights_attention_grads(qv, kv, vv, n_heads, g, causal):
    """q, k and v cotangents of the attention op from each head's stored _softmax_rows output."""
    (l_q, d), l_k, d_h = qv.shape, kv.shape[0], qv.shape[1] // n_heads
    qh, kh, vh = (x.reshape(len(x), n_heads, d_h) for x in (qv, kv, vv))
    gh = g.reshape(l_q, n_heads, d_h)
    scale = 1.0 / np.sqrt(d_h)
    weights = []
    for h in range(n_heads):
        scores = (qh[:, h, :] @ kh[:, h, :].T) * scale
        if causal:
            scores += np.where(np.tril(np.ones((l_q, l_k), dtype=bool)), 0.0, -np.inf)
        weights.append(nn._softmax_rows(scores))
    dq, dk, dv = np.empty_like(qh), np.empty_like(kh), np.empty_like(vh)
    for h, a in enumerate(weights):
        da = gh[:, h, :] @ vh[:, h, :].T
        dv[:, h, :] = a.T @ gh[:, h, :]
        ds = (da - (da * a).sum(axis=-1, keepdims=True)) * a * scale
        dq[:, h, :] = ds @ kh[:, h, :]
        dk[:, h, :] = ds.T @ qh[:, h, :]
    return dq.reshape(l_q, d), dk.reshape(l_k, d), dv.reshape(l_k, d)


class TestAttentionRecomputesWeights:
    """The taped op keeps no softmax weights and its backward recomputes them bit for bit."""

    @pytest.mark.parametrize("causal", [False, True])
    def test_cotangents_equal_the_stored_weights_backward(self, causal):
        rng = np.random.default_rng(31 + causal)
        l_q, l_k, n_heads, d = 5, 9, 3, 12
        qv, (kv, vv) = rng.normal(size=(l_q, d)), rng.normal(size=(2, l_k, d))
        g = rng.normal(size=(l_q, d))
        q, k, v = Node(qv), Node(kv), Node(vv)
        tape = Tape()
        tape.backward(nn.multi_head_attention(q, k, v, n_heads, tape, causal), seed=g)
        expected = stored_weights_attention_grads(qv, kv, vv, n_heads, g, causal)
        for node, want in zip((q, k, v), expected):
            assert np.array_equal(node.grad, want)

    def test_taped_forward_holds_no_weights(self):
        rng = np.random.default_rng(2)
        l_q, l_k, n_heads, d = 8, 512, 4, 16
        tracemalloc.start()
        try:
            q, k, v = Node(rng.normal(size=(l_q, d))), *(Node(rng.normal(size=(l_k, d)))
                                                         for _ in range(2))
            tape = Tape()
            out = nn.multi_head_attention(q, k, v, n_heads, tape)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        weights_bytes = n_heads * l_q * l_k * 8
        assert held < weights_bytes + sum(x.value.nbytes for x in (q, k, v, out)), held
        tape.backward(out)
        assert k.grad.shape == (l_k, d)


class TestGradientSweep:
    """Randomized small-shape pass over every op, the blanket 1e-4 contract."""

    def test_all_ops_random_shapes(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            rows = int(rng.integers(1, 5))
            # width >= 3: a 2-wide row normalizes to +-1 regardless of input,
            # locally constant, so FD cannot resolve the (zero) x gradient.
            width = int(rng.integers(3, 7))

            xv = rng.normal(size=(rows, width))
            proj = rng.normal(size=(rows, width))
            x = Node(xv.copy())
            tape = Tape()
            tape.backward(nn.gelu(x, tape), seed=proj)

            def f_gelu(held=x.value):
                return scalar_loss(nn.gelu(Node(held), None).value, proj)

            check_grad(f_gelu, x.value, x.grad, 1e-6)

            gv = rng.normal(size=width)
            bv = rng.normal(size=width)
            x = Node(xv.copy())
            g, b = Node(gv), Node(bv)
            tape = Tape()
            tape.backward(nn.layer_norm(x, g, b, 1e-12, tape), seed=proj)

            def f_ln(held=x.value):
                return scalar_loss(nn.layer_norm(Node(held), Node(gv), Node(bv), 1e-12, None).value, proj)

            check_grad(f_ln, x.value, x.grad, 1e-4)
            check_grad(f_ln, gv, g.grad, 1e-4)
            check_grad(f_ln, bv, b.grad, 1e-4)
