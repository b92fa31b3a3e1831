"""Benchmark harness checks at toy sizes (no performance assertions here)."""

import types

import numpy as np
import pytest

from specmix import bench
from specmix.bench import (
    ATTENTION,
    BenchResult,
    _time_workloads,
    bench_mixing_vs_attention,
    results_csv,
    results_markdown,
)
from specmix.errors import ConfigError
from specmix.nn import Node, init_params
from specmix.rng import SplitRng
from specmix.seq2seq import (
    DecoderConfig,
    _attention_shapes,
    _attention_sublayer,
    _kv,
    decoder_param_shapes,
)


@pytest.fixture
def fake_clock(monkeypatch):
    """A clock the timed functions advance themselves; returns its one-item state."""
    clock = [0.0]
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    return clock


@pytest.fixture(scope="module")
def tiny_results():
    return bench_mixing_vs_attention([8, 16], d_model=8, n_heads=2)


class TestHarness:
    def test_row_layout(self, tiny_results):
        assert len(tiny_results) == 6
        assert [r.workload for r in tiny_results] == [
            "attention", "fourier-real", "hartley",
            "attention", "fourier-real", "hartley",
        ]
        assert [r.seq_len for r in tiny_results] == [8, 8, 8, 16, 16, 16]
        assert all(r.d_model == 8 for r in tiny_results)

    def test_rates_positive_and_finite(self, tiny_results):
        for r in tiny_results:
            assert np.isfinite(r.iters_per_sec) and r.iters_per_sec > 0
            assert np.isfinite(r.speedup_vs_baseline) and r.speedup_vs_baseline > 0

    def test_attention_is_its_own_baseline(self, tiny_results):
        for r in tiny_results:
            if r.workload == ATTENTION:
                assert r.speedup_vs_baseline == 1.0

    def test_speedup_consistent_with_rates(self, tiny_results):
        by_len = {}
        for r in tiny_results:
            by_len.setdefault(r.seq_len, {})[r.workload] = r
        for rows in by_len.values():
            base = rows[ATTENTION].iters_per_sec
            for name, row in rows.items():
                assert row.speedup_vs_baseline == pytest.approx(
                    row.iters_per_sec / base, rel=1e-12
                )

    def test_precondition_validation(self):
        with pytest.raises(ConfigError, match="seq_lens"):
            bench_mixing_vs_attention([], d_model=8, n_heads=2)
        with pytest.raises(ConfigError, match="seq_lens"):
            bench_mixing_vs_attention([0], d_model=8, n_heads=2)

    @pytest.mark.parametrize("d_model, n_heads", [(0, 1), (8, 0), (768, 5)])
    def test_attention_extents_validated(self, d_model, n_heads):
        with pytest.raises(ConfigError, match="n_heads"):
            bench_mixing_vs_attention([8], d_model=d_model, n_heads=n_heads)

    def test_checksum_guard_rejects_non_finite(self, fake_clock):
        def fn():
            fake_clock[0] += bench.MIN_SAMPLE_S
            return np.array([np.inf])

        with pytest.raises(FloatingPointError, match="checksum"):
            _time_workloads([fn], repeats=5, warmup=2)

    def test_timer_counts_only_timed_iterations(self, fake_clock):
        # The 2 warmup calls take 100 s each and every later call
        # 0.75 * MIN_SAMPLE_S, so each sample averages 2 calls. A timed warmup
        # call would show in the median; an extra or missing call in the count.
        calls = []
        step = 0.75 * bench.MIN_SAMPLE_S

        def fn():
            calls.append(1)
            fake_clock[0] += 100.0 if len(calls) <= 2 else step
            return np.zeros(1)

        [samples] = _time_workloads([fn], repeats=5, warmup=2)
        assert len(calls) == 2 + 5 * 2
        assert len(samples) == 5
        assert np.median(samples) == pytest.approx(step, rel=1e-9)

    def test_workloads_are_timed_round_robin(self, fake_clock):
        # each sample needs 2 calls; the calls of the two workloads interleave
        order = []

        def workload(name):
            def fn():
                order.append(name)
                fake_clock[0] += 0.75 * bench.MIN_SAMPLE_S
                return np.zeros(1)
            return fn

        _time_workloads([workload("a"), workload("b")], repeats=5, warmup=2)
        assert order == ["a", "a", "b", "b"] + ["a", "b"] * 2 * 5

    def test_attention_workload_is_the_decoders_self_attention(self, monkeypatch):
        """Bit for bit a decoder layer's non-causal self-attention, same weights and input."""
        timed = []

        def capture(fns, repeats, warmup):
            timed.append(fns[0])
            return [[1.0] * repeats for _ in fns]

        monkeypatch.setattr(bench, "_time_workloads", capture)
        seq_len, d, heads, seed = 13, 8, 2, 5
        bench_mixing_vs_attention([seq_len], d_model=d, n_heads=heads, seed=seed)
        # the bench's weights and input, drawn from its seed as it draws them
        root = SplitRng(seed)
        weights = init_params(_attention_shapes(ATTENTION, d), root.split(0))
        x = Node(root.split(1).normal(size=(seq_len, d)))
        cfg = DecoderConfig(n_layers=1, d_model=d, d_ff=16, n_heads=heads, vocab_size=7,
                            max_positions=8)
        decoder = init_params(decoder_param_shapes(cfg), SplitRng(seed + 1))
        prefix = "decoder.layer0.self_attn"
        for name, p in weights.items():
            decoder[prefix + name[len(ATTENTION):]].value[...] = p.value
        expected = _attention_sublayer(decoder, prefix, x, lambda: _kv(decoder, prefix, x, None),
                                       cfg.n_heads, False, None)
        assert np.array_equal(timed[0](), expected.value)


class TestClamp:
    def test_every_loaded_openblas_is_clamped_then_restored(self):
        calls = list(bench._openblas_calls())
        if not calls:
            pytest.skip("no OpenBLAS library is loaded into this process")
        original = [get() for get, _ in calls]
        try:
            for _, set_ in calls:
                set_(2)
            with bench._single_thread() as threads:
                assert threads == [1] * len(calls)
            assert [get() for get, _ in calls] == [2] * len(calls)
            with pytest.raises(RuntimeError, match="body"), bench._single_thread():
                raise RuntimeError("body")
            assert [get() for get, _ in calls] == [2] * len(calls)
        finally:
            for (_, set_), threads in zip(calls, original):
                set_(threads)

    def test_warning_reads_back_every_library(self, fake_openblas):
        # the first library clamps; the second still runs 2 threads under the clamp
        fake_openblas(2)
        fake_openblas(2, stuck=True)
        assert bench.unclamped_blas_warning().startswith("BLAS runs 2 threads, not 1")


class TestEmitters:
    def test_csv_header_and_rows(self):
        rows = [
            BenchResult("attention", 512, 768, 2.0, 1.0),
            BenchResult("hartley", 512, 768, 10.0, 5.0),
        ]
        text = results_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "workload,seq_len,d_model,iters_per_sec,speedup"
        assert lines[1].startswith("attention,512,768,")
        assert lines[2].startswith("hartley,512,768,")

    def test_markdown_table_shape(self):
        rows = [BenchResult("attention", 8, 8, 123.0, 1.0)]
        text = results_markdown(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("| workload ")
        assert set(lines[1].replace("|", "").split()) == {"---", "---:"}
        assert "| attention | 8 | 8 |" in lines[2]
