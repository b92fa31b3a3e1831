"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import run
import specmix
from tracer import Tracer
from workloads import VOCAB, WORKLOADS, Pass, Summarize, generation_problem, make_workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TOY = {
    "mlm_pretrain": dict(d_model=16, d_ff=32, seq_len=16, batch=2, n_slices=16, chunk=2,
                         min_steps=4, window=2),
    "longdoc_encode": dict(d_model=16, d_ff=32, lo=20, hi=60, block=4, min_docs=4),
    "summarize": dict(d_model=16, d_ff=32, n_heads=2, lo=16, hi=40, pool=4, batch=2,
                      target_bytes=8),
}


def toy(name, tmp_path, seed=3):
    wl = make_workload(name, seed, tmp_path, **TOY[name])
    wl.setup()
    return wl


@pytest.fixture
def fast_probe(monkeypatch):
    """The real probe times 768-wide attention; the names are all that is tested here."""

    def bench(seq_lens, d_model, n_heads, seed):
        return [specmix.BenchResult(kind, n, d_model, ips, ips)
                for n in seq_lens
                for kind, ips in (("attention", 1.0), ("fourier-real", 2.0), ("hartley", 3.0))]

    monkeypatch.setattr(specmix, "bench_mixing_vs_attention", bench)


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted(name, tmp_path, fast_probe):
    wl = toy(name, tmp_path)
    p, metrics = run.end_to_end(wl, 0.0, [0.5])
    line = run.result_line((p,), metrics, run.END_TO_END)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert line["attempted"] >= 1

    def make():
        return make_workload(name, 3, tmp_path, **TOY[name])

    untraced, traced, _, layer = run.traced(make, toy(name, tmp_path), 0.0, 3)
    assert set(layer) == set(units("per_layer"))
    assert traced.iterations == untraced.iterations
    assert traced.digests() == untraced.digests() != {}


def _specmix_bindings():
    """Every attribute of every specmix module and of the patched classes, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "specmix" or mod_name.startswith("specmix."):
            for attr, obj in vars(mod).items():
                out[(mod_name, attr)] = obj
    for cls in (specmix.nn.Tape, specmix.training.AdamW):
        for attr, obj in vars(cls).items():
            out[(cls.__qualname__, attr)] = obj
    return out


def test_wrappers_restore_module_attributes():
    before = _specmix_bindings()
    originals = {
        "specmix.encoder.mix2d": specmix.spectral.mix2d,
        "specmix.training.encoder_forward": specmix.encoder.encoder_forward,
        "specmix.seq2seq.encoder_forward": specmix.encoder.encoder_forward,
        "specmix.encoder_forward": specmix.encoder.encoder_forward,
    }
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        for dotted, original in originals.items():
            mod_name, attr = dotted.rsplit(".", 1)
            assert getattr(importlib.import_module(mod_name), attr) is not original
        assert "record" in vars(specmix.nn.Tape)
        assert vars(specmix.nn.Tape)["record"] is not before[("Tape", "record")]
        specmix.mix2d(specmix.dft_naive([[1.0, 2.0]]).real, specmix.MixingKind.HARTLEY)
        raise RuntimeError("a failure inside the traced region")
    assert [s[0] for s in tracer.spans] == ["spectral.dft_naive", "spectral.mix2d"]
    assert not tracer._stack
    after = _specmix_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_generation_problem_flags_each_broken_contract():
    gen = specmix.GenerationConfig(max_target_len=4, no_repeat_ngram=2)
    assert generation_problem([10, 11, 12], gen) is None
    assert "max_target_len" in generation_problem([10, 11, 12, 13, 14], gen)
    assert "outside" in generation_problem([VOCAB], gen)
    assert "repeats" in generation_problem([10, 11, 10, 11], gen)
    assert "repeats" in generation_problem([10, gen.bos_id, 10], gen)


def test_wrong_output_counts_in_failed(tmp_path, monkeypatch):
    clean = toy("summarize", tmp_path).run(0.0)
    assert clean.failed == 0 and clean.attempted > 0

    monkeypatch.setattr(specmix, "generate", lambda state, source, gen: [VOCAB + 1])
    wrong = toy("summarize", tmp_path).run(0.0)
    n_generate = Summarize.HELDOUT * len(Summarize.beams)
    assert wrong.failed == n_generate
    assert wrong.attempted == clean.attempted
    line = run.result_line((wrong,), {}, {})
    assert line["correct"] is False and line["failed"] == n_generate


def test_raising_operation_counts_in_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("deliberate")

    monkeypatch.setattr(specmix, "rougeL_f", broken)
    p = toy("summarize", tmp_path).run(0.0)
    assert p.failed == Summarize.HELDOUT * len(Summarize.beams)
    assert any("deliberate" in f for f in p.failures)


def test_pass_check_counts_operations():
    p = Pass()
    p.check(True, "fine")
    p.check(False, "broken", n=3)
    assert (p.attempted, p.failed, p.failures) == (4, 3, ["broken"])


def test_wrong_mixing_fails_the_oracle_check(tmp_path, monkeypatch):
    wl = toy("longdoc_encode", tmp_path)
    clean = wl.run(0.0)
    wl.final_checks(clean)
    assert clean.failed == 0

    mix2d = specmix.encoder.mix2d
    monkeypatch.setattr(specmix.encoder, "mix2d", lambda x, kind: mix2d(x, kind) * (1 + 1e-6))
    wrong = wl.run(0.0)
    wl.final_checks(wrong)
    assert wrong.failed == 1 and "naive DFT" in wrong.failures[0]
