"""The BENCH_<n>.json writer's numbering and summary, without running the benchmark."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"


@pytest.fixture
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_files_are_numbered_in_order_and_name_their_parent(trajectory, monkeypatch, tmp_path):
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    assert trajectory.next_file() == (tmp_path / "BENCH_0.json", None)
    for n in (0, 1, 10):
        (tmp_path / f"BENCH_{n}.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")
    assert trajectory.next_file() == (tmp_path / "BENCH_11.json", "BENCH_10.json")


def test_summary_is_median_and_interquartile_range(trajectory):
    runs = [{"metrics": {"peak_rss_mb": v}} for v in (80.0, 90.0, 82.0, 84.0)]
    got = trajectory.summarize(runs, {"peak_rss_mb": "MB"})["peak_rss_mb"]
    assert got["unit"] == "MB"
    assert got["median"] == 83.0
    assert (got["q1"], got["q3"]) == (81.5, 85.5)
    assert got["iqr"] == 4.0


def test_training_memory_measures_each_length_in_a_fresh_process(trajectory, monkeypatch):
    monkeypatch.setattr(trajectory, "MEMORY_LENGTHS", (32,))
    monkeypatch.setattr(trajectory, "BASE_MODEL", {"d_model": 16, "d_ff": 32, "vocab_size": 300})
    monkeypatch.setattr(trajectory, "BASE_LENGTHS", (16, 32))
    monkeypatch.setattr(trajectory, "HYBRID_DECODER", {"n_layers": 1, "n_heads": 2})
    monkeypatch.setattr(trajectory, "HYBRID_LENGTHS", (32, 8))
    monkeypatch.setattr(trajectory, "BATCH_SHAPE", (3, 16))
    got = trajectory.training_memory(trajectory.ROOT)
    assert got["unit"] == "MiB" and got["model"]["n_layers"] == 2
    assert got["base_width"]["model"]["vocab_size"] == 300
    assert sorted(got["base_width"]["layers"]) == ["1", "2"]
    hybrid = got["seq2seq"]
    assert hybrid["encoder"]["n_layers"] == 1 and hybrid["decoder"]["n_heads"] == 2
    assert (hybrid["source_length"], hybrid["target_length"]) == (32, 8)
    rows = [got["lengths"]["32"], hybrid, *(got["base_width"]["layers"][depth][n]
                                             for depth in ("1", "2") for n in ("16", "32"))]
    for peaks in rows:
        assert 0 < peaks["forward_peak_mib"] <= peaks["step_peak_mib"]
    batch = got["mlm_batch_step"]
    assert (batch["batch"], batch["seq_len"], batch["model"]["n_layers"]) == (3, 16, 1)
    assert batch["step_peak_mib"] > 0


def assert_quartiles(entries):
    for entry in entries:
        assert 0 < entry["q1"] <= entry["median"] <= entry["q3"]
        assert entry["iqr"] == entry["q3"] - entry["q1"]


def assert_timer_provenance(block):
    """The block was timed at TIMING, specmix bench's defaults, with BLAS clamped to one thread."""
    assert (block["repeats"], block["warmup"]) == (5, 2)
    assert block["min_sample_s"] > 0
    assert block["blas_threads"] and set(block["blas_threads"]) == {1}


def test_decoding_times_each_beam_and_length_interleaved_in_one_process(trajectory,
                                                                        monkeypatch):
    monkeypatch.setattr(trajectory, "DECODE_ENCODER",
                        {"n_layers": 1, "d_model": 8, "d_ff": 16, "vocab_size": 40})
    monkeypatch.setattr(trajectory, "DECODE_DECODER", {"n_layers": 1, "n_heads": 2})
    monkeypatch.setattr(trajectory, "DECODE_SOURCE", 12)
    monkeypatch.setattr(trajectory, "DECODE_LENGTHS", (3, 5))
    got = trajectory.decoding(trajectory.ROOT)
    assert got["unit"] == "ms/token" and got["source_length"] == 12
    assert got["encoder"]["d_model"] == 8 and got["decoder"]["n_layers"] == 1
    assert sorted(got["beams"]) == ["1", "4"]
    for beam in got["beams"].values():
        assert sorted(beam) == ["3", "5"]
        assert_quartiles(beam.values())
    assert_timer_provenance(got)


def test_encoding_times_each_length_interleaved_in_one_process(trajectory, monkeypatch):
    monkeypatch.setattr(trajectory, "BASE_MODEL", {"d_model": 8, "d_ff": 16, "vocab_size": 40})
    monkeypatch.setattr(trajectory, "ENCODE_LENGTHS", (7, 8))
    got = trajectory.encoding(trajectory.ROOT)
    assert got["unit"] == "ms" and got["tape"] is False
    assert got["model"]["n_layers"] == 1 and got["model"]["d_model"] == 8
    assert sorted(got["lengths"]) == ["7", "8"]
    assert_quartiles(got["lengths"].values())
    assert_timer_provenance(got)


@pytest.mark.parametrize("block", ["decoding", "encoding"])
def test_each_timing_block_is_one_probe(block, trajectory, monkeypatch):
    """A block times all of its configurations in one fresh process."""
    calls = []
    monkeypatch.setattr(trajectory, "_probe", lambda checkout, fn, *args: calls.append(fn) or {})
    getattr(trajectory, block)(trajectory.ROOT)
    assert len(calls) == 1


def test_base_model_has_the_base_config_widths(trajectory):
    from specmix.encoder import base_encoder_config

    base = base_encoder_config()
    assert trajectory.BASE_MODEL == {name: getattr(base, name) for name in trajectory.BASE_MODEL}


def test_hybrid_decoder_is_the_default_decoder_config(trajectory):
    from specmix.seq2seq import DecoderConfig

    widths = {name: trajectory.BASE_MODEL[name] for name in ("d_model", "d_ff", "vocab_size")}
    assert DecoderConfig(**widths, **trajectory.HYBRID_DECODER) == DecoderConfig()


def test_only_measured_files_count_as_uncommitted(trajectory, tmp_path):
    assert trajectory.commit_of(tmp_path) == {"head": None, "uncommitted_changes": None}

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c",
                        "user.email=bench@example.com", "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "model.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "initial")
    assert trajectory.commit_of(tmp_path)["uncommitted_changes"] is False
    (tmp_path / "README.md").write_text("edited readme\n")
    assert trajectory.commit_of(tmp_path)["uncommitted_changes"] is False
    (tmp_path / "src" / "model.py").write_text("x = 2\n")
    assert trajectory.commit_of(tmp_path)["uncommitted_changes"] is True
