"""End-to-end command-line runs against tiny models in a temp directory."""

import builtins
import csv
import hashlib
import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from specmix import bench, cli
from specmix.checkpoint import load_checkpoint, save_checkpoint
from specmix.cli import _load_checkpoint_in, main
from specmix.config import load_run_config
from specmix.encoder import EncoderConfig, count_params, state_from_arrays
from specmix.seq2seq import DecoderConfig, GenerationConfig, generate, seq2seq_state_from_arrays
from specmix.spectral import MixingKind
from specmix.training import ByteTokenizer

BASELINE_MICRO = [71.2, 79.7, 68.3, 71.4, 87.6, 95.6, 70.8]
FOURIER_MICRO = [57.1, 65.7, 60.5, 65.2, 85.6, 95.3, 50.9]

ENCODER_DICT = {
    "n_layers": 2,
    "d_model": 16,
    "d_ff": 32,
    "vocab_size": 261,
    "max_positions": 32,
    "mixing": "hartley",
}
COPY_SOURCES = [
    "abcd", "bcde", "cdea", "dabe", "eabc", "abce",
    "bcda", "cdeb", "deac", "acbd", "bdce", "caed",
]


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_config(path, *, steps, seed, paths, encoder=None, decoder=None,
                 generation=None, base_lr=1e-3, warmup=5, batch_size=4):
    data = {
        "model": {"encoder": dict(encoder or ENCODER_DICT)},
        "training": {
            "steps": steps,
            "seed": seed,
            "optimizer": {"base_lr": base_lr, "warmup_steps": warmup},
            "schedule": [[None, batch_size]],
        },
        "paths": paths,
    }
    if decoder is not None:
        data["model"]["decoder"] = decoder
    if generation is not None:
        data["model"]["generation"] = generation
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
    return path


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [(int(s), float(l), int(b), float(lr)) for s, l, b, lr in rows[1:]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One pretraining run shared by the checkpoint-consuming tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    write_jsonl(corpus, [
        {"text": "the cat sat on the mat. the dog ate the bone. " * 6}
        for _ in range(8)
    ])
    config = write_config(
        root / "mlm.json",
        steps=30,
        seed=11,
        paths={
            "corpus": str(corpus),
            "checkpoint_out": str(root / "model.spmx"),
            "loss_csv": str(root / "loss.csv"),
        },
    )
    rc = main(["train-mlm", "--config", str(config)])
    assert rc == 0
    return SimpleNamespace(
        root=root,
        corpus=corpus,
        config=config,
        checkpoint=root / "model.spmx",
        loss_csv=root / "loss.csv",
    )


class TestTrainMlm:
    def test_writes_checkpoint_and_trace(self, workdir):
        assert workdir.checkpoint.exists()
        header, rows = read_trace(workdir.loss_csv)
        assert header == ["step", "loss", "batch_size", "lr"]
        assert len(rows) == 30
        assert [r[0] for r in rows] == list(range(30))
        assert all(np.isfinite(r[1]) for r in rows)
        # warmup starts from a zero rate and the trace records it
        assert rows[0][3] == 0.0
        assert rows[6][3] == pytest.approx(1e-3)

    def test_checkpoint_loads_and_forward_passes(self, workdir):
        ckpt = load_checkpoint(workdir.checkpoint)
        cfg = EncoderConfig(**ckpt.config)
        assert cfg.mixing is MixingKind.HARTLEY
        state = state_from_arrays(cfg, ckpt.arrays)
        from specmix.encoder import encoder_forward, mlm_logits
        out = mlm_logits(cfg, state, encoder_forward(cfg, state, np.arange(8) + 5))
        assert np.isfinite(out.value).all()

    def test_rerun_is_byte_identical(self, workdir):
        out = workdir.root / "rerun.spmx"
        rc = main(["train-mlm", "--config", str(workdir.config), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == workdir.checkpoint.read_bytes()

    def test_mixing_override_changes_trace_not_schema(self, workdir, tmp_path):
        traces, schemas, labels = [], [], []
        for label in ("hartley", "fourier-real"):
            cfg = write_config(
                tmp_path / f"{label}.json",
                steps=6,
                seed=11,
                paths={
                    "corpus": str(workdir.corpus),
                    "checkpoint_out": str(tmp_path / f"{label}.spmx"),
                    "loss_csv": str(tmp_path / f"{label}.csv"),
                },
            )
            rc = main(["train-mlm", "--config", str(cfg), "--mixing", label])
            assert rc == 0
            _, rows = read_trace(tmp_path / f"{label}.csv")
            traces.append([r[1] for r in rows])
            ckpt = load_checkpoint(tmp_path / f"{label}.spmx")
            schemas.append({name: arr.shape for name, arr in ckpt.arrays.items()})
            labels.append(ckpt.config["mixing"])
        assert traces[0] != traces[1]
        assert schemas[0] == schemas[1]
        assert labels == ["hartley", "fourier-real"]

    def test_seed_override_changes_trace(self, workdir, tmp_path):
        losses = {}
        for seed in (11, 99):
            cfg = write_config(
                tmp_path / f"s{seed}.json",
                steps=6,
                seed=11,
                paths={
                    "corpus": str(workdir.corpus),
                    "checkpoint_out": str(tmp_path / f"s{seed}.spmx"),
                    "loss_csv": str(tmp_path / f"s{seed}.csv"),
                },
            )
            rc = main(["train-mlm", "--config", str(cfg), "--seed", str(seed)])
            assert rc == 0
            _, rows = read_trace(tmp_path / f"s{seed}.csv")
            losses[seed] = [r[1] for r in rows]
        assert losses[11] != losses[99]

    def test_missing_output_path_fails(self, workdir, tmp_path):
        cfg = write_config(
            tmp_path / "noout.json",
            steps=2,
            seed=0,
            paths={"corpus": str(workdir.corpus)},
        )
        assert main(["train-mlm", "--config", str(cfg)]) == 1

    def test_missing_corpus_fails(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "m.json",
            steps=2,
            seed=0,
            paths={"corpus": str(tmp_path / "absent.jsonl"),
                   "checkpoint_out": str(tmp_path / "m.spmx")},
        )
        assert main(["train-mlm", "--config", str(cfg)]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_config_without_corpus_path_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "m.json", steps=2, seed=0,
                           paths={"checkpoint_out": str(tmp_path / "m.spmx")})
        assert main(["train-mlm", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: train-mlm requires paths.corpus in the config"]

    def test_encoder_without_n_layers_fails(self, workdir, tmp_path, capsys):
        encoder = {key: value for key, value in ENCODER_DICT.items() if key != "n_layers"}
        cfg = write_config(tmp_path / "m.json", steps=2, seed=0, encoder=encoder,
                           paths={"corpus": str(workdir.corpus),
                                  "checkpoint_out": str(tmp_path / "m.spmx")})
        assert main(["train-mlm", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: model.encoder: missing key(s): n_layers"]

    def test_negative_seed_flag_is_named(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.spmx"
        assert main(["train-mlm", "--config", str(workdir.config), "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"
        assert not out.exists()

    def test_requires_config_flag(self, capsys):
        assert main(["train-mlm"]) == 1
        assert "requires --config" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = {
            "model": {"encoder": dict(ENCODER_DICT)},
            "training": {"steps": 1, "seed": 0, "learning_rate": 0.1},
        }
        path.write_text(json.dumps(data))
        assert main(["train-mlm", "--config", str(path)]) == 1
        assert "learning_rate" in capsys.readouterr().err


# config key -> a mistyped or out-of-range value, and what the one error line must name
MISTYPED_CONFIG = [
    ("training.schedule", "4", "training.schedule"),
    ("training.schedule", [[None, None]], "training.schedule"),
    ("training.schedule", [[None, 2.5]], "training.schedule"),
    ("training.schedule", [[None, True]], "training.schedule"),
    ("training.schedule", [[None, "4"]], "batch_size"),
    ("training.schedule", [[2.5, 4], [None, 4]], "until_step"),
    ("training.schedule", [[None]], "training.schedule entries must be [until, batch] pairs"),
    ("training.patience", 1.5, "training.patience"),
    ("training.optimizer.warmup_steps", "5", "AdamW.warmup_steps"),
    ("training.optimizer.base_lr", "0.001", "AdamW.base_lr"),
    ("training.optimizer.beta1", True, "AdamW.beta1"),
    ("training.optimizer.eps", float("inf"), "AdamW.eps"),
    ("training.seed", -1, "training.seed"),
    ("training.steps", -3, "training.steps"),
    ("training.masking.mask_prob", float("nan"), "MaskingPolicy.mask_prob"),
    ("training.masking.keep_frac", float("nan"), "MaskingPolicy"),
    ("model.encoder.n_layers", 1.5, "EncoderConfig.n_layers"),
    ("model.encoder.d_model", 8.0, "EncoderConfig.d_model"),
    ("model.encoder.max_positions", True, "EncoderConfig.max_positions"),
    ("model.encoder.layer_norm_eps", float("nan"), "EncoderConfig): unknown key(s): layer_norm_eps"),
    ("model.decoder.layer_norm_eps", float("nan"), "DecoderConfig): unknown key(s): layer_norm_eps"),
    ("model.encoder.n_token_types", 2, "EncoderConfig): unknown key(s): n_token_types"),
    ("model.decoder.n_heads", "2", "DecoderConfig.n_heads"),
    ("model.generation.beam_size", 2.5, "GenerationConfig.beam_size"),
    ("model.generation.eos_id", 1.5, "GenerationConfig.eos_id"),
    ("training.batch_size", 16, "batch_size"),
    ("model.generation.bos_id", 77, "bos_id"),
    ("training.masking.random_frac", 0.5, "MaskingPolicy"),
    ("model.encoder.mixing", "hartly", "fourier-real, hartley"),
]


@pytest.mark.parametrize("key, value, names", MISTYPED_CONFIG)
def test_mistyped_config_integer_is_one_error_line(key, value, names, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": "abc abc abc"}])
    cfg = {
        "model": {
            "encoder": dict(ENCODER_DICT),
            "decoder": {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                        "vocab_size": 261, "max_positions": 16},
            "generation": {"beam_size": 2},
        },
        "training": {"steps": 1, "seed": 0, "schedule": [[None, 2]], "optimizer": {},
                     "masking": {}},
        "paths": {"corpus": str(corpus), "checkpoint_out": str(tmp_path / "out.spmx")},
    }
    *parents, leaf = key.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    section[leaf] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train-mlm", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert names in lines[0]
    assert not (tmp_path / "out.spmx").exists()


def test_unallocatable_model_is_one_error_line(tmp_path, capsys):
    """A 10**13-row word table is 1.14 PiB, past the address space: it fails at once.

    The corpus fills one 32-token slice, so the input check passes first.
    """
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": "abc abc abc " * 3}])
    config = write_config(tmp_path / "cfg.json", steps=1, seed=0,
                          encoder={**ENCODER_DICT, "vocab_size": 10**13},
                          paths={"corpus": str(corpus),
                                 "checkpoint_out": str(tmp_path / "out.spmx")})
    assert main(["train-mlm", "--config", str(config)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "allocate" in lines[0]
    assert not (tmp_path / "out.spmx").exists()


def test_vocabulary_of_special_ids_only_is_one_error_line(tmp_path, capsys):
    """Masking draws replacement ids above the 5 special ids, so vocab_size 5 leaves none."""
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": "abcdefgh" * 8}])
    config = write_config(tmp_path / "cfg.json", steps=1, seed=0,
                          encoder={**ENCODER_DICT, "vocab_size": 5},
                          paths={"corpus": str(corpus),
                                 "checkpoint_out": str(tmp_path / "out.spmx")})
    assert main(["train-mlm", "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: vocab_size 5 leaves no token id to draw: ids 0-4 are the 5 special ids"]
    assert not (tmp_path / "out.spmx").exists()


def no_training(*args, **kwargs):
    raise AssertionError("a training step ran before the input check")


@pytest.mark.parametrize("command", ["train-mlm", "resume"])
@pytest.mark.parametrize("vocab_size", [6, 120])
def test_corpus_id_beyond_the_vocabulary_is_one_error_line(command, vocab_size, workdir,
                                                           tmp_path, capsys, monkeypatch):
    """The packed corpus's largest id ('t', byte 116, is id 121) is checked before any step."""
    monkeypatch.setattr(cli, "train_mlm", no_training)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"text": "the cat sat on the mat. " * 4}])
    config = write_config(tmp_path / "cfg.json", steps=1, seed=0,
                          encoder={**ENCODER_DICT, "vocab_size": vocab_size},
                          paths={"corpus": str(corpus),
                                 "checkpoint_in": str(workdir.checkpoint),
                                 "checkpoint_out": str(tmp_path / "out.spmx")})
    assert main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {corpus}: corpus id 121 needs model.encoder.vocab_size >= 122, "
        f"got {vocab_size}"]
    assert not (tmp_path / "out.spmx").exists()


def no_model(*args, **kwargs):
    raise AssertionError("a model was built before the input check")


@pytest.mark.parametrize("command, key, text, message", [
    ("train-mlm", "corpus", '{"text": "abcdefghij"}\n',
     "10 tokens fill no slice of model.encoder.max_positions 64"),
    ("train-mlm", "corpus", "", "0 tokens fill no slice of model.encoder.max_positions 64"),
    ("finetune", "pairs", "", "no pairs"),
    ("finetune", "val_pairs", "", "no pairs"),
], ids=["short-corpus", "empty-corpus", "empty-pairs", "empty-val-pairs"])
def test_input_with_nothing_to_train_on_names_its_file(command, key, text, message, tmp_path,
                                                       capsys, monkeypatch):
    """An input that yields no training example is refused before any model is built."""
    monkeypatch.setattr(cli, "init_encoder_state", no_model)
    monkeypatch.setattr(cli, "init_seq2seq_state", no_model)
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    bad.write_text(text, encoding="utf-8")
    write_jsonl(good, [{"source": "ab", "target": "ab"}])
    model = {"encoder": dict(ENCODER_DICT, max_positions=64)}
    training = {"steps": 1, "seed": 0}
    paths = {key: str(bad), "checkpoint_out": str(tmp_path / "out.spmx")}
    if command == "finetune":
        model["decoder"] = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                            "vocab_size": 261, "max_positions": 16}
        training["patience"] = 2
        paths = {"pairs": str(good), "val_pairs": str(good), **paths}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "training": training, "paths": paths}))
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
    assert not (tmp_path / "out.spmx").exists()


@pytest.mark.parametrize("command", ["train-mlm", "resume"])
def test_pretraining_rejects_patience(command, workdir, tmp_path, capsys):
    """Pretraining never stops early, so training.patience is an error, not a no-op."""
    cfg = write_config(tmp_path / "cfg.json", steps=2, seed=0, paths={
        "corpus": str(workdir.corpus),
        "checkpoint_in": str(workdir.checkpoint),
        "checkpoint_out": str(tmp_path / "out.spmx"),
    })
    data = json.loads(cfg.read_text())
    data["training"]["patience"] = 2
    cfg.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training.patience")
    assert not (tmp_path / "out.spmx").exists()


def no_input(*args, **kwargs):
    raise AssertionError("an input was read before the output directories were checked")


def run_with_output_at(command, key, where, tmp_path, monkeypatch) -> int:
    """main's exit code for command with --out or paths.<key> at where, inputs unreadable."""
    for name in ("load_corpus_jsonl", "read_jsonl", "load_checkpoint"):
        monkeypatch.setattr(cli, name, no_input)
    data = tmp_path / "data.jsonl"
    data.write_text("")
    output = "output" if command == "generate" else "checkpoint_out"
    inputs = {"train-mlm": "corpus", "resume": "corpus", "finetune": "pairs",
              "generate": "sources"}[command]
    paths = {inputs: str(data), "checkpoint_in": str(data), output: str(tmp_path / "out")}
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    if key == "--out":
        argv += ["--out", str(where)]
    else:
        paths[key] = str(where)
    decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2, "vocab_size": 261,
               "max_positions": 16}
    write_config(tmp_path / "cfg.json", steps=1, seed=0, paths=paths,
                 decoder=decoder if command in ("finetune", "generate") else None)
    return main(argv)


OUTPUT_KEYS = pytest.mark.parametrize("command, key", [
    ("train-mlm", "checkpoint_out"), ("train-mlm", "--out"), ("train-mlm", "loss_csv"),
    ("resume", "checkpoint_out"), ("resume", "loss_csv"),
    ("finetune", "checkpoint_out"), ("finetune", "--out"), ("finetune", "loss_csv"),
    ("generate", "output"), ("generate", "--out"),
])


@OUTPUT_KEYS
def test_missing_output_directory_is_one_error_line_before_any_input_is_read(
        command, key, tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "dir"
    assert run_with_output_at(command, key, missing / "out", tmp_path, monkeypatch) == 1
    name = key if key == "--out" else f"paths.{key}"
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name}: no such directory: {missing}"]
    assert not (tmp_path / "out").exists()


@OUTPUT_KEYS
def test_output_that_is_a_directory_is_one_error_line_before_any_input_is_read(
        command, key, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.mkdir()
    assert run_with_output_at(command, key, taken, tmp_path, monkeypatch) == 1
    name = key if key == "--out" else f"paths.{key}"
    assert capsys.readouterr().err.splitlines() == [f"error: {name}: is a directory: {taken}"]
    assert not (tmp_path / "out").exists()
    assert list(taken.iterdir()) == []


class TestResume:
    def resume_config(self, workdir, where, steps=10, **extra_paths):
        return write_config(
            where / "resume.json",
            steps=steps,
            seed=12,
            paths={
                "corpus": str(workdir.corpus),
                "checkpoint_in": str(workdir.checkpoint),
                "checkpoint_out": str(where / "resumed.spmx"),
                "loss_csv": str(where / "resume_loss.csv"),
                **extra_paths,
            },
        )

    def test_same_kind_continues_near_prior_loss(self, workdir, tmp_path):
        cfg = self.resume_config(workdir, tmp_path)
        assert main(["resume", "--config", str(cfg)]) == 0
        _, saved = read_trace(workdir.loss_csv)
        _, resumed = read_trace(tmp_path / "resume_loss.csv")
        last, first = saved[-1][1], resumed[0][1]
        assert first <= 2.0 * last
        assert first >= 0.5 * last

    def test_mixing_swap_proceeds(self, workdir, tmp_path, capsys):
        cfg = self.resume_config(workdir, tmp_path)
        rc = main(["resume", "--config", str(cfg), "--mixing", "fourier-imag"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mixing swapped" in out
        ckpt = load_checkpoint(tmp_path / "resumed.spmx")
        assert ckpt.config["mixing"] == "fourier-imag"
        _, rows = read_trace(tmp_path / "resume_loss.csv")
        assert all(np.isfinite(r[1]) for r in rows)

    def test_swapped_weights_load_bit_exactly(self, workdir, tmp_path):
        """The swap changes only the config label, never the parameters."""
        cfg = self.resume_config(workdir, tmp_path, steps=0)
        assert main(["resume", "--config", str(cfg), "--mixing", "fourier-imag"]) == 0
        before = load_checkpoint(workdir.checkpoint).arrays
        after = load_checkpoint(tmp_path / "resumed.spmx").arrays
        assert set(before) == set(after)
        for name in before:
            assert before[name].tobytes() == after[name].tobytes()

    def test_model_encoder_must_match_checkpoint(self, workdir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "wide.json",
            steps=2,
            seed=0,
            encoder=dict(ENCODER_DICT, n_layers=3, d_model=64),
            paths={
                "corpus": str(workdir.corpus),
                "checkpoint_in": str(workdir.checkpoint),
                "checkpoint_out": str(tmp_path / "out.spmx"),
            },
        )
        assert main(["resume", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {workdir.checkpoint} encoder config differs from model.encoder in: "
            "n_layers, d_model"]
        assert not (tmp_path / "out.spmx").exists()

    def test_corrupted_crc_refused(self, workdir, tmp_path, capsys):
        broken = tmp_path / "broken.spmx"
        raw = bytearray(workdir.checkpoint.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        broken.write_bytes(bytes(raw))
        cfg = write_config(
            tmp_path / "r.json",
            steps=2,
            seed=0,
            paths={
                "corpus": str(workdir.corpus),
                "checkpoint_in": str(broken),
                "checkpoint_out": str(tmp_path / "out.spmx"),
            },
        )
        assert main(["resume", "--config", str(cfg)]) == 1
        assert "checksum" in capsys.readouterr().err

    def test_seq2seq_checkpoint_refused(self, workdir, seq2seq_run, tmp_path, capsys):
        cfg = self.resume_config(workdir, tmp_path, checkpoint_in=str(seq2seq_run.checkpoint))
        assert main(["resume", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {seq2seq_run.checkpoint} is a sequence-to-sequence checkpoint, "
            "not an encoder pretraining checkpoint"]
        assert not (tmp_path / "resumed.spmx").exists()

    def test_non_object_config_refused(self, workdir, tmp_path, capsys):
        odd = tmp_path / "odd.spmx"
        save_checkpoint(odd, 5, load_checkpoint(workdir.checkpoint).arrays)
        cfg = self.resume_config(workdir, tmp_path, checkpoint_in=str(odd))
        assert main(["resume", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "JSON object" in err[0]


@pytest.fixture(scope="module")
def seq2seq_run(tmp_path_factory):
    """Fine-tune a tiny copy model through the CLI, then decode with it."""
    root = tmp_path_factory.mktemp("cli_s2s")
    pairs = root / "pairs.jsonl"
    write_jsonl(pairs, [{"source": s, "target": s} for s in COPY_SOURCES])
    sources = root / "sources.jsonl"
    write_jsonl(sources, [{"source": s} for s in COPY_SOURCES[:6]])

    encoder = dict(ENCODER_DICT, n_layers=1)
    decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
               "vocab_size": 261, "max_positions": 16}
    generation = {"max_input_len": 32, "max_target_len": 8,
                  "beam_size": 1, "no_repeat_ngram": 2}
    config = write_config(
        root / "ft.json",
        steps=240,
        seed=5,
        encoder=encoder,
        decoder=decoder,
        generation=generation,
        base_lr=3e-3,
        warmup=20,
        batch_size=8,
        paths={
            "pairs": str(pairs),
            "checkpoint_out": str(root / "s2s.spmx"),
            "loss_csv": str(root / "ft_loss.csv"),
            "sources": str(sources),
            "output": str(root / "gen.jsonl"),
        },
    )
    gen_config = write_config(
        root / "gen.json",
        steps=0,
        seed=5,
        encoder=encoder,
        decoder=decoder,
        generation=generation,
        paths={
            "checkpoint_in": str(root / "s2s.spmx"),
            "sources": str(sources),
            "output": str(root / "gen.jsonl"),
        },
    )
    assert main(["finetune", "--config", str(config)]) == 0
    assert main(["generate", "--config", str(gen_config)]) == 0
    return SimpleNamespace(
        root=root,
        config=config,
        gen_config=gen_config,
        checkpoint=root / "s2s.spmx",
        loss_csv=root / "ft_loss.csv",
        sources=sources,
        output=root / "gen.jsonl",
        generation=GenerationConfig(**generation),
    )


class TestFinetuneAndGenerate:
    def test_loss_decreases(self, seq2seq_run):
        _, rows = read_trace(seq2seq_run.loss_csv)
        losses = [r[1] for r in rows]
        assert len(losses) == 240
        assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])

    def test_output_schema(self, seq2seq_run):
        with open(seq2seq_run.output, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 6
        assert all(set(r) == {"source", "generated"} for r in records)
        assert [r["source"] for r in records] == COPY_SOURCES[:6]

    def test_outputs_match_direct_decoding(self, seq2seq_run):
        """File contents equal in-process generation, and no bigram repeats."""
        state = _load_checkpoint_in(load_run_config(seq2seq_run.gen_config), "generate")
        tok = ByteTokenizer()
        with open(seq2seq_run.output, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            ids = generate(state, tok.encode(record["source"]), seq2seq_run.generation)
            assert tok.decode(ids) == record["generated"]
            bigrams = list(zip(ids, ids[1:]))
            assert len(bigrams) == len(set(bigrams))

    def test_checkpoint_config_sections(self, seq2seq_run):
        ckpt = load_checkpoint(seq2seq_run.checkpoint)
        assert set(ckpt.config) == {"encoder", "decoder"}
        assert any(name.startswith("encoder.") for name in ckpt.arrays)
        assert any(name.startswith("decoder.") for name in ckpt.arrays)
        assert "encoder.mlm.bias" not in ckpt.arrays

    def test_finetune_requires_decoder_section(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "nodec.json",
            steps=2,
            seed=0,
            paths={"pairs": str(tmp_path / "p.jsonl"),
                   "checkpoint_out": str(tmp_path / "o.spmx")},
        )
        write_jsonl(tmp_path / "p.jsonl", [{"source": "ab", "target": "ab"}])
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert "model.decoder" in capsys.readouterr().err

    def test_generate_rejects_mlm_checkpoint(self, workdir, seq2seq_run, tmp_path, capsys):
        data = json.loads(seq2seq_run.gen_config.read_text())
        data["paths"]["checkpoint_in"] = str(workdir.checkpoint)
        data["paths"]["output"] = str(tmp_path / "g.jsonl")
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(data))
        assert main(["generate", "--config", str(cfg)]) == 1
        assert "not a sequence-to-sequence checkpoint" in capsys.readouterr().err

    def test_too_long_source_leaves_no_output(self, seq2seq_run, tmp_path, capsys):
        sources = tmp_path / "sources.jsonl"
        sources.write_text(json.dumps({"source": "abcd"}) + "\n\n"
                           + json.dumps({"source": "x" * 50}) + "\n", encoding="utf-8")
        data = json.loads(seq2seq_run.gen_config.read_text())
        data["model"]["generation"]["max_input_len"] = 64
        data["paths"].update(sources=str(sources), output=str(tmp_path / "g.jsonl"))
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(data))
        assert main(["generate", "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {sources}:3: ")
        assert "exceeds max_positions 32" in lines[0]
        assert not (tmp_path / "g.jsonl").exists()


    def generate_config(self, seq2seq_run, tmp_path, edit):
        data = json.loads(seq2seq_run.gen_config.read_text())
        data["paths"]["output"] = str(tmp_path / "g.jsonl")
        edit(data["model"])
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(data))
        return cfg

    @pytest.mark.parametrize("section, key, value", [
        ("decoder", "n_heads", 4),
        ("encoder", "n_layers", 2),
    ])
    def test_generate_checks_the_model_against_the_checkpoint(self, section, key, value,
                                                              seq2seq_run, tmp_path, capsys):
        cfg = self.generate_config(seq2seq_run, tmp_path,
                                   lambda model: model[section].update({key: value}))
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {seq2seq_run.checkpoint} {section} config differs from model.{section} "
            f"in: {key}"]
        assert not (tmp_path / "g.jsonl").exists()

    def test_generate_requires_decoder_section(self, seq2seq_run, tmp_path, capsys):
        cfg = self.generate_config(seq2seq_run, tmp_path, lambda model: model.pop("decoder"))
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: generate requires model.decoder in the config"]
        assert not (tmp_path / "g.jsonl").exists()

    def test_generate_mixing_swap_decodes_with_the_new_kind(self, seq2seq_run, tmp_path,
                                                             capsys):
        out = tmp_path / "g.jsonl"
        assert main(["generate", "--config", str(seq2seq_run.gen_config),
                     "--mixing", "fourier-imag", "--out", str(out)]) == 0
        assert "mixing swapped hartley -> fourier-imag" in capsys.readouterr().out
        ckpt = load_checkpoint(seq2seq_run.checkpoint)
        state = seq2seq_state_from_arrays(
            EncoderConfig(**dict(ckpt.config["encoder"], mixing="fourier-imag")),
            DecoderConfig(**ckpt.config["decoder"]), ckpt.arrays)
        tok = ByteTokenizer()
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["source"] for r in records] == COPY_SOURCES[:6]
        for record in records:
            ids = generate(state, tok.encode(record["source"]), seq2seq_run.generation)
            assert tok.decode(ids) == record["generated"]

    def test_empty_source_is_one_error_line(self, seq2seq_run, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_checkpoint_in", no_model)
        sources = tmp_path / "sources.jsonl"
        write_jsonl(sources, [{"source": "abcd"}, {"source": ""}])
        data = json.loads(seq2seq_run.gen_config.read_text())
        data["paths"].update(sources=str(sources), output=str(tmp_path / "g.jsonl"))
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(data))
        assert main(["generate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {sources}:2: empty source"]
        assert not (tmp_path / "g.jsonl").exists()


def test_pairs_file_is_parsed_once(tmp_path, monkeypatch):
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [{"source": s, "target": s} for s in COPY_SOURCES[:4]])
    cfg = tmp_path / "ft.json"
    cfg.write_text(json.dumps({
        "model": {"encoder": dict(ENCODER_DICT, n_layers=1),
                  "decoder": {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                              "vocab_size": 261, "max_positions": 16}},
        "training": {"steps": 0, "seed": 0},
        "paths": {"pairs": str(pairs), "checkpoint_out": str(tmp_path / "ft.spmx")},
    }))
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(pairs):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["finetune", "--config", str(cfg)]) == 0
    assert len(opened) == 1


class TestFinetuneWarmStart:
    def test_encoder_initialized_from_pretrained(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"source": s, "target": s} for s in COPY_SOURCES[:4]])
        decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                   "vocab_size": 261, "max_positions": 16}
        cfg = write_config(
            tmp_path / "warm.json",
            steps=0,
            seed=5,
            decoder=decoder,
            paths={
                "pairs": str(pairs),
                "checkpoint_in": str(workdir.checkpoint),
                "checkpoint_out": str(tmp_path / "warm.spmx"),
            },
        )
        assert main(["finetune", "--config", str(cfg)]) == 0
        assert "initialized encoder" in capsys.readouterr().out
        pretrained = load_checkpoint(workdir.checkpoint).arrays
        warm = load_checkpoint(tmp_path / "warm.spmx").arrays
        word = warm["encoder.embeddings.word"]
        assert word.tobytes() == pretrained["embeddings.word"].tobytes()

    def test_mixing_swap_is_reported(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"source": "ab", "target": "ab"}])
        decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                   "vocab_size": 261, "max_positions": 16}
        cfg = write_config(
            tmp_path / "swap.json",
            steps=0,
            seed=5,
            encoder=dict(ENCODER_DICT, mixing="phase"),  # checkpoint is hartley
            decoder=decoder,
            paths={
                "pairs": str(pairs),
                "checkpoint_in": str(workdir.checkpoint),
                "checkpoint_out": str(tmp_path / "swap.spmx"),
            },
        )
        assert main(["finetune", "--config", str(cfg)]) == 0
        assert "mixing swapped hartley -> phase" in capsys.readouterr().out
        assert load_checkpoint(tmp_path / "swap.spmx").config["encoder"]["mixing"] == "phase"

    def test_architecture_mismatch_rejected(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"source": "ab", "target": "ab"}])
        encoder = dict(ENCODER_DICT, n_layers=1)  # checkpoint has 2 layers
        decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                   "vocab_size": 261, "max_positions": 16}
        cfg = write_config(
            tmp_path / "bad.json",
            steps=0,
            seed=5,
            encoder=encoder,
            decoder=decoder,
            paths={
                "pairs": str(pairs),
                "checkpoint_in": str(workdir.checkpoint),
                "checkpoint_out": str(tmp_path / "bad.spmx"),
            },
        )
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert "n_layers" in capsys.readouterr().err


class TestFinetuneTrainingKeys:
    """finetune reads its batch from training.schedule and stops early only on val_pairs."""

    def run(self, tmp_path, schedule, extra_paths=(), **extra_training):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"source": s, "target": s} for s in COPY_SOURCES[:4]])
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({
            "model": {"encoder": dict(ENCODER_DICT, n_layers=1),
                      "decoder": {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                                  "vocab_size": 261, "max_positions": 16}},
            "training": {"steps": 3, "seed": 0, "schedule": schedule, **extra_training},
            "paths": {"pairs": str(pairs), "checkpoint_out": str(tmp_path / "ft.spmx"),
                      "loss_csv": str(tmp_path / "ft.csv"),
                      **{key: str(pairs) for key in extra_paths}},
        }))
        return main(["finetune", "--config", str(cfg)])

    def test_schedule_sets_the_batch(self, tmp_path):
        assert self.run(tmp_path, [[None, 1]]) == 0
        _, rows = read_trace(tmp_path / "ft.csv")
        assert [r[2] for r in rows] == [1, 1, 1]

    @pytest.mark.parametrize("schedule, extra, names", [
        ([[2, 1], [None, 4]], {}, "training.schedule"),
        ([[None, 2]], {"patience": 2}, "patience"),
        ([[None, 2]], {"masking": {"mask_prob": 0.3}}, "training.masking"),
        ([[None, 2]], {"extra_paths": ("val_pairs",)}, "paths.val_pairs"),
    ])
    def test_ignored_key_is_one_error_line(self, schedule, extra, names, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(cli, "init_seq2seq_state", no_model)
        assert self.run(tmp_path, schedule, **extra) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]
        assert not (tmp_path / "ft.spmx").exists()

    def test_val_pairs_with_patience_trains(self, tmp_path):
        assert self.run(tmp_path, [[None, 2]], extra_paths=("val_pairs",), patience=2) == 0
        assert (tmp_path / "ft.spmx").exists()


class TestFinetunePairChecks:
    """finetune checks every pair against the model before its first step."""

    @pytest.mark.parametrize("key", ["pairs", "val_pairs"])
    @pytest.mark.parametrize("pair, vocab, message", [
        ({"source": "", "target": "ab"}, {}, "empty source"),
        ({"source": "x" * 40, "target": "ab"}, {},
         "source of 40 tokens exceeds model.encoder.max_positions 32"),
        ({"source": "ab", "target": "y" * 16}, {},
         "target (eos included) of 17 tokens exceeds model.decoder.max_positions 16"),
        ({"source": "az", "target": "ab"}, {"encoder": 120},
         "source id 127 needs model.encoder.vocab_size >= 128, got 120"),
        ({"source": "ab", "target": "az"}, {"decoder": 120},
         "target (eos included) id 127 needs model.decoder.vocab_size >= 128, got 120"),
    ])
    def test_bad_pair_is_one_error_line(self, key, pair, vocab, message, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(cli, "train_seq2seq", no_training)
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_jsonl(good, [{"source": s, "target": s} for s in COPY_SOURCES[:4]])
        bad.write_text(json.dumps({"source": "ab", "target": "ab"}) + "\n\n"
                       + json.dumps(pair) + "\n", encoding="utf-8")
        cfg = tmp_path / "ft.json"
        cfg.write_text(json.dumps({
            "model": {"encoder": dict(ENCODER_DICT, n_layers=1,
                                      vocab_size=vocab.get("encoder", 261)),
                      "decoder": {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                                  "vocab_size": vocab.get("decoder", 261),
                                  "max_positions": 16}},
            "training": {"steps": 3, "seed": 0, "schedule": [[None, 2]], "patience": 2},
            "paths": {"pairs": str(good), "val_pairs": str(good), key: str(bad),
                      "checkpoint_out": str(tmp_path / "ft.spmx")},
        }))
        assert main(["finetune", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:3: {message}"]
        assert not (tmp_path / "ft.spmx").exists()


class TestCheckpointHeaders:
    @pytest.mark.parametrize("decoder, names", [
        (5, "decoder (DecoderConfig) must be an object"),
        ({"n_layers": 1, "heads": 2}, "decoder (DecoderConfig): unknown key(s): heads"),
    ])
    def test_bad_decoder_header_names_the_checkpoint(self, decoder, names, seq2seq_run,
                                                     tmp_path, capsys):
        ckpt = load_checkpoint(seq2seq_run.checkpoint)
        odd = tmp_path / "odd.spmx"
        save_checkpoint(odd, dict(ckpt.config, decoder=decoder), ckpt.arrays)
        data = json.loads(seq2seq_run.gen_config.read_text())
        data["paths"].update(checkpoint_in=str(odd), output=str(tmp_path / "g.jsonl"))
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(data))
        assert main(["generate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {odd}") and names in lines[0]
        assert not (tmp_path / "g.jsonl").exists()

    def test_checkpoint_bytes(self, tmp_path):
        """Checkpoints written by train-mlm, resume and finetune are pinned byte for byte."""
        encoder = {"n_layers": 1, "d_model": 8, "d_ff": 16, "vocab_size": 261,
                   "max_positions": 16, "mixing": "phase"}
        decoder = {"n_layers": 1, "d_model": 8, "d_ff": 16, "n_heads": 2, "vocab_size": 261,
                   "max_positions": 16}
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"text": "abcdefgh" * 4}])
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl(pairs, [{"source": "ab", "target": "ab"}])
        enc_ckpt = tmp_path / "enc.spmx"

        def digest(argv, model, paths, out):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model": model, "training": {"steps": 2, "seed": 5},
                                       "paths": dict(paths, checkpoint_out=str(out))}))
            assert main([*argv, "--config", str(cfg)]) == 0
            return hashlib.sha256(out.read_bytes()).hexdigest()

        assert digest(["train-mlm"], {"encoder": encoder}, {"corpus": str(corpus)},
                      enc_ckpt) == (
            "1db7aeba09c32a333dc920126f2d8d5445c7579280272644bbbb2d651117c46c")
        assert digest(["resume", "--mixing", "hartley"], {"encoder": encoder},
                      {"corpus": str(corpus), "checkpoint_in": str(enc_ckpt)},
                      tmp_path / "resumed.spmx") == (
            "c62e20319f4d528865f0dae937f0f796d3947ec7596a2de5375dcf75aac10bc9")
        assert digest(["finetune"], {"encoder": encoder, "decoder": decoder},
                      {"pairs": str(pairs), "checkpoint_in": str(enc_ckpt)},
                      tmp_path / "s2s.spmx") == (
            "bcd72253e0a76ed24070b3d707b6078f8ad7aa301070f2369d35bff697dbc03e")


class TestEvaluate:
    def test_rouge(self, tmp_path, capsys):
        path = tmp_path / "pairs.jsonl"
        write_jsonl(path, [{"hyp": "the cat", "ref": "the cat sat"}])
        assert main(["evaluate", "--metric", "rouge", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rouge1_f 0.8000" in out
        assert "rougeL_f 0.8000" in out

    def test_relative_performance_prints_87_4(self, tmp_path, capsys):
        path = tmp_path / "tasks.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "candidate", "reference"])
            for i, (c, r) in enumerate(zip(FOURIER_MICRO, BASELINE_MICRO)):
                writer.writerow([f"task{i}", c, r])
        rc = main(["evaluate", "--metric", "relative-performance", "--input", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "87.4"

    def test_requires_input(self, capsys):
        assert main(["evaluate", "--metric", "rouge"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["evaluate", "--metric", "rouge", "--input", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --input: no such file: {path}"]

    @pytest.mark.parametrize("metric, name, text, message", [
        ("rouge", "empty.jsonl", "", "no evaluation pairs"),
        ("relative-performance", "header.csv", "task,candidate,reference\n", "no metric rows"),
    ])
    def test_input_without_rows_is_one_error_line(self, metric, name, text, message, tmp_path,
                                                  capsys):
        path = tmp_path / name
        path.write_text(text)
        assert main(["evaluate", "--metric", metric, "--input", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]

    def test_bad_csv_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        rc = main(["evaluate", "--metric", "relative-performance", "--input", str(path)])
        assert rc == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, message", [
        ("t1,1", "missing reference cell"),
        ("t1", "missing candidate, reference cell"),
        ("t1,x,1", "candidate 'x' is not a number"),
        ("t1,1,", "reference '' is not a number"),
        ("t1,inf,1", "candidate 'inf' is not finite"),
        ("t1,1,nan", "reference 'nan' is not finite"),
    ])
    def test_bad_csv_cell_names_file_and_line(self, bad_row, message, tmp_path, capsys):
        path = tmp_path / "tasks.csv"
        path.write_text(f"task,candidate,reference\nt0,1,2\n{bad_row}\n")
        rc = main(["evaluate", "--metric", "relative-performance", "--input", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}:3: {message}"]


# command -> (a valid record of its JSONL input, the field the bad lines break)
JSONL_INPUTS = {
    "train-mlm": ({"text": "abc abc"}, "text"),
    "finetune": ({"source": "ab", "target": "ab"}, "target"),
    "generate": ({"source": "ab"}, "source"),
    "evaluate": ({"hyp": "a b", "ref": "a"}, "hyp"),
}


@pytest.mark.parametrize("command", sorted(JSONL_INPUTS))
@pytest.mark.parametrize("bad", ["invalid-json", "not-an-object", "number-field", "null-field",
                                 "not-utf8"])
def test_malformed_jsonl_line_is_one_error_line(command, bad, tmp_path, capsys, request):
    good, field = JSONL_INPUTS[command]
    bad_line = {
        "invalid-json": ('{"' + field + '": ').encode(),
        "not-an-object": b"5",
        "number-field": json.dumps(dict(good, **{field: 5})).encode(),
        "null-field": json.dumps(dict(good, **{field: None})).encode(),
        "not-utf8": b"\xff\xfe",
    }[bad]
    data = tmp_path / "input.jsonl"
    data.write_bytes(json.dumps(good).encode() + b"\n" + bad_line + b"\n")
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--metric", "rouge", "--input", str(data)]
    else:
        decoder = {"n_layers": 1, "d_model": 16, "d_ff": 32, "n_heads": 2,
                   "vocab_size": 261, "max_positions": 16}
        paths = {
            "train-mlm": {"corpus": str(data), "checkpoint_out": str(out)},
            "finetune": {"pairs": str(data), "checkpoint_out": str(out)},
            "generate": {"sources": str(data), "output": str(out)},
        }[command]
        if command == "generate":
            paths["checkpoint_in"] = str(request.getfixturevalue("seq2seq_run").checkpoint)
        cfg = write_config(tmp_path / "cfg.json", steps=1, seed=0, paths=paths,
                           decoder=None if command == "train-mlm" else decoder)
        argv = [command, "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert f"{data}:2:" in lines[0]
    assert not out.exists()  # nothing written, not even a partial generate output


# command -> the flags it takes and reads
COMMAND_FLAGS = {
    "train-mlm": {"--config", "--seed", "--mixing", "--out"},
    "resume": {"--config", "--seed", "--mixing", "--out"},
    "finetune": {"--config", "--seed", "--mixing", "--out"},
    "generate": {"--config", "--mixing", "--out"},
    "evaluate": {"--metric", "--input"},
    "bench": {"--seq-lens", "--d-model", "--n-heads", "--seed", "--out"},
    "count-params": {"--config"},
}
RUN_FLAG_VALUES = {"--config": "run.json", "--seed": "3", "--mixing": "hartley",
                   "--out": "out.txt"}
# bench's removed timing knobs: it always takes bench.REPEATS samples after bench.WARMUP calls
REMOVED_BENCH_FLAGS = {"--repeats": "5", "--warmup": "2"}
DROPPED_FLAGS = [(command, flag) for command, flags in COMMAND_FLAGS.items()
                 for flag in RUN_FLAG_VALUES if flag not in flags]
DROPPED_FLAGS += [("bench", flag) for flag in REMOVED_BENCH_FLAGS]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_flags_a_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == COMMAND_FLAGS[command]


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys,
                                                        request):
    """Valid without the flag; with it, argparse stops with exit code 2 and names it."""
    rouge = tmp_path / "scored.jsonl"
    write_jsonl(rouge, [{"hyp": "the cat", "ref": "the cat sat"}])
    valid = {
        "generate": lambda: ["--config", str(request.getfixturevalue("seq2seq_run").gen_config),
                             "--out", str(tmp_path / "g.jsonl")],
        "evaluate": lambda: ["--input", str(rouge)],
        "bench": lambda: ["--seq-lens", "8", "--d-model", "8", "--n-heads", "2"],
        "count-params": lambda: [],
    }[command]()
    value = {**RUN_FLAG_VALUES, **REMOVED_BENCH_FLAGS}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *valid, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "g.jsonl").exists()


class TestBenchCommand:
    def test_markdown_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--seq-lens", "8,16", "--d-model", "8", "--n-heads", "2",
            "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "| workload |" in stdout
        assert "| hartley |" in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "workload,seq_len,d_model,iters_per_sec,speedup"
        assert len(lines) == 7

    def test_indivisible_heads_is_one_error_line(self, fake_openblas, capsys):
        # with BLAS unclamped, the arguments are still rejected before any warning
        fake_openblas(4, stuck=True)
        assert main(["bench", "--seq-lens", "8", "--d-model", "768", "--n-heads", "5"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "n_heads 5" in lines[0]

    @pytest.mark.parametrize("flags, message", [
        (["--seq-lens", "8,abc"], "error: --seq-lens: 'abc' is not an integer"),
        (["--seq-lens", "8", "--seed", "-2"], "error: --seed must be >= 0"),
        (["--seq-lens", ""], "error: --seq-lens: give one or more lengths >= 1, got ''"),
        (["--seq-lens", "8,0"], "error: --seq-lens: give one or more lengths >= 1, got '8,0'"),
    ], ids=["seq-lens", "seed", "empty-seq-lens", "zero-seq-lens"])
    def test_bad_flag_is_named_before_any_timing(self, flags, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "bench_mixing_vs_attention", None)  # timing would fail
        assert main(["bench", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [message]

    TINY = ["bench", "--seq-lens", "8", "--d-model", "8", "--n-heads", "2"]

    def test_out_in_a_missing_directory_is_named_before_any_timing(self, tmp_path, monkeypatch,
                                                                   capsys):
        def timing(*args, **kwargs):
            raise AssertionError("timed before --out was checked")

        monkeypatch.setattr(cli, "bench_mixing_vs_attention", timing)
        missing = tmp_path / "missing"
        assert main([*self.TINY, "--out", str(missing / "x.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out: no such directory: {missing}"]

    def test_out_that_is_a_directory_is_named_before_any_timing(self, tmp_path, capsys):
        assert main([*self.TINY, "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no table: nothing was timed
        assert captured.err.splitlines() == [f"error: --out: is a directory: {tmp_path}"]

    def test_warns_when_blas_is_not_clamped(self, fake_openblas, monkeypatch, capsys):
        fake_openblas(4, stuck=True)  # reads 4 under the clamp
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert main(self.TINY) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: BLAS runs 4 threads, not 1")
        assert "OPENBLAS_NUM_THREADS=1, MKL_NUM_THREADS=2" in lines[0]
        assert "OMP_NUM_THREADS" not in lines[0]

    def test_warning_says_when_no_variable_is_set(self, fake_openblas, monkeypatch, capsys):
        # no library added: no count could be read
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert main(self.TINY) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: could not read the BLAS thread count")
        assert lines[0].endswith("thread variables set: none")

    def test_no_warning_when_the_clamp_holds(self, fake_openblas, capsys):
        """One library clamped by the bench, one the environment already holds to 1."""
        pooled, held = fake_openblas(2), fake_openblas(1)
        assert main(self.TINY) == 0
        assert capsys.readouterr().err == ""
        # the timed calls and the read-back each set 1, then the previous count
        assert pooled.set_to == [1, 2, 1, 2] and pooled.threads == 2
        assert held.set_to == [1, 1, 1, 1] and held.threads == 1


class TestCountParams:
    def test_base_counts_and_delta(self, capsys):
        assert main(["count-params"]) == 0
        out = capsys.readouterr().out
        assert "85,645,568" in out
        assert "88,791,296" in out
        assert "delta: 3,145,728" in out

    def test_with_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", steps=1, seed=0, paths={},
        )
        assert main(["count-params", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        expected = count_params(EncoderConfig(**ENCODER_DICT))
        assert f"parameters: {expected:,}" in out
