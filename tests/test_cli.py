"""End-to-end command-line runs against tiny models in a temp directory."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from specmix.checkpoint import load_checkpoint, save_checkpoint
from specmix.cli import _load_seq2seq_checkpoint, main
from specmix.encoder import count_params, encoder_config_from_dict, state_from_arrays
from specmix.seq2seq import GenerationConfig, generate
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
            "batch_size": batch_size,
            "optimizer": {"base_lr": base_lr, "warmup_steps": warmup},
            "schedule": [[None, 4]],
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
        cfg = encoder_config_from_dict(ckpt.config)
        assert cfg.mixing.label == "hartley"
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
        state = _load_seq2seq_checkpoint(seq2seq_run.checkpoint)
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

    def test_bad_csv_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        rc = main(["evaluate", "--metric", "relative-performance", "--input", str(path)])
        assert rc == 1
        assert "header" in capsys.readouterr().err


# command -> (a valid record of its JSONL input, the field the bad lines break)
JSONL_INPUTS = {
    "train-mlm": ({"text": "abc abc"}, "text"),
    "finetune": ({"source": "ab", "target": "ab"}, "target"),
    "generate": ({"source": "ab"}, "source"),
    "evaluate": ({"hyp": "a b", "ref": "a"}, "hyp"),
}


@pytest.mark.parametrize("command", sorted(JSONL_INPUTS))
@pytest.mark.parametrize("bad", ["invalid-json", "not-an-object", "number-field", "null-field"])
def test_malformed_jsonl_line_is_one_error_line(command, bad, tmp_path, capsys, request):
    good, field = JSONL_INPUTS[command]
    bad_line = {
        "invalid-json": '{"' + field + '": ',
        "not-an-object": "5",
        "number-field": json.dumps(dict(good, **{field: 5})),
        "null-field": json.dumps(dict(good, **{field: None})),
    }[bad]
    data = tmp_path / "input.jsonl"
    data.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
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

    def test_bad_repeats(self, capsys):
        assert main(["bench", "--seq-lens", "8", "--repeats", "2"]) == 1
        assert "repeats" in capsys.readouterr().err


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
        expected = count_params(encoder_config_from_dict(ENCODER_DICT))
        assert f"parameters: {expected:,}" in out
