"""Run-config parsing: strict schema, defaults, loading from a file."""

import json
import re
from pathlib import Path

import pytest

from specmix.config import RunConfig, load_run_config, parse_run_config
from specmix.encoder import EncoderConfig
from specmix.errors import ConfigError
from specmix.seq2seq import DecoderConfig, GenerationConfig
from specmix.spectral import MixingKind

MINIMAL = {
    "model": {
        "encoder": {
            "n_layers": 2,
            "d_model": 16,
            "d_ff": 32,
            "vocab_size": 261,
            "max_positions": 32,
            "mixing": "hartley",
        }
    },
    "training": {"steps": 10, "seed": 7},
}


def full_dict():
    return {
        "model": {
            "encoder": dict(MINIMAL["model"]["encoder"]),
            "decoder": {
                "n_layers": 1,
                "d_model": 16,
                "d_ff": 32,
                "n_heads": 2,
                "vocab_size": 261,
                "max_positions": 16,
            },
            "generation": {"max_input_len": 32, "max_target_len": 8, "beam_size": 2},
        },
        "training": {
            "steps": 20,
            "seed": 3,
            "patience": 3,
            "masking": {"mask_prob": 0.2},
            "optimizer": {"base_lr": 1e-3, "warmup_steps": 5},
            "schedule": [[10, 2], [None, 4]],
        },
        "paths": {"corpus": "corpus.jsonl", "checkpoint_out": "model.spmx"},
    }


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_run_config(MINIMAL)
        assert cfg.encoder == EncoderConfig(
            n_layers=2, d_model=16, d_ff=32, vocab_size=261,
            max_positions=32, mixing=MixingKind.HARTLEY,
        )
        assert cfg.decoder is None and cfg.generation is None
        assert cfg.masking is None  # train_mlm then masks by MaskingPolicy's defaults
        assert cfg.optimizer == ()
        assert cfg.schedule == ((None, 4),)
        assert (cfg.steps, cfg.seed) == (10, 7)
        assert cfg.patience is None
        assert cfg.path("corpus") is None

    def test_full_config(self):
        cfg = parse_run_config(full_dict())
        assert cfg.decoder == DecoderConfig(
            n_layers=1, d_model=16, d_ff=32, n_heads=2, vocab_size=261, max_positions=16
        )
        assert cfg.generation == GenerationConfig(
            max_input_len=32, max_target_len=8, beam_size=2
        )
        assert cfg.masking.mask_prob == 0.2
        assert cfg.optimizer == (("base_lr", 1e-3), ("warmup_steps", 5))
        assert cfg.schedule == ((10, 2), (None, 4))
        assert cfg.batch_schedule().batch_at(9) == 2
        assert cfg.batch_schedule().batch_at(10) == 4
        assert cfg.path("checkpoint_out") == "model.spmx"

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(extra=1), "config"),
            (lambda d: d["model"].update(encodr=1), "model"),
            (lambda d: d["model"]["encoder"].update(depth=3), "model.encoder"),
            (lambda d: d["model"]["decoder"].update(heads=2), "model.decoder"),
            (lambda d: d["model"]["generation"].update(temp=1.0), "model.generation"),
            (lambda d: d["training"].update(step=5), "training"),
            (lambda d: d["training"]["masking"].update(prob=0.1), "training.masking"),
            (lambda d: d["training"]["optimizer"].update(lr=0.1), "training.optimizer"),
            (lambda d: d["paths"].update(out="x"), "paths"),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, mutate, fragment):
        data = full_dict()
        mutate(data)
        with pytest.raises(ConfigError, match=fragment):
            parse_run_config(data)

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="encoder"):
            parse_run_config({"model": {}, "training": {"steps": 1, "seed": 0}})
        with pytest.raises(ConfigError, match="steps"):
            parse_run_config({"model": MINIMAL["model"], "training": {"seed": 0}})
        with pytest.raises(ConfigError, match="seed"):
            parse_run_config({"model": MINIMAL["model"], "training": {"steps": 1}})

    def test_type_errors(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["training"]["steps"] = "many"
        with pytest.raises(ConfigError, match="integer"):
            parse_run_config(bad)
        bad = json.loads(json.dumps(MINIMAL))
        bad["paths"] = {"corpus": 5}
        with pytest.raises(ConfigError, match="corpus"):
            parse_run_config(bad)
        with pytest.raises(ConfigError, match="object"):
            parse_run_config([1, 2])

    def test_invalid_nested_values_surface_as_config_errors(self):
        bad = full_dict()
        bad["model"]["decoder"]["n_heads"] = 5  # 16 % 5 != 0
        with pytest.raises(ConfigError, match="divisible"):
            parse_run_config(bad)
        bad = full_dict()
        bad["training"]["schedule"] = [[None, 4], [10, 2]]
        with pytest.raises(ConfigError):
            parse_run_config(bad)
        bad = full_dict()
        bad["training"]["patience"] = 0
        with pytest.raises(ConfigError, match="patience"):
            parse_run_config(bad)


def test_readme_run_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = parse_run_config(json.loads(blocks[0]))
    assert cfg.decoder is not None and cfg.generation is not None


class TestLoadRunConfig:
    def test_file_loads_as_parsed(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(full_dict()), encoding="utf-8")
        assert load_run_config(path) == parse_run_config(full_dict())

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.json")

    def test_optimizer_settings_build(self):
        opt = parse_run_config(full_dict()).build_optimizer()
        assert opt.base_lr == 1e-3
        assert opt.warmup_steps == 5
        assert opt.step_count == 0

    def test_run_config_is_frozen(self):
        cfg = parse_run_config(MINIMAL)
        with pytest.raises(Exception):
            cfg.steps = 5
        assert isinstance(cfg, RunConfig)
