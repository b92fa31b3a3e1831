"""Run configuration: one strict JSON document drives every CLI command.

The schema has three sections. Unknown keys anywhere are errors, so typos
fail fast instead of silently falling back to defaults.

    {
      "model":    {"encoder": {...}, "decoder": {...}, "generation": {...}},
      "training": {"steps": int >= 0, "seed": int >= 0, "batch_size": int,
                   "patience": int | null,
                   "masking": {...}, "optimizer": {...},
                   "schedule": [[until | null, batch], ...]},
      "paths":    {"corpus": str, "pairs": str, ...}
    }

Only "model.encoder", "training.steps" and "training.seed" are required;
everything else has defaults. The keys of "training.optimizer" are the
arguments of training.AdamW, which checks their values and supplies the
defaults of the keys left out. Parsing and serialization are inverses, so a
config round-trips losslessly.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass

from .encoder import EncoderConfig, encoder_config_from_dict, encoder_config_to_dict
from .errors import ConfigError, is_int
from .seq2seq import DecoderConfig, GenerationConfig
from .training import AdamW, BatchSchedule, MaskingPolicy

PATH_KEYS = (
    "corpus",
    "pairs",
    "val_pairs",
    "checkpoint_in",
    "checkpoint_out",
    "loss_csv",
    "sources",
    "output",
)


@dataclass(frozen=True)
class RunConfig:
    encoder: EncoderConfig
    decoder: DecoderConfig | None = None
    generation: GenerationConfig | None = None
    masking: MaskingPolicy = MaskingPolicy()
    optimizer: tuple = ()
    schedule: tuple = ((None, 4),)
    steps: int = 0
    seed: int = 0
    batch_size: int = 4
    patience: int | None = None
    paths: tuple = ()

    def batch_schedule(self) -> BatchSchedule:
        return BatchSchedule(list(self.schedule))

    def build_optimizer(self) -> AdamW:
        return AdamW(**dict(self.optimizer))

    def path(self, key: str) -> str | None:
        return dict(self.paths).get(key)


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(data: dict, where: str, allowed) -> dict:
    """data[last part of where] ({} when absent), checked to be an object of allowed keys."""
    value = data.get(where.rpartition(".")[2], {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    _check_keys(value, allowed, where)
    return value


def _build(cls, parent: dict, where: str):
    """Construct a config dataclass from the section at where, rejecting unknown keys."""
    data = _section(parent, where, [f.name for f in dataclasses.fields(cls)])
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad {where}: {exc}") from exc


def _parse_schedule(raw, where: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a non-empty list of [until, batch] pairs")
    phases = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{where} entries must be [until, batch] pairs, got {item!r}")
        phases.append((item[0], item[1]))
    BatchSchedule(phases)  # delegate boundary/ordering validation
    return tuple(phases)


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, ("model", "training", "paths"), "config")

    model = _section(data, "model", ("encoder", "decoder", "generation"))
    if "encoder" not in model:
        raise ConfigError("model.encoder is required")
    encoder = encoder_config_from_dict(
        _section(model, "model.encoder", [f.name for f in dataclasses.fields(EncoderConfig)]))
    decoder = _build(DecoderConfig, model, "model.decoder") if "decoder" in model else None
    generation = (
        _build(GenerationConfig, model, "model.generation") if "generation" in model else None
    )

    training = _section(data, "training", ("masking", "optimizer", "schedule", "steps", "seed",
                                           "batch_size", "patience"))
    for key in ("steps", "seed"):
        if key not in training:
            raise ConfigError(f"training.{key} is required")
        if not is_int(training[key]) or training[key] < 0:
            raise ConfigError(f"training.{key} must be an integer >= 0")
    masking = _build(MaskingPolicy, training, "training.masking")
    adamw_args = inspect.signature(AdamW).parameters
    optimizer = _section(training, "training.optimizer", adamw_args)
    AdamW(**optimizer)  # delegate value validation
    schedule = _parse_schedule(training.get("schedule", [[None, 4]]), "training.schedule")
    batch_size = training.get("batch_size", 4)
    patience = training.get("patience", None)
    if not is_int(batch_size) or batch_size < 1:
        raise ConfigError("training.batch_size must be an integer >= 1")
    if patience is not None and (not is_int(patience) or patience < 1):
        raise ConfigError("training.patience must be an integer >= 1 when set")

    paths = _section(data, "paths", PATH_KEYS)
    for key, value in paths.items():
        if not isinstance(value, str):
            raise ConfigError(f"paths.{key} must be a string")

    return RunConfig(
        encoder=encoder,
        decoder=decoder,
        generation=generation,
        masking=masking,
        optimizer=tuple((key, optimizer[key]) for key in adamw_args if key in optimizer),
        schedule=schedule,
        steps=training["steps"],
        seed=training["seed"],
        batch_size=batch_size,
        patience=patience,
        paths=tuple((key, paths[key]) for key in PATH_KEYS if key in paths),
    )


def run_config_to_dict(cfg: RunConfig) -> dict:
    model = {"encoder": encoder_config_to_dict(cfg.encoder)}
    if cfg.decoder is not None:
        model["decoder"] = dataclasses.asdict(cfg.decoder)
    if cfg.generation is not None:
        model["generation"] = dataclasses.asdict(cfg.generation)
    return {
        "model": model,
        "training": {
            "masking": dataclasses.asdict(cfg.masking),
            "optimizer": dict(cfg.optimizer),
            "schedule": [[until, batch] for until, batch in cfg.schedule],
            "steps": cfg.steps,
            "seed": cfg.seed,
            "batch_size": cfg.batch_size,
            "patience": cfg.patience,
        },
        "paths": dict(cfg.paths),
    }


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_run_config(data)


def save_run_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
