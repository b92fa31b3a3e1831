"""Run configuration: one strict JSON document drives every CLI command.

The schema has three sections. Unknown keys anywhere are errors, so typos
fail fast instead of silently falling back to defaults.

    {
      "model":    {"encoder": {...}, "decoder": {...}, "generation": {...}},
      "training": {"steps": int >= 0, "seed": int >= 0,
                   "patience": int | null,
                   "masking": {...}, "optimizer": {...},
                   "schedule": [[until | null, batch], ...]},
      "paths":    {"corpus": str, "pairs": str, ...}
    }

Only "model.encoder", "training.steps" and "training.seed" are required;
everything else has defaults. The keys of "model.encoder", "model.decoder",
"model.generation", "training.masking" and "training.optimizer" are the
arguments of EncoderConfig, DecoderConfig, GenerationConfig, MaskingPolicy
and training.AdamW, which check their values and supply the defaults of the
keys left out; errors.build_config reads all five. "training.schedule" sets
the batch size: pretraining follows its phases, and fine-tuning, whose early
stopping counts epochs at a constant batch, takes exactly one open-ended
phase [[null, batch]]. "training.masking" is read only by pretraining and
"training.patience" (with "paths.val_pairs") only by fine-tuning; the CLI
rejects a config that gives a command a training key it would ignore.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .encoder import EncoderConfig
from .errors import ConfigError, build_config, check_keys, is_int
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
    masking: MaskingPolicy | None = None
    optimizer: tuple = ()
    schedule: tuple = ((None, 4),)
    steps: int = 0
    seed: int = 0
    patience: int | None = None
    paths: tuple = ()

    def batch_schedule(self) -> BatchSchedule:
        return BatchSchedule(list(self.schedule))

    def build_optimizer(self) -> AdamW:
        return AdamW(**dict(self.optimizer))

    def path(self, key: str) -> str | None:
        return dict(self.paths).get(key)


def _section(parent: dict, where: str, allowed) -> dict:
    """parent[last part of where] ({} when absent), checked to be an object of allowed keys."""
    return check_keys(parent.get(where.rpartition(".")[2], {}), allowed, where)


def _parse_schedule(raw, where: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a non-empty list of [until, batch] pairs")
    phases = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{where} entries must be [until, batch] pairs, got {item!r}")
        phases.append((item[0], item[1]))
    try:
        BatchSchedule(phases)  # delegate boundary/ordering validation
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return tuple(phases)


def parse_run_config(data: dict) -> RunConfig:
    check_keys(data, ("model", "training", "paths"), "config")

    model = _section(data, "model", ("encoder", "decoder", "generation"))
    if "encoder" not in model:
        raise ConfigError("model.encoder is required")
    encoder = build_config(EncoderConfig, model["encoder"], "model.encoder")
    decoder = (build_config(DecoderConfig, model["decoder"], "model.decoder")
               if "decoder" in model else None)
    generation = (build_config(GenerationConfig, model["generation"], "model.generation")
                  if "generation" in model else None)

    training = _section(data, "training", ("masking", "optimizer", "schedule", "steps", "seed",
                                           "patience"))
    for key in ("steps", "seed"):
        if key not in training:
            raise ConfigError(f"training.{key} is required")
        if not is_int(training[key]) or training[key] < 0:
            raise ConfigError(f"training.{key} must be an integer >= 0")
    masking = (build_config(MaskingPolicy, training["masking"], "training.masking")
               if "masking" in training else None)
    optimizer = training.get("optimizer", {})
    build_config(AdamW, optimizer, "training.optimizer")  # delegate key and value validation
    schedule = _parse_schedule(training.get("schedule", [[None, 4]]), "training.schedule")
    patience = training.get("patience", None)
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
        optimizer=tuple(sorted(optimizer.items())),
        schedule=schedule,
        steps=training["steps"],
        seed=training["seed"],
        patience=patience,
        paths=tuple((key, paths[key]) for key in PATH_KEYS if key in paths),
    )


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_run_config(data)
