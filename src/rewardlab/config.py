"""Experiment configuration: one flat dataclass, addressable from a plain
`key = value` text file (`python -m rewardlab <command> --config PATH`).
Unknown keys, repeated keys, non-finite floats and out-of-range values are
errors that name the field. The seed comes from the --seed flag if given,
else from the config file, else the default; no environment variable
changes it.
"""

import math
from dataclasses import dataclass, fields, replace

from . import dynamics as dyn, simworld as sw
from .datagen import FAILURE_SOURCES
from .embeddings import stream_seed
from .errors import BadConfigError
from .losses import MODES
from .render import VARIANTS


@dataclass(frozen=True)
class ExperimentConfig:
    # training objective
    mode: str = "fvlc"                  # no_failure | bce | fvlc
    k_clusters: int = 3
    prompt_len: int = 2
    tau: float = 0.07
    # batch strata
    batch_human: int = 8
    batch_robot: int = 8
    batch_failure: int = 8
    # schedule
    epochs: int = 30
    steps_per_epoch: int = 0            # 0: two passes over the human stratum
    lr_encoder: float = 1e-3
    lr_prompts: float = 1e-2
    grad_clip: float = 5.0
    seed: int = 0
    # model dimensions
    clip_frames: int = 4
    hidden_width: int = 32
    embed_dim: int = 32
    # task split and environment
    train_tasks: tuple = sw.TRAIN_TASKS
    heldout_tasks: tuple = sw.TARGET_TASKS
    env_variant: str = "train"
    # dataset counts
    human_per_task: int = 60
    robot_success_per_task: int = 20
    robot_failure_per_task: int = 20
    eval_success_per_task: int = 16
    eval_failure_per_task: int = 16
    failure_sources: tuple = ("random", "near_success")
    noise: float = 0.05
    # planning
    plan_candidates: int = 300
    plan_horizon: int = 60
    plan_trials: int = 50
    plan_seeds: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise BadConfigError(f"unknown mode {self.mode!r}")
        for name, low in _AT_LEAST.items():
            value, strict = getattr(self, name), name in _POSITIVE
            if _FIELD_TYPES[name] == "float" and not math.isfinite(value):
                raise BadConfigError(f"{name} must be finite, got {value!r}")
            if not (value > low if strict else value >= low):
                raise BadConfigError(f"{name} must be {'>' if strict else '>='} {low}, got {value!r}")
        for name in ("train_tasks", "heldout_tasks", "failure_sources"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise BadConfigError(f"{name} repeats an entry: {getattr(self, name)}")
        for name in ("train_tasks", "heldout_tasks"):
            if any(t not in sw.TASK_NAMES for t in getattr(self, name)):
                raise BadConfigError(f"{name} has unknown task ids: {getattr(self, name)}")
        both = sorted(set(self.train_tasks) & set(self.heldout_tasks))
        if both:
            raise BadConfigError(f"train_tasks and heldout_tasks share task {both[0]}: "
                                 f"a trained task cannot be scored as held out")
        if not self.failure_sources or any(s not in FAILURE_SOURCES for s in self.failure_sources):
            raise BadConfigError(f"failure_sources must be drawn from {FAILURE_SOURCES}, "
                                 f"got {self.failure_sources}")
        if self.env_variant not in VARIANTS:
            raise BadConfigError(f"unknown env_variant {self.env_variant!r}")
        if self.plan_horizon % dyn.CHUNK != 0:
            raise BadConfigError(f"plan_horizon must be divisible by {dyn.CHUNK}")

    @property
    def all_tasks(self) -> tuple:
        return tuple(sorted(set(self.train_tasks) | set(self.heldout_tasks)))

    def derived_seed(self, *words) -> int:
        """The seed in [0, 2**31) of the stream [self.seed, *words]: its
        `embeddings.stream_seed`, modulo 2**31."""
        return stream_seed(self.seed, *words) % 2**31


# lower bounds of the numeric fields; the _POSITIVE ones must exceed theirs
_AT_LEAST = {
    "k_clusters": 1, "prompt_len": 1, "tau": 0.0,
    "batch_human": 1, "batch_robot": 1, "batch_failure": 0,
    "epochs": 1, "steps_per_epoch": 0, "lr_encoder": 0.0, "lr_prompts": 0.0, "grad_clip": 0.0,
    "seed": 0, "clip_frames": 1, "hidden_width": 1, "embed_dim": 1,
    "human_per_task": 0, "robot_success_per_task": 0, "robot_failure_per_task": 0,
    "eval_success_per_task": 0, "eval_failure_per_task": 0, "noise": 0.0,
    "plan_candidates": 1, "plan_horizon": dyn.CHUNK, "plan_trials": 1, "plan_seeds": 1,
}
_POSITIVE = {"tau", "grad_clip"}

_FIELD_TYPES = {
    f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
    for f in fields(ExperimentConfig)
}


def _parse_value(name: str, text: str):
    kind = _FIELD_TYPES[name]
    text = text.strip()
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "tuple":
        if not text:
            return ()
        items = [t.strip() for t in text.split(",") if t.strip()]
        if name == "failure_sources":
            return tuple(items)
        return tuple(int(t) for t in items)
    return text  # str fields


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines over the defaults; '#' starts a comment;
    an unknown or repeated key is an error."""
    overrides, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise BadConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise BadConfigError(f"line {lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            overrides[key] = _parse_value(key, value)
        except ValueError as exc:
            raise BadConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return ExperimentConfig(**overrides)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadConfigError(f"{path} is not an ASCII config file: {exc}") from exc
    return parse_config_text(text)


def resolve_seed(config: ExperimentConfig, flag_seed: int | None = None) -> ExperimentConfig:
    """The --seed flag, when given, beats the config file's seed."""
    return config if flag_seed is None else replace(config, seed=int(flag_seed))
