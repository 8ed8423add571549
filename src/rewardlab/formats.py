"""Versioned line-delimited text formats: datasets and checkpoints, the
files `python -m rewardlab datagen` and `train` write and `train` and
`eval` read.

Common scheme: a header line `<magic> v<version> <noun>=<count>`, then
one record per line, as many as the count says. Floats are written with
repr(), which round-trips bit-exactly, so save -> load is lossless and
files diff cleanly. Every record's values are finite, its dimensions are
non-negative, and their product is its number of values. Any file that
breaks a rule below is a `CorruptFileError`, and a version other than
FORMAT_VERSION is a `VersionMismatchError`. The writers apply the finite
rule too: a NaN or infinity raises `NonFiniteValueError` and writes no file.

Dataset record:
    clip domain=<human|robot> task=<int> success=<0|1> archetype=<name|->
         seed=<int> frames=<L> width=<F> data <f0> <f1> ...
A loaded record must be a clip that generation could have made: its
labels must pass `LabeledClip`'s check (a known domain and task, archetype
`-` exactly for a success and a known failure archetype otherwise), and it
must have the same frames and width as every other record.

Checkpoint record (row-major values; `training.params_to_arrays` names):
    array <name> <ndim> <dim0> ... <v0> <v1> ...
One record per array name.
"""

import math

import numpy as np

from .datagen import Dataset, LabeledClip
from .errors import BadConfigError, CorruptFileError, NonFiniteValueError, VersionMismatchError

FORMAT_VERSION = 1
DATASET_MAGIC = "rewardlab-dataset"
CHECKPOINT_MAGIC = "rewardlab-checkpoint"


def _fmt(values, what: str) -> str:
    """Values as repr tokens; a NaN or infinity, which no reader accepts,
    raises NonFiniteValueError before any file is opened."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFiniteValueError(f"{what}: non-finite values")
    return " ".join(map(repr, values.ravel().tolist()))


def _write(path, magic: str, noun: str, records: list) -> None:
    header = f"{magic} v{FORMAT_VERSION} {noun}={len(records)}"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join([header, *records]) + "\n")


def _records(path, magic: str, noun: str) -> list:
    """The non-blank record lines of a `magic` file, as many as its header's
    `noun` count declares."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise CorruptFileError(f"{path} is empty")
    tokens = lines[0].split()
    if len(tokens) < 2 or tokens[0] != magic:
        raise CorruptFileError(f"expected a {magic} header, got {lines[0]!r}")
    if not tokens[1].startswith("v") or not tokens[1][1:].isdigit():
        raise CorruptFileError(f"malformed version token {tokens[1]!r}")
    version = int(tokens[1][1:])
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"version {version} unsupported (want {FORMAT_VERSION})")
    counts = {}
    for tok in tokens[2:]:
        key, eq, val = tok.partition("=")
        if not eq or not val.isdigit():
            raise CorruptFileError(f"malformed header field {tok!r}")
        counts[key] = int(val)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != counts.get(noun, -1):
        raise CorruptFileError(f"{path}: header declares {counts.get(noun)} {noun}, found {len(body)}")
    return body


def _values(tokens, shape: tuple, what: str) -> np.ndarray:
    """Value tokens as a finite float64 array of a non-negative `shape`."""
    if min(shape, default=0) < 0:
        raise CorruptFileError(f"{what}: negative dimensions {shape}")
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise CorruptFileError(f"{what}: malformed value: {exc}") from exc
    if values.size != math.prod(shape):
        raise CorruptFileError(f"{what}: {values.size} values, expected {math.prod(shape)}")
    if not np.isfinite(values).all():
        raise CorruptFileError(f"{what}: non-finite values")
    return values.reshape(shape)


# --- datasets ---

def save_dataset(dataset: Dataset, path) -> None:
    _write(path, DATASET_MAGIC, "clips", [
        f"clip domain={clip.domain} task={clip.task_id} success={clip.success} "
        f"archetype={clip.failure_archetype or '-'} seed={clip.seed} "
        "frames={} width={} data ".format(*clip.frames.shape)
        + _fmt(clip.frames, f"clip record {number}")
        for number, clip in enumerate(dataset.clips, start=1)
    ])


def load_dataset(path) -> Dataset:
    clips = []
    for number, ln in enumerate(_records(path, DATASET_MAGIC, "clips"), start=1):
        tokens = ln.split()
        if len(tokens) < 9 or tokens[0] != "clip" or tokens[8] != "data":
            raise CorruptFileError(f"malformed clip record: {ln[:60]!r}")
        try:
            fields = dict(tok.split("=", 1) for tok in tokens[1:8])
            shape, archetype = (int(fields["frames"]), int(fields["width"])), fields["archetype"]
            labels = dict(domain=fields["domain"], task_id=int(fields["task"]),
                          success=int(fields["success"]), seed=int(fields["seed"]),
                          failure_archetype=None if archetype == "-" else archetype)
        except (ValueError, KeyError) as exc:
            raise CorruptFileError(f"malformed clip record: {ln[:60]!r}") from exc
        where = f"clip record {number} ({ln[:60]!r})"
        try:
            clip = LabeledClip(frames=_values(tokens[9:], shape, where), **labels)
        except BadConfigError as exc:
            raise CorruptFileError(f"{where}: {exc}") from exc
        if clips and shape != clips[0].frames.shape:
            raise CorruptFileError("{}: frames={} width={} differ from record 1's frames={} "
                                   "width={}".format(where, *shape, *clips[0].frames.shape))
        clips.append(clip)
    return Dataset(clips)


# --- checkpoints (flat name -> array) ---

def save_checkpoint(arrays: dict, path) -> None:
    arrays = {name: np.asarray(arrays[name], dtype=np.float64) for name in sorted(arrays)}
    _write(path, CHECKPOINT_MAGIC, "arrays", [
        f"array {name} {arr.ndim} {' '.join(map(str, arr.shape))} "
        f"{_fmt(arr, 'array ' + name)}".rstrip()
        for name, arr in arrays.items()
    ])


def load_checkpoint(path) -> dict:
    out = {}
    for ln in _records(path, CHECKPOINT_MAGIC, "arrays"):
        tokens = ln.split()
        ndim = int(tokens[2]) if len(tokens) > 2 and tokens[2].isdigit() else -1
        dims = tokens[3:3 + ndim]
        if tokens[0] != "array" or len(dims) != ndim or not all(
                d.removeprefix("-").isdigit() for d in dims):
            raise CorruptFileError(f"malformed array record: {ln[:60]!r}")
        name = tokens[1]
        if name in out:
            raise CorruptFileError(f"array {name} appears twice")
        out[name] = _values(tokens[3 + ndim:], tuple(map(int, dims)), f"array {name}")
    return out
