"""Versioned line-delimited text formats: datasets and checkpoints, the
files `python -m rewardlab datagen` and `train` write and `train` and
`eval` read.

Common scheme: a header line `<magic> v<version> <k>=<v> ...`, then one
record per line. Floats are written with repr(), which round-trips
bit-exactly, so save -> load is lossless and files diff cleanly.

Dataset record:
    clip domain=<human|robot> task=<int> success=<0|1> archetype=<name|->
         seed=<int> frames=<L> width=<F> data <f0> <f1> ...
A loaded record must be a clip that generation could have made: its
labels must pass `LabeledClip`'s check (a known domain and task, archetype
`-` exactly for a success and a known failure archetype otherwise), and it
must have the same frames and width as every other record.

Checkpoint record (row-major values; `training.params_to_arrays` names):
    array <name> <ndim> <dim0> ... <v0> <v1> ...
"""

import numpy as np

from .datagen import Dataset, LabeledClip
from .errors import BadConfigError, CorruptFileError, VersionMismatchError

FORMAT_VERSION = 1
DATASET_MAGIC = "rewardlab-dataset"
CHECKPOINT_MAGIC = "rewardlab-checkpoint"


def _fmt(x) -> str:
    return repr(float(x))


def _header_line(magic: str, **counts) -> str:
    parts = [magic, f"v{FORMAT_VERSION}"] + [f"{k}={v}" for k, v in counts.items()]
    return " ".join(parts)


def _parse_header(line: str, magic: str) -> dict:
    tokens = line.strip().split()
    if len(tokens) < 2 or tokens[0] != magic:
        raise CorruptFileError(f"expected a {magic} header, got {line!r}")
    if not tokens[1].startswith("v") or not tokens[1][1:].isdigit():
        raise CorruptFileError(f"malformed version token {tokens[1]!r}")
    version = int(tokens[1][1:])
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"version {version} unsupported (want {FORMAT_VERSION})")
    out = {}
    for tok in tokens[2:]:
        if "=" not in tok:
            raise CorruptFileError(f"malformed header field {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = int(val)
    return out


def _read_lines(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"cannot read {path}: {exc}") from exc


# --- datasets ---

def save_dataset(dataset: Dataset, path) -> None:
    lines = [_header_line(DATASET_MAGIC, clips=len(dataset.clips))]
    for clip in dataset.clips:
        l, f = clip.frames.shape
        fields = (
            f"clip domain={clip.domain} task={clip.task_id} success={clip.success} "
            f"archetype={clip.failure_archetype or '-'} seed={clip.seed} "
            f"frames={l} width={f} data "
        )
        lines.append(fields + " ".join(_fmt(v) for v in clip.frames.ravel()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    lines = _read_lines(path)
    if not lines:
        raise CorruptFileError(f"{path} is empty")
    header = _parse_header(lines[0], DATASET_MAGIC)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != header.get("clips", -1):
        raise CorruptFileError(
            f"{path}: header declares {header.get('clips')} clips, found {len(body)}"
        )
    clips = []
    for number, ln in enumerate(body, start=1):
        tokens = ln.split()
        if len(tokens) < 9 or tokens[0] != "clip" or tokens[8] != "data":
            raise CorruptFileError(f"malformed clip record: {ln[:60]!r}")
        try:
            fields = dict(tok.split("=", 1) for tok in tokens[1:8])
            l, f = int(fields["frames"]), int(fields["width"])
            values = [float(v) for v in tokens[9:]]
            archetype = fields["archetype"]
            labels = dict(
                domain=fields["domain"],
                task_id=int(fields["task"]),
                success=int(fields["success"]),
                failure_archetype=None if archetype == "-" else archetype,
                seed=int(fields["seed"]),
            )
        except (ValueError, KeyError) as exc:
            raise CorruptFileError(f"malformed clip record: {ln[:60]!r}") from exc
        if len(values) != l * f:
            raise CorruptFileError(
                f"clip record has {len(values)} values, expected {l * f}"
            )
        where = f"clip record {number} ({ln[:60]!r})"
        try:
            clip = LabeledClip(frames=np.array(values).reshape(l, f), **labels)
        except BadConfigError as exc:
            raise CorruptFileError(f"{where}: {exc}") from exc
        if clips and (l, f) != clips[0].frames.shape:
            raise CorruptFileError("{}: frames={} width={} differ from record 1's frames={} "
                                   "width={}".format(where, l, f, *clips[0].frames.shape))
        clips.append(clip)
    return Dataset(clips)


# --- checkpoints (flat name -> array) ---

def save_checkpoint(arrays: dict, path) -> None:
    lines = [_header_line(CHECKPOINT_MAGIC, arrays=len(arrays))]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        shape = " ".join(str(d) for d in arr.shape)
        values = " ".join(_fmt(v) for v in arr.ravel())
        lines.append(f"array {name} {arr.ndim} {shape} {values}".rstrip())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> dict:
    lines = _read_lines(path)
    if not lines:
        raise CorruptFileError(f"{path} is empty")
    header = _parse_header(lines[0], CHECKPOINT_MAGIC)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != header.get("arrays", -1):
        raise CorruptFileError(
            f"{path}: header declares {header.get('arrays')} arrays, found {len(body)}"
        )
    out = {}
    for ln in body:
        tokens = ln.split()
        if len(tokens) < 3 or tokens[0] != "array":
            raise CorruptFileError(f"malformed array record: {ln[:60]!r}")
        name = tokens[1]
        try:
            ndim = int(tokens[2])
            shape = tuple(int(t) for t in tokens[3: 3 + ndim])
            values = [float(t) for t in tokens[3 + ndim:]]
        except ValueError as exc:
            raise CorruptFileError(f"malformed array record: {ln[:60]!r}") from exc
        expected = int(np.prod(shape)) if shape else 1
        if len(values) != expected:
            raise CorruptFileError(
                f"array {name} has {len(values)} values, expected {expected}"
            )
        out[name] = np.array(values).reshape(shape)
    return out

