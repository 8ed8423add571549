import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rewardlab import datagen as dg, formats, simworld as sw, training
from rewardlab.config import ExperimentConfig
from rewardlab.errors import CorruptFileError, NonFiniteValueError, VersionMismatchError


@pytest.fixture(scope="module")
def dataset():
    cfg = ExperimentConfig(
        train_tasks=(sw.TASK_OPEN_DRAWER,), heldout_tasks=(), human_per_task=2,
        robot_success_per_task=2, robot_failure_per_task=2, seed=9,
    )
    return dg.gen_dataset(cfg)


def relabel(**fields):
    """Record edit: replace the named label fields."""
    def edit(tokens):
        return [f"{tok.split('=')[0]}={fields[tok.split('=')[0]]}"
                if tok.split("=")[0] in fields else tok for tok in tokens]
    return edit


def drop_last_frame(tokens):
    """Record edit: one frame fewer, its values dropped."""
    width = int(next(tok for tok in tokens if tok.startswith("width=")).split("=")[1])
    frames = int(next(tok for tok in tokens if tok.startswith("frames=")).split("=")[1])
    return relabel(frames=frames - 1)(tokens)[:-width]


# id -> (edit of the third record's tokens, expected message); the fixture's
# third record is a robot success
BAD_RECORDS = {
    "unknown-domain": (relabel(domain="alien"), "unknown domain 'alien'"),
    "success-2": (relabel(success=2, archetype="wander"), "success must be 0 or 1, got 2"),
    "success-with-archetype": (relabel(archetype="wander"), "a success has failure archetype"),
    "unknown-archetype": (relabel(success=0, archetype="flail"), "unknown failure archetype 'flail'"),
    "negative-task": (relabel(task=-1), "unknown task -1"),
    "short-clip": (drop_last_frame, "frames=3 width=16 differ from record 1's frames=4 width=16"),
    # 64 values, as many as the frames=4 width=16 they replace
    "negative-dimensions": (relabel(frames=-4, width=-16), "negative dimensions"),
    "nan-value": (lambda tokens: tokens[:9] + ["nan"] + tokens[10:], "non-finite values"),
}


def write_with_bad_record(path, edit):
    lines = path.read_text().splitlines()
    lines[3] = " ".join(edit(lines[3].split()))
    path.write_text("\n".join(lines) + "\n")


class TestDatasetFormat:
    def test_round_trip_bit_identical(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        back = formats.load_dataset(path)
        assert len(back) == len(dataset)
        for a, b in zip(dataset.clips, back.clips):
            assert np.array_equal(a.frames, b.frames)
            assert a.domain == b.domain and a.task_id == b.task_id
            assert a.success == b.success and a.failure_archetype == b.failure_archetype
            assert a.seed == b.seed

    def test_truncated_file_is_corrupt(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.6)])
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)

    def test_dropped_record_is_corrupt(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)

    @pytest.mark.parametrize("field, bad", [("task", "task=x"), ("seed", "seed=1.5"), ("domain", "dom=human")])
    def test_malformed_label_field_is_corrupt(self, dataset, tmp_path, field, bad):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        tokens = lines[1].split()
        tokens = [bad if tok.startswith(field + "=") else tok for tok in tokens]
        path.write_text("\n".join([lines[0], " ".join(tokens)] + lines[2:]) + "\n")
        with pytest.raises(CorruptFileError, match="malformed clip record"):
            formats.load_dataset(path)

    @pytest.mark.parametrize("edit, message", BAD_RECORDS.values(), ids=list(BAD_RECORDS))
    def test_impossible_clip_record_is_corrupt(self, dataset, tmp_path, edit, message):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        write_with_bad_record(path, edit)
        with pytest.raises(CorruptFileError, match=rf"clip record 3 \('clip .*{message}"):
            formats.load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_frames_are_refused_before_the_file_is_opened(self, dataset, tmp_path, bad):
        clips = list(dataset.clips)
        frames = clips[2].frames.copy()
        frames[1, 3] = bad
        clips[2] = replace(clips[2], frames=frames)
        path = tmp_path / "ds.txt"
        with pytest.raises(NonFiniteValueError, match="clip record 3: non-finite values"):
            formats.save_dataset(dg.Dataset(clips), path)
        assert not path.exists()

    def test_version_mismatch(self, dataset, tmp_path):
        path = tmp_path / "ds.txt"
        formats.save_dataset(dataset, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("v1", "v99")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatchError):
            formats.load_dataset(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("something-else v1 clips=0\n")
        with pytest.raises(CorruptFileError):
            formats.load_dataset(path)


@pytest.mark.parametrize("load, text, message", [
    (formats.load_dataset, "", "is empty"),
    (formats.load_dataset, "rewardlab-dataset vX clips=0\n", "malformed version token 'vX'"),
    (formats.load_dataset, "rewardlab-dataset v1 clips=1\nclip domain=robot task=0\n",
     "malformed clip record"),
    (formats.load_checkpoint, "rewardlab-checkpoint v1 arrays=1\narray a 1 2 1.0 x\n",
     "array a: malformed value"),
    (formats.load_checkpoint, "rewardlab-checkpoint v1 arrays=1\narray a 2 1\n",
     "malformed array record"),
], ids=["empty-file", "version-token", "clip-record", "value", "array-record"])
def test_each_malformed_file_is_corrupt(tmp_path, load, text, message):
    path = tmp_path / "file.txt"
    path.write_text(text)
    with pytest.raises(CorruptFileError, match=message):
        load(path)


class TestCheckpointFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            "video.frame_proj": rng.normal(size=(16, 32)),
            "pool.prompt.4.0": rng.normal(size=(2, 32)),
            "scalarish": np.array(3.5),
        }
        path = tmp_path / "ckpt.txt"
        formats.save_checkpoint(arrays, path)
        back = formats.load_checkpoint(path)
        assert set(back) == set(arrays)
        for name in arrays:
            assert np.array_equal(back[name], np.asarray(arrays[name]))

    @pytest.mark.parametrize("text, message", [
        ("arrays=x", "malformed header field 'arrays=x'"),
        ("arrays=1\narray a 2 -1 -1 5", r"array a: negative dimensions \(-1, -1\)"),
        ("arrays=1\narray a 2 1 2 nan 1.0", "array a: non-finite values"),
        ("arrays=1\narray a 0 -inf", "array a: non-finite values"),
        ("arrays=2\narray a 1 1 1.0\narray a 1 1 2.0", "array a appears twice"),
    ], ids=["non-integer-count", "negative-dimensions", "nan", "minus-inf", "repeated-name"])
    def test_impossible_checkpoint_is_corrupt(self, tmp_path, text, message):
        path = tmp_path / "ckpt.txt"
        path.write_text(f"rewardlab-checkpoint v1 {text}\n")
        with pytest.raises(CorruptFileError, match=message):
            formats.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_arrays_are_refused_before_the_file_is_opened(self, tmp_path, bad):
        path = tmp_path / "ckpt.txt"
        with pytest.raises(NonFiniteValueError, match="array b: non-finite values"):
            formats.save_checkpoint({"a": np.ones(2), "b": np.array([[1.0, bad]])}, path)
        assert not path.exists()

    def test_value_count_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        formats.save_checkpoint({"w": np.ones((2, 2))}, path)
        lines = path.read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:-1])  # drop one value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptFileError):
            formats.load_checkpoint(path)


# a seeded dataset with human clips, a robot success and every failure
# archetype (wander, revert, wander, incomplete), and its fvlc checkpoint
PIN_CONFIG = ExperimentConfig(
    train_tasks=(sw.TASK_OPEN_DRAWER,), heldout_tasks=(), human_per_task=2,
    robot_success_per_task=1, robot_failure_per_task=4, seed=4, k_clusters=2,
    batch_human=2, batch_robot=1, batch_failure=2, epochs=1, steps_per_epoch=2,
)
# sha256 of the v1 files these inputs give; any change to the bytes a
# writer makes is a format change
V1_SHA256 = {
    "dataset": "e8813ea1f04dae4696bbf93390cbe6f5a7d60d1fc8dc3c9a08bab0d12e741c6f",
    "fvlc-checkpoint": "ec66adf6889a9f2363afd5c8b08f87618840054b973542ad1e05b66cf8355f4f",
    # a 0-d array (empty shape field: `array s 0  3.5`) and a (0, 2) one
    "edge-checkpoint": "54190f55fefa126a40d99291b1bb21dbb84676403339157127a83c64a9b1ef63",
}


@pytest.fixture(scope="module")
def pinned_inputs():
    dataset = dg.gen_dataset(PIN_CONFIG)
    assert [(c.domain, c.failure_archetype) for c in dataset.clips] == [
        ("human", None), ("human", None), ("robot", None), ("robot", "wander"),
        ("robot", "revert"), ("robot", "wander"), ("robot", "incomplete")]
    params = training.params_to_arrays(training.train(PIN_CONFIG, dataset).params)
    return {
        "dataset": (formats.save_dataset, formats.load_dataset, dataset),
        "fvlc-checkpoint": (formats.save_checkpoint, formats.load_checkpoint, params),
        "edge-checkpoint": (formats.save_checkpoint, formats.load_checkpoint,
                            {"s": np.array(3.5), "e": np.zeros((0, 2))}),
    }


@pytest.mark.parametrize("kind", list(V1_SHA256))
def test_writers_keep_the_v1_bytes(pinned_inputs, tmp_path, kind):
    save, load, value = pinned_inputs[kind]
    first, second = tmp_path / "first", tmp_path / "second"
    save(value, first)
    assert hashlib.sha256(first.read_bytes()).hexdigest() == V1_SHA256[kind]
    # what the reader gives back writes the same bytes again
    save(load(first), second)
    assert second.read_bytes() == first.read_bytes()
