"""Batch-strata validation, typed non-finite failures, the sampler's draws
against a per-try, per-pick loop reference, and the checkpoint mapping."""

from dataclasses import replace

import numpy as np
import pytest

from rewardlab import (
    encoders as enc, evaluation, formats, losses, render, simworld as sw, training,
)
from rewardlab.config import ExperimentConfig
from rewardlab.datagen import Dataset, LabeledClip
from rewardlab.errors import (
    BadConfigError, CorruptFileError, InsufficientStratumError, NonFiniteValueError,
)

CONFIG = ExperimentConfig(
    seed=5,
    heldout_tasks=(sw.TASK_FAUCET,),
    human_per_task=4,
    robot_success_per_task=4,
    robot_failure_per_task=5,
    k_clusters=2,
    batch_human=4,
    batch_robot=4,
    batch_failure=4,
    epochs=1,
    steps_per_epoch=2,
)


@pytest.fixture(scope="module")
def dataset():
    return evaluation.train_dataset_for(CONFIG)


class TestBatchStrata:
    @pytest.mark.parametrize("field, value", [
        ("batch_human", 0), ("batch_robot", 0), ("batch_failure", -1),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(BadConfigError):
            ExperimentConfig(**{field: value})

    def test_no_failure_rows_accepted(self, dataset):
        config = replace(CONFIG, batch_failure=0)
        result = training.train(config, dataset)
        assert np.isfinite(result.final_loss)


class TestNonFinite:
    def test_encoder_parameters(self):
        params = enc.init_video_encoder(np.random.default_rng(0))
        params.out_bias[0] = np.nan
        with pytest.raises(NonFiniteValueError):
            enc.encode_clips_cached(np.zeros((1, 4, 16)), params)

    def test_train_step_loss(self, dataset):
        # at this temperature the logits overflow and the loss is NaN
        config = replace(CONFIG, tau=1e-310)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValueError, match="total loss"):
            training.train(config, dataset)


def loop_sample_batch(data, config, rng, pseudo_labels):
    """The sampler one try and one failure pick at a time."""
    n_h, n_r = len(data.human_labels), len(data.robot_labels)
    for _ in range(100):
        h_idx = rng.choice(n_h, size=config.batch_human, replace=False)
        r_idx = rng.choice(n_r, size=config.batch_robot, replace=False)
        labels = np.concatenate([data.human_labels[h_idx], data.robot_labels[r_idx]])
        counts = {t: int(np.sum(labels == t)) for t in set(labels.tolist())}
        if all(c >= 2 for c in counts.values()):
            break
    else:
        raise InsufficientStratumError("could not satisfy positive-set constraint")
    clips = np.concatenate([data.human_frames[h_idx], data.robot_frames[r_idx]])
    fail_clips, fail_labels, fail_clusters = [], [], []
    if config.mode != "no_failure" and config.batch_failure:
        flat = [(t, i) for t in data.fail_tasks for i in range(len(data.fail_clips_by_task[t]))]
        for pick in rng.choice(len(flat), size=config.batch_failure, replace=False):
            task, i = flat[int(pick)]
            fail_clips.append(data.fail_clips_by_task[task][i])
            fail_labels.append(task)
            plabels = pseudo_labels.get(task)
            fail_clusters.append(int(plabels[i]) if plabels is not None else 0)
    return clips, labels, fail_clips, fail_labels, fail_clusters


@pytest.mark.parametrize("mode", losses.MODES)
def test_sampler_draws_match_loop_reference(dataset, mode):
    config = replace(CONFIG, mode=mode)
    data = training._IndexedData(dataset, config)
    label_rng = np.random.default_rng(9)
    pseudo_labels = {} if mode != "fvlc" else {
        t: label_rng.integers(0, config.k_clusters, size=len(data.fail_clips_by_task[t]))
        for t in data.fail_tasks
    }
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for _ in range(50):
        batch = training.sample_batch(data, config, rng, pseudo_labels)
        clips, labels, fail_clips, fail_labels, fail_clusters = loop_sample_batch(
            data, config, ref_rng, pseudo_labels
        )
        assert np.array_equal(batch.clips, clips)
        assert np.array_equal(batch.labels, labels)
        assert batch.domains.tolist() == [losses.HUMAN] * 4 + [losses.ROBOT] * 4
        assert batch.fail_clips.shape == (len(fail_clips),) + clips.shape[1:]
        assert np.array_equal(batch.fail_clips.reshape(-1), np.ravel(fail_clips))
        assert batch.fail_labels.tolist() == fail_labels
        assert batch.fail_clusters.tolist() == fail_clusters
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def label_only_dataset(human_tasks, robot_tasks, config):
    """Success clips with all-zero frames: the sampler draws from labels alone."""
    frames = np.zeros((config.clip_frames, render.FRAME_WIDTH))
    return Dataset(
        [LabeledClip(frames, "human", t, 1, None, 0) for t in human_tasks]
        + [LabeledClip(frames, "robot", t, 1, None, 0) for t in robot_tasks]
    )


def test_sampler_replay_seed_308():
    """The default no_failure run at seed 308 drew batches from the same
    labels and sampler stream; with a 100-try cap its batch 249 raised."""
    config = ExperimentConfig(seed=308, mode="no_failure")
    dataset = label_only_dataset(
        np.repeat(config.all_tasks, config.human_per_task),
        np.repeat(config.train_tasks, config.robot_success_per_task),
        config,
    )
    data = training._IndexedData(dataset, config)
    rng = np.random.default_rng([config.seed, training._STREAM_SAMPLER])
    for _ in range(250):
        batch = training.sample_batch(data, config, rng, {})
        assert np.all(np.bincount(batch.labels) != 1)


def test_sampler_rejects_unsatisfiable_positive_rule():
    # one human and one robot clip per batch, never of the same task
    config = replace(CONFIG, batch_human=1, batch_robot=1, mode="no_failure")
    data = training._IndexedData(label_only_dataset([0, 0], [4, 4], config), config)
    with pytest.raises(InsufficientStratumError, match="positive-set"):
        training.sample_batch(data, config, np.random.default_rng(0), {})


@pytest.fixture(scope="module")
def fvlc_params(dataset):
    return training.train(replace(CONFIG, mode="fvlc"), dataset).params


class TestCheckpoint:
    def test_v1_key_names(self, fvlc_params):
        names = set(training.params_to_arrays(fvlc_params))
        assert names == (
            {f"video.{f}" for f in ("frame_proj", "frame_bias", "temporal_logits", "out_proj", "out_bias")}
            | {"pool.proj", "pool.bias"}
            | {f"pool.prompt.{t}.{k}" for t in sw.TRAIN_TASKS for k in range(CONFIG.k_clusters)}
            | {f"task.{t}.text" for t in range(len(sw.TASK_NAMES))}
        )

    def test_round_trip_keeps_features_and_scores(self, fvlc_params, dataset, tmp_path):
        path = tmp_path / "model.ckpt"
        formats.save_checkpoint(training.params_to_arrays(fvlc_params), path)
        loaded = training.params_from_arrays(formats.load_checkpoint(path))
        assert np.array_equal(loaded.pool.tasks, fvlc_params.pool.tasks)
        assert np.array_equal(
            enc.failure_text_features(loaded.pool, loaded.table)[0],
            enc.failure_text_features(fvlc_params.pool, fvlc_params.table)[0],
        )
        clips = dataset.subset("robot")
        assert np.array_equal(
            evaluation.score_clips(loaded, clips), evaluation.score_clips(fvlc_params, clips)
        )

    @pytest.mark.parametrize("edit", ["drop", "extra_cluster", "extra_task"])
    def test_prompt_keys_must_fill_the_task_by_cluster_grid(self, fvlc_params, edit):
        arrays = training.params_to_arrays(fvlc_params)
        if edit == "drop":
            del arrays["pool.prompt.5.1"]
        elif edit == "extra_cluster":
            arrays["pool.prompt.4.2"] = arrays["pool.prompt.4.0"]
        else:
            arrays["pool.prompt.2.0"] = arrays["pool.prompt.4.0"]
        with pytest.raises(CorruptFileError, match="grid"):
            training.params_from_arrays(arrays)

    @pytest.mark.parametrize("edit", ["gap", "shifted", "malformed"])
    def test_task_text_ids_must_be_0_to_t_minus_1(self, fvlc_params, edit):
        arrays = training.params_to_arrays(fvlc_params)
        if edit == "gap":
            del arrays["task.3.text"]
        elif edit == "shifted":
            arrays["task.7.text"] = arrays.pop("task.0.text")
        else:
            arrays["task.x.text"] = arrays.pop("task.6.text")
        with pytest.raises(CorruptFileError):
            training.params_from_arrays(arrays)
