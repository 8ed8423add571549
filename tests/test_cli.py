"""The `python -m rewardlab` entry point, run in-process on a tiny config:
datagen -> train -> eval through files gives exactly what the in-memory
pipeline gives, and bad input ends in one line on stderr and status 1."""

import json
from dataclasses import replace

import numpy as np
import pytest

from rewardlab import cli, datagen as dg, dynamics as dyn, evaluation, formats, training
from rewardlab.config import load_config
from test_formats import BAD_RECORDS, write_with_bad_record

TINY = """\
seed = 5
heldout_tasks = 2
human_per_task = 3
robot_success_per_task = 3
robot_failure_per_task = 4
eval_success_per_task = 3
eval_failure_per_task = 3
k_clusters = 2
batch_human = 4
batch_robot = 4
batch_failure = 4
epochs = 2
steps_per_epoch = 2
plan_candidates = 8
plan_trials = 1
plan_seeds = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="ascii")
    return path


def run(capsys, *argv):
    status = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return status, out, err


def test_datagen_train_eval_match_the_in_memory_pipeline(tmp_path, config_path, capsys, monkeypatch):
    data, ckpt = tmp_path / "data.txt", tmp_path / "model.ckpt"
    config = load_config(config_path)
    # the eval set `eval` builds, to score the in-memory params on
    eval_sets, eval_dataset_for = [], evaluation.eval_dataset_for

    def keep_eval_set(config):
        eval_sets.append(eval_dataset_for(config))
        return eval_sets[-1]

    monkeypatch.setattr(evaluation, "eval_dataset_for", keep_eval_set)

    status, out, _ = run(capsys, "datagen", "--config", config_path, "--out", data)
    dataset = evaluation.train_dataset_for(config)
    assert status == 0
    assert json.loads(out) == {
        "clips": len(dataset),
        "attempts": sum(r["attempts"] for r in dataset.retries.values()),
        "zero_noise_clips": sum(r["zero_noise_clips"] for r in dataset.retries.values()),
        "domain_shift_cosine": dg.domain_shift_cosine(config),
    }
    assert np.array_equal(formats.load_dataset(data).frames_array(), dataset.frames_array())

    status, out, _ = run(capsys, "train", "--config", config_path, "--data", data, "--out", ckpt)
    result = training.train(config, dataset)
    assert status == 0
    assert [json.loads(line) for line in out.splitlines()] == json.loads(json.dumps(result.metrics))

    status, out, _ = run(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
    separation = evaluation.evaluate_separation(result.params, *eval_sets, config.all_tasks)
    planning = evaluation.evaluate_planning(
        result.params, dyn.ground_truth_model(), config, refine=True
    )
    assert status == 0
    assert json.loads(out) == {
        "env_variant": "train",
        "auc": {str(task): entry["auc"] for task, entry in separation.items()},
        "planning": planning["rows"],
    }


def test_eval_scores_and_names_the_configured_variant(tmp_path, config_path, capsys, monkeypatch):
    # the training set stays in `train`; only the eval set's robot clips move
    shifted = tmp_path / "shifted.cfg"
    shifted.write_text(TINY + "env_variant = shifted-view\n", encoding="ascii")
    data, ckpt = tmp_path / "data.txt", tmp_path / "model.ckpt"
    eval_sets, eval_dataset_for = [], evaluation.eval_dataset_for

    def keep_eval_set(config):
        eval_sets.append(eval_dataset_for(config))
        return eval_sets[-1]

    monkeypatch.setattr(evaluation, "eval_dataset_for", keep_eval_set)
    assert run(capsys, "datagen", "--config", shifted, "--out", data)[0] == 0
    assert np.array_equal(formats.load_dataset(data).frames_array(),
                          evaluation.train_dataset_for(load_config(config_path)).frames_array())
    assert run(capsys, "train", "--config", shifted, "--data", data, "--out", ckpt)[0] == 0
    status, out, _ = run(capsys, "eval", "--config", shifted, "--checkpoint", ckpt)
    assert status == 0
    report = json.loads(out)
    assert report["env_variant"] == "shifted-view"
    config = load_config(shifted)
    want = eval_dataset_for(config)
    assert np.array_equal(eval_sets[0].frames_array(), want.frames_array())
    assert not np.array_equal(want.frames_array(),
                              eval_dataset_for(load_config(config_path)).frames_array())
    params = training.params_from_arrays(formats.load_checkpoint(ckpt))
    separation = evaluation.evaluate_separation(params, want, config.all_tasks)
    assert report["auc"] == {str(task): entry["auc"] for task, entry in separation.items()}


def test_seed_flag_beats_the_environment_and_the_file(tmp_path, config_path, capsys, monkeypatch):
    # REWARD_SEED no longer sets the seed: the file's seed holds without
    # the flag, and the flag's with it
    monkeypatch.setenv("REWARD_SEED", "11")
    for flag, seed in (([], 5), (["--seed", 6], 6)):
        data = tmp_path / f"data{seed}.txt"
        assert run(capsys, "datagen", "--config", config_path, *flag, "--out", data)[0] == 0
        want = evaluation.train_dataset_for(replace(load_config(config_path), seed=seed))
        assert np.array_equal(formats.load_dataset(data).frames_array(), want.frames_array())


@pytest.mark.parametrize("text, argv, message", [
    ("tau = 0\n", ["datagen", "--out", "never.txt"], "tau must be > 0"),
    ("bogus = 1\n", ["datagen", "--out", "never.txt"], "line 1: unknown key 'bogus'"),
    ("train_tasks =\nheldout_tasks =\n", ["datagen", "--out", "never.txt"], "at least one task"),
    (TINY, ["train", "--data", "missing.txt", "--out", "never.ckpt"], "missing.txt"),
    (TINY, ["eval", "--checkpoint", "missing.ckpt"], "missing.ckpt"),
    (TINY, ["datagen", "--seed", "-1", "--out", "never.txt"], "seed must be >= 0"),
    (TINY, ["train", "--data", "bad-header.txt", "--out", "never.ckpt"],
     "malformed header field 'clips=x'"),
    ("noise = inf\n", ["datagen", "--out", "never.txt"], "noise must be finite"),
    ("mode = fvlc\nmode = bce\n", ["datagen", "--out", "never.txt"],
     "line 2: mode is already set on line 1"),
], ids=["out-of-range", "unknown-key", "no-tasks", "missing-dataset", "missing-checkpoint",
        "negative-seed", "non-integer-count", "infinite-float", "repeated-key"])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, monkeypatch, text, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(text, encoding="ascii")
    (tmp_path / "bad-header.txt").write_text("rewardlab-dataset v1 clips=x\n", encoding="ascii")
    status, out, err = run(capsys, *argv, "--config", "run.cfg")
    assert status == 1 and out == ""
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not (tmp_path / "never.txt").exists()


@pytest.mark.parametrize("edit, message", BAD_RECORDS.values(), ids=list(BAD_RECORDS))
def test_train_rejects_an_impossible_clip_record(tmp_path, config_path, capsys, edit, message):
    data, ckpt = tmp_path / "data.txt", tmp_path / "model.ckpt"
    assert run(capsys, "datagen", "--config", config_path, "--out", data)[0] == 0
    write_with_bad_record(data, edit)
    status, out, err = run(capsys, "train", "--config", config_path, "--data", data, "--out", ckpt)
    assert status == 1 and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("rewardlab train: error: clip record 3 ")
    assert message in err
    assert not ckpt.exists()


def test_datagen_refuses_overflowing_frames_and_writes_no_file(tmp_path, capsys):
    """A finite but huge noise overflows the human frames to infinity; the
    file `train` would refuse is never written."""
    config, data = tmp_path / "huge.cfg", tmp_path / "data.txt"
    config.write_text("train_tasks = 4\nheldout_tasks =\nhuman_per_task = 1\n"
                      "robot_success_per_task = 0\nrobot_failure_per_task = 0\nnoise = 1e308\n")
    status, out, err = run(capsys, "datagen", "--config", config, "--out", data)
    assert status == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("rewardlab datagen: error: clip 0 (human success, task 4, seed ")
    assert not data.exists()


def test_datagen_refuses_an_overflowing_frame_norm_and_writes_no_file(tmp_path, capsys):
    """At noise = 1e160 the frames stay finite but their norms overflow, so
    the domain shift cosine cannot be computed: no report, no file."""
    config, data = tmp_path / "huge.cfg", tmp_path / "data.txt"
    config.write_text("train_tasks = 4\nheldout_tasks =\nhuman_per_task = 1\n"
                      "robot_success_per_task = 0\nrobot_failure_per_task = 0\nnoise = 1e160\n")
    status, out, err = run(capsys, "datagen", "--config", config, "--out", data)
    assert (status, out) == (1, "")
    assert err == ("rewardlab datagen: error: domain shift cosine is nan: pair 0 has a frame "
                   "norm that is not finite\n")
    assert not data.exists()


def test_ablate_and_grad_check_print_their_reports(config_path, capsys, monkeypatch):
    seen = []
    row = {"seed": 0, "mode": "bce", "k": "-", "source": "both",
           "auc_train": 0.75, "auc_heldout": 0.5}
    monkeypatch.setattr(evaluation, "run_ablation", lambda config: seen.append(config) or [row])
    assert run(capsys, "ablate", "--config", config_path)[1] == evaluation.ablation_csv([row])
    assert seen == [load_config(config_path)]
    run(capsys, "ablate", "--config", config_path, "--seed", 4)
    assert seen[-1] == replace(load_config(config_path), seed=4)
    monkeypatch.setattr(cli, "run_gradient_suite", lambda: {"bce_loss": 1e-10})
    assert json.loads(run(capsys, "grad-check")[1]) == {"bce_loss": 1e-10}


def test_ablate_rejects_the_default_k_axis_before_training(config_path, capsys, monkeypatch):
    # TINY has 4 failure clips per task; the default K axis goes up to 5
    trained = []
    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", lambda *args: trained.append(1) or real_train(*args))
    status, out, err = run(capsys, "ablate", "--config", config_path)
    assert status == 1 and out == "" and "robot_failure_per_task is 4" in err
    assert trained == []


def test_eval_refuses_a_checkpoint_whose_shapes_disagree(tmp_path, config_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    arrays = training.params_to_arrays(training.init_params(load_config(config_path), []))
    arrays["video.frame_bias"] = np.zeros(5)
    formats.save_checkpoint(arrays, ckpt)
    status, out, err = run(capsys, "eval", "--config", config_path, "--checkpoint", ckpt)
    assert status == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("rewardlab eval: error: checkpoint array ")
    assert "does not fit" in err and "'video.frame_bias'" in err
