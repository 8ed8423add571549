"""Evaluation entry points on tiny configs: non-default clip lengths end to
end, planning with CEM refinement, the rejected planning arguments, the
memory the kept plans hold, the AUC against a brute-force pair count, and
the ablation grid and its CSV."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rewardlab import (
    datagen as dg, dynamics as dyn, evaluation, render, simworld as sw, training,
)
from rewardlab.config import ExperimentConfig
from rewardlab.errors import (
    BadConfigError, EmptyReportError, NonFiniteValueError, OneClassOnlyError,
    ShapeMismatchError, TooFewSamplesError,
)

CONFIG = ExperimentConfig(
    seed=5,
    heldout_tasks=(sw.TASK_FAUCET,),
    human_per_task=4,
    robot_success_per_task=4,
    robot_failure_per_task=5,
    eval_success_per_task=4,
    eval_failure_per_task=4,
    k_clusters=2,
    batch_human=4,
    batch_robot=4,
    batch_failure=4,
    epochs=1,
    steps_per_epoch=2,
    plan_candidates=8,
    plan_trials=1,
    plan_seeds=1,
)


def test_clip_frames_honoured_end_to_end():
    config = replace(CONFIG, clip_frames=3)
    train_set = evaluation.train_dataset_for(config)
    eval_set = evaluation.eval_dataset_for(config)
    assert {c.frames.shape[0] for c in train_set.clips + eval_set.clips} == {3}
    result = training.train(config, train_set)
    assert result.params.video.frames == 3
    report = evaluation.evaluate_separation(result.params, eval_set, config.all_tasks)
    assert set(report) == set(config.all_tasks)
    assert all(0.0 <= entry["auc"] <= 1.0 for entry in report.values())


def test_planning_rejects_an_unknown_reward_kind():
    with pytest.raises(BadConfigError, match="orcale"):
        evaluation.evaluate_planning(
            None, dyn.ground_truth_model(), CONFIG, reward_kind="orcale"
        )


def test_learned_planning_needs_params():
    with pytest.raises(BadConfigError, match="params"):
        evaluation.evaluate_planning(None, dyn.ground_truth_model(), CONFIG)


def test_kept_plans_do_not_hold_their_candidates():
    """A task's plans are kept until its executed rollout. Each is its own
    (60, 3) sequence; as a view into its vmpc candidates it held all 300 of
    them, and the peak grew by 2.5 MiB from 2 to 8 trials."""
    peaks = {}
    for trials in (2, 8):
        config = ExperimentConfig(plan_trials=trials, plan_seeds=1)
        tracemalloc.start()
        try:
            evaluation.evaluate_planning(None, dyn.ground_truth_model(), config,
                                         tasks=(sw.TASK_FAUCET,), reward_kind="oracle")
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] - peaks[2] <= 2**20


def ablation_grid(monkeypatch, modes, k_values, sources):
    """Shrink run_ablation's grid to one seed of these axes."""
    for name, value in (("MODES", modes), ("KS", k_values), ("SOURCES", sources), ("SEEDS", 1)):
        monkeypatch.setattr(evaluation, f"ABLATION_{name}", value)


def test_ablation_rows_and_csv(monkeypatch):
    grid = (("no_failure", "bce", "fvlc"), (1, 2), ("random", "both"))
    ablation_grid(monkeypatch, *grid)
    rows = evaluation.run_ablation(CONFIG)
    assert len(rows) == len(evaluation.ablation_cells(*grid)) == 8
    assert {row["seed"] for row in rows} == {CONFIG.seed}
    lines = evaluation.ablation_csv(rows).splitlines()
    assert lines[0] == "seed,mode,k,source,auc_train,auc_heldout"
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        fields = dict(zip(evaluation.ABLATION_COLUMNS, line.split(",")))
        assert fields["k"] == (str(row["k"]) if row["mode"] == "fvlc" else "-")
        for col in ("auc_train", "auc_heldout"):
            assert isinstance(row[col], float) and float(fields[col]) == row[col]
    assert {(r["mode"], r["k"]) for r in rows} == {
        ("no_failure", "-"), ("bce", "-"), ("fvlc", 1), ("fvlc", 2)
    }


def test_mean_auc_of_no_tasks_is_an_error():
    assert evaluation.mean_auc({3: {"auc": 0.25}, 5: {"auc": 0.75}}) == 0.5
    with pytest.raises(EmptyReportError):
        evaluation.mean_auc({})


def test_ablation_leaves_the_cell_of_an_empty_split_empty(monkeypatch):
    config = replace(CONFIG, heldout_tasks=())
    ablation_grid(monkeypatch, ("no_failure",), evaluation.ABLATION_KS, ("random",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluation.run_ablation(config)
    assert [row["auc_heldout"] for row in rows] == [""]
    assert isinstance(rows[0]["auc_train"], float)
    line = evaluation.ablation_csv(rows).splitlines()[1]
    assert line == f"{CONFIG.seed},no_failure,-,random,{rows[0]['auc_train']!r},"


def test_ablation_rejects_k_above_the_failure_clips_before_training(monkeypatch):
    trained = []
    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", lambda *args: trained.append(1) or real_train(*args))
    k_too_many = CONFIG.robot_failure_per_task + 1
    ablation_grid(monkeypatch, ("fvlc",), (1, k_too_many), ("random",))
    with pytest.raises(TooFewSamplesError, match=f"up to {k_too_many} need {k_too_many}"):
        evaluation.run_ablation(CONFIG)
    assert trained == []


def pair_count_auc(success_scores, failure_scores):
    """P(success > failure) over all pairs, ties counted half."""
    wins = sum(
        1.0 if s > f else 0.5 if s == f else 0.0
        for s in success_scores for f in failure_scores
    )
    return wins / (len(success_scores) * len(failure_scores))


@pytest.mark.parametrize("seed", range(20))
def test_auc_matches_pair_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    levels = rng.integers(1, 6)  # few distinct values: ties within and across classes
    s = rng.integers(0, levels, size=rng.integers(1, 12)) / levels
    f = rng.integers(0, levels, size=rng.integers(1, 12)) / levels
    assert evaluation.auc_from_scores(s, f) == pytest.approx(pair_count_auc(s, f), abs=1e-12)


@pytest.mark.parametrize("robot", [(1, 1), (0, 0), ()], ids=["successes", "failures", "no-clips"])
def test_separation_needs_both_robot_classes_of_each_task(robot):
    """Checked before any scoring, so no params are needed to reach it. A
    human clip of the missing class does not count: the AUC is over robot clips."""
    frames = np.zeros((CONFIG.clip_frames, render.FRAME_WIDTH))

    def clip(domain, success, seed):
        return dg.LabeledClip(frames, domain, sw.TASK_FAUCET, success,
                              None if success else "wander", seed)

    missing = 0 if 1 in robot else 1
    clips = [clip("robot", r, i) for i, r in enumerate(robot)] + [clip("human", missing, 9)]
    with pytest.raises(OneClassOnlyError, match=f"^task {sw.TASK_FAUCET} evaluation set has one class"):
        evaluation.evaluate_separation(None, dg.Dataset(clips), [sw.TASK_FAUCET])


def test_auc_edge_cases():
    assert evaluation.auc_from_scores([1.0, 2.0], [0.0]) == 1.0
    assert evaluation.auc_from_scores([0.0], [1.0, 2.0]) == 0.0
    assert evaluation.auc_from_scores([0.5, 0.5], [0.5]) == 0.5
    with pytest.raises(OneClassOnlyError):
        evaluation.auc_from_scores([], [0.1])


@pytest.mark.parametrize("success, failure", [
    (np.ones((2, 2)), np.zeros((1, 2))),   # read as 4 and 2 scores, AUC 1.375
    ([1.0, 2.0], np.zeros((1, 2))),
    (1.0, [0.0]),
])
def test_auc_needs_1d_scores(success, failure):
    with pytest.raises(ShapeMismatchError):
        evaluation.auc_from_scores(success, failure)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(NonFiniteValueError):
        evaluation.auc_from_scores([bad, 0.5], [0.2])
    with pytest.raises(NonFiniteValueError):
        evaluation.auc_from_scores([0.5], [0.2, bad])
