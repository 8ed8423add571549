"""Evaluation entry points on tiny configs: non-default clip lengths end to
end, and the typed failure when CEM refinement lowers a plan's score."""

from dataclasses import replace

import pytest

from rewardlab import dynamics as dyn, evaluation, planner as pl, simworld as sw, training
from rewardlab.config import ExperimentConfig
from rewardlab.errors import RefinementRegressedError

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


def test_unpatched_refinement_passes_the_check():
    out = evaluation.evaluate_planning(
        None, dyn.ground_truth_model(), CONFIG, reward_kind="oracle", refine=True
    )
    assert all(0.0 <= row["refined_rate"] <= 1.0 for row in out["rows"])


def test_lowered_refinement_score_raises_typed_error(monkeypatch):
    cem_refine = pl.cem_refine

    def lowered(*args, **kwargs):
        result = cem_refine(*args, **kwargs)
        return replace(result, score=result.score - 0.5)

    monkeypatch.setattr(pl, "cem_refine", lowered)
    with pytest.raises(RefinementRegressedError, match="CEM refinement"):
        evaluation.evaluate_planning(
            None, dyn.ground_truth_model(), CONFIG, reward_kind="oracle", refine=True
        )
