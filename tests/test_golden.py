"""Golden-run lock: a tiny seeded pipeline run per training mode.

Pins the train-dataset frames (bit-exact sha256), every per-epoch loss
component (rel tol 1e-9, so vectorised reductions may reorder
floating-point sums), the final failure-cluster assignments (exact) and
the per-task separation AUC of the trained reward on the eval set
(exact). A refactor that keeps these values keeps the behaviour of data
generation, the sampler, the encoders, the losses, the clustering and
the separation scoring.
"""

import hashlib
from dataclasses import replace

import pytest

from rewardlab import evaluation, simworld as sw, training
from rewardlab.config import ExperimentConfig

CONFIG = ExperimentConfig(
    seed=5,
    heldout_tasks=(sw.TASK_FAUCET,),
    human_per_task=3,
    robot_success_per_task=3,
    robot_failure_per_task=4,
    k_clusters=2,
    batch_human=4,
    batch_robot=4,
    batch_failure=4,
    epochs=2,
    steps_per_epoch=4,
)
# at this seed the batches hold human clips of the held-out task, whose
# video->text rows get no failure negatives in fvlc mode

FRAMES_SHA256 = "9046f26839e6bbfcb054f15bbc7923d0dbd5d6625de4bcece97e9dd61071a931"

EPOCH_LOSSES = {
    "no_failure": [
        {"loss_cross_domain": 16.682225604893773, "loss_video_text": 37.13259147478362,
         "loss_total": 53.81481707967739},
        {"loss_cross_domain": 14.85447925401957, "loss_video_text": 37.660527464102984,
         "loss_total": 52.51500671812256},
    ],
    "bce": [
        {"loss_bce": 5.683713588992689, "loss_cross_domain": 15.742984265284395,
         "loss_video_text": 38.32292594921127, "loss_total": 59.74962380348835},
        {"loss_bce": 5.631862325865032, "loss_cross_domain": 14.830658859334996,
         "loss_video_text": 36.59404145185009, "loss_total": 57.05656263705012},
    ],
    "fvlc": [
        {"loss_cross_domain": 15.74451924143727, "loss_failure_prompt": 8.666478990190239,
         "loss_video_text": 41.14999624300754, "loss_total": 65.56099447463507},
        {"loss_cross_domain": 14.837379642444633, "loss_failure_prompt": 7.028515909352903,
         "loss_video_text": 38.907535535520914, "loss_total": 60.77343108731844},
    ],
}

FVLC_ASSIGNMENTS = {4: [0, 1, 1, 1], 5: [1, 0, 1, 0], 6: [1, 0, 1, 0]}

# task -> AUC of `evaluate_separation` on `eval_dataset_for(CONFIG)`
SEPARATION_AUCS = {
    "no_failure": {2: 0.16015625, 4: 0.0234375, 5: 0.890625, 6: 0.36328125},
    "bce": {2: 0.16015625, 4: 0.0234375, 5: 0.890625, 6: 0.36328125},
    "fvlc": {2: 0.1484375, 4: 0.0234375, 5: 0.890625, 6: 0.36328125},
}


@pytest.fixture(scope="module")
def dataset():
    return evaluation.train_dataset_for(CONFIG)


def test_train_frames_hash(dataset):
    digest = hashlib.sha256(dataset.frames_array().tobytes()).hexdigest()
    assert digest == FRAMES_SHA256


@pytest.mark.parametrize("mode", sorted(EPOCH_LOSSES))
def test_epoch_losses_and_clusters(dataset, mode):
    result = training.train(replace(CONFIG, mode=mode), dataset)
    got = [{k: v for k, v in rec.items() if k.startswith("loss_")} for rec in result.metrics]
    expected = EPOCH_LOSSES[mode]
    assert [sorted(g) for g in got] == [sorted(e) for e in expected]
    for g, e in zip(got, expected):
        for key, value in e.items():
            assert g[key] == pytest.approx(value, rel=1e-9, abs=0.0), key
    assignments = {t: s.assignments.tolist() for t, s in result.cluster_states.items()}
    assert assignments == (FVLC_ASSIGNMENTS if mode == "fvlc" else {})


@pytest.fixture(scope="module")
def eval_dataset():
    return evaluation.eval_dataset_for(CONFIG)


@pytest.mark.parametrize("mode", sorted(SEPARATION_AUCS))
def test_separation_aucs(dataset, eval_dataset, mode):
    params = training.train(replace(CONFIG, mode=mode), dataset).params
    report = evaluation.evaluate_separation(params, eval_dataset, CONFIG.all_tasks)
    assert {task: entry["auc"] for task, entry in report.items()} == SEPARATION_AUCS[mode]
