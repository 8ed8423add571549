"""Golden-run lock: a tiny seeded pipeline run per training mode.

Pins the train-dataset frames (bit-exact sha256), every per-epoch loss
component (rel tol 1e-9, so vectorised reductions may reorder
floating-point sums) and the final failure-cluster assignments (exact).
A refactor that keeps these values keeps the behaviour of data
generation, the sampler, the encoders, the losses and the clustering.
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

FRAMES_SHA256 = "90e067a40830d78475b152746ea4e642a23b8387b3d2540b6903e6d548a90721"

EPOCH_LOSSES = {
    "no_failure": [
        {"loss_cross_domain": 14.301583454628265, "loss_video_text": 36.971416156876515,
         "loss_total": 51.27299961150478},
        {"loss_cross_domain": 17.96732205642668, "loss_video_text": 38.25823968037253,
         "loss_total": 56.22556173679921},
    ],
    "bce": [
        {"loss_bce": 5.663620289170121, "loss_cross_domain": 13.966898596394234,
         "loss_video_text": 38.74845262087956, "loss_total": 58.37897150644392},
        {"loss_bce": 5.634968261699024, "loss_cross_domain": 17.01298865663639,
         "loss_video_text": 38.343670162261944, "loss_total": 60.99162708059737},
    ],
    "fvlc": [
        {"loss_cross_domain": 13.968276367450354, "loss_failure_prompt": 7.701319537569795,
         "loss_video_text": 40.55702726530278, "loss_total": 62.22662317032293},
        {"loss_cross_domain": 17.020896600216666, "loss_failure_prompt": 8.257878910216329,
         "loss_video_text": 40.43033910806799, "loss_total": 65.70911461850098},
    ],
}

FVLC_ASSIGNMENTS = {4: [0, 1, 1, 1], 5: [1, 0, 1, 0], 6: [1, 0, 1, 0]}


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
