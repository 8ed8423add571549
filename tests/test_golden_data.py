"""Golden-run lock on data generation: the evaluation sets and the
`python -m rewardlab datagen` report of `test_golden`'s tiny config.

Pins the eval-set frames (bit-exact sha256) and every clip's labels
(domain, task, success, archetype, seed), both for all tasks and for the
one-task call the benchmark makes, and the exact JSON report `datagen`
prints: clip and attempt counts, zero-noise clips and the domain-shift
cosine. A refactor that keeps these values keeps the behaviour of clip
seeding, the scripted rollouts, rendering and the human-domain transform.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from rewardlab import cli, evaluation, simworld as sw
from rewardlab.config import ExperimentConfig, load_config
from rewardlab.errors import BadConfigError
from test_golden import CONFIG

# tasks -> (frames sha256, labels sha256, clip count)
EVAL_SETS = {
    None: ("b8632e43bed9674dba253ba502c89a577cb383edd389b2bc0139c5175db16165",
           "3ea66fa97b990095bce9031145730881caaa7cce18a84c710a78698e6c60f9ca", 128),
    (sw.TASK_FAUCET,): ("c5ca880b5968d6357f29eccb898f131d405cd41d8d38ce1cccec4242e433976a",
                        "7dc22a86b5c55f45906abef0df121435c282ccea8349bca23ecd2f0b7e7cdd46", 32),
}

DATAGEN_REPORT = {"clips": 33, "attempts": 38, "zero_noise_clips": 0,
                  "domain_shift_cosine": 0.6967939445541036}


def _labels_sha256(dataset) -> str:
    labels = [[c.domain, c.task_id, c.success, c.failure_archetype, c.seed] for c in dataset.clips]
    return hashlib.sha256(json.dumps(labels).encode()).hexdigest()


@pytest.mark.parametrize("tasks", list(EVAL_SETS), ids=["all", "faucet"])
def test_eval_dataset(tasks):
    dataset = evaluation.eval_dataset_for(CONFIG, tasks=tasks)
    frames = hashlib.sha256(dataset.frames_array().tobytes()).hexdigest()
    assert (frames, _labels_sha256(dataset), len(dataset)) == EVAL_SETS[tasks]


def test_eval_dataset_rejects_an_unknown_task():
    with pytest.raises(BadConfigError):
        evaluation.eval_dataset_for(CONFIG, tasks=(99,))


def _config_text(config) -> str:
    """`key = value` lines for every field that differs from the default."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value != getattr(ExperimentConfig(), f.name):
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}\n")
    return "".join(lines)


def test_datagen_report(tmp_path, capsys):
    path = tmp_path / "golden.cfg"
    path.write_text(_config_text(CONFIG), encoding="ascii")
    assert load_config(path) == CONFIG
    assert cli.main(["datagen", "--config", str(path), "--out", str(tmp_path / "data.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == DATAGEN_REPORT
