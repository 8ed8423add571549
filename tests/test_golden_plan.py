"""Golden-run lock on planning evaluation: the tiny fvlc reward of
`test_golden`, planned against on two tasks with the learned reward under
ground-truth and learned dynamics, and with the oracle reward under
ground-truth dynamics.

Pins every `evaluate_planning(refine=True)` row (exact), and for each
plan the chosen vmpc candidate index (exact), its score and the
CEM-refined score (rel 1e-12), read through wrappers around
`planner.vmpc_plan` and `planner.cem_refine`. It also requires one call of
each per plan, which is what the benchmark's plan check counts. A refactor
that keeps these values keeps the behaviour of candidate sampling, chunked
prediction, both rewards, CEM and plan execution. The learned-dynamics
scores are pinned at one BLAS thread (`conftest.py`): the fit's last bits
depend on the thread count.
"""

from dataclasses import replace

import pytest

from rewardlab import dynamics as dyn, evaluation, planner as pl, simworld as sw, training
from test_golden import CONFIG

PLAN_CONFIG = replace(CONFIG, mode="fvlc", plan_candidates=32, plan_trials=2, plan_seeds=2)
TASKS = (sw.TASK_CLOSE_DRAWER, sw.TASK_CUP_AWAY)
MODELS = {"ground_truth": dyn.ground_truth_model, "learned": dyn.train_on_random_episodes}
LEARNED_EPISODES = 40  # random episodes of the learned model's fit

# (dynamics, reward_kind) -> rows as (task, seed, successes, refined
# successes), then per plan in call order: vmpc index, vmpc score, CEM score
GOLDEN = {
    ("ground_truth", "learned"): {
        "rows": [(0, 0, 0, 0), (0, 1, 2, 2), (1, 0, 0, 0), (1, 1, 1, 0)],
        "indices": [0, 24, 12, 8, 12, 1, 17, 6],
        "scores": [0.3966482497654594, 0.3976098744189347, 0.39934863187732483,
                   0.40188982599395656, 0.49817529670771893, 0.5019994169737673,
                   0.513602871639435, 0.5008548599305431],
        "refined_scores": [0.3977983329630879, 0.40264027626368826, 0.407241322979118,
                           0.4087918534080979, 0.5096946340404837, 0.5203071257531352,
                           0.5194347977500171, 0.5151333886793762],
    },
    ("ground_truth", "oracle"): {
        "rows": [(0, 0, 1, 2), (0, 1, 2, 2), (1, 0, 2, 2), (1, 1, 2, 2)],
        "indices": [3, 0, 5, 5, 15, 18, 0, 27],
        "scores": [1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        "refined_scores": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    },
    ("learned", "learned"): {
        "rows": [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)],
        "indices": [24, 3, 19, 31, 13, 1, 18, 26],
        "scores": [0.3960443594556488, 0.4024316705359329, 0.3932958033050595,
                   0.40439955050385656, 0.5014287825253294, 0.5059725282413736,
                   0.508015964253291, 0.5007277127475186],
        "refined_scores": [0.4093385978536861, 0.4137375712260994, 0.4102914967959681,
                           0.4101060452596607, 0.5195173606478741, 0.5230862667618292,
                           0.5237257365454377, 0.5267252175010163],
    },
}


@pytest.fixture(scope="module")
def params():
    dataset = evaluation.train_dataset_for(PLAN_CONFIG)
    return training.train(PLAN_CONFIG, dataset).params


@pytest.mark.parametrize("kind, reward_kind", sorted(GOLDEN))
def test_planning_rows_and_plans(params, kind, reward_kind, monkeypatch):
    plans, refined = [], []
    for name, sink in (("vmpc_plan", plans), ("cem_refine", refined)):
        original = getattr(pl, name)

        def capture(*args, _original=original, _sink=sink, **kwargs):
            result = _original(*args, **kwargs)
            _sink.append(result)
            return result

        monkeypatch.setattr(pl, name, capture)
    monkeypatch.setattr(dyn, "RANDOM_EPISODES", LEARNED_EPISODES)
    out = evaluation.evaluate_planning(
        params, MODELS[kind](), PLAN_CONFIG, tasks=TASKS, reward_kind=reward_kind, refine=True
    )
    trials = PLAN_CONFIG.plan_trials
    assert out["rows"] == [
        {"task": task, "seed": seed, "trials": trials, "successes": wins, "rate": wins / trials,
         "refined_successes": refined_wins, "refined_rate": refined_wins / trials}
        for task, seed, wins, refined_wins in GOLDEN[kind, reward_kind]["rows"]
    ]
    expected = GOLDEN[kind, reward_kind]
    assert len(plans) == len(refined) == len(TASKS) * PLAN_CONFIG.plan_seeds * trials
    assert [p.index for p in plans] == expected["indices"]
    assert [p.score for p in plans] == pytest.approx(expected["scores"], rel=1e-12, abs=0.0)
    assert [r.score for r in refined] == pytest.approx(
        expected["refined_scores"], rel=1e-12, abs=0.0
    )
