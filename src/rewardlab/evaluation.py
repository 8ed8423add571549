"""Evaluation: success/failure score separation, planning success rates,
and the ablation grid.

Separation is measured as the probability that a uniformly random success
clip outscores a uniformly random failure clip of the same task, ties
counted half — the area under the ROC curve. The eval set is stacked once
and each task's robot rows are scored by the planner's reward,
`LearnedReward.score_frames` (sigmoid(v . t)). That set is `gen_dataset` of a
copy of the config: robot clips of the evaluated tasks at the eval counts,
every failure source, a derived seed, rendered in the config's
env_variant (the training set is always rendered in `train`). Planning
builds one reward per task, plans each of the config's plan_seeds x
plan_trials trials with random shooting (and optionally CEM), then
executes all plans of the task in one batched simulator rollout and
judges them with the task predicate. The ablation grid trains each cell of
ABLATION_MODES x ABLATION_KS x ABLATION_SOURCES for ABLATION_SEEDS seeds
and reports the cells' separation AUCs; it runs no planning.
"""

from dataclasses import replace

import numpy as np

from . import datagen as dg, dynamics as dyn, planner as pl, simworld as sw
from .config import ExperimentConfig
from .errors import (
    BadConfigError, EmptyReportError, NonFiniteValueError, OneClassOnlyError,
    RefinementRegressedError, ShapeMismatchError, TooFewSamplesError,
)
from .training import ModelParams, train

_STREAM_EVAL_DATA = 7
_STREAM_PLAN = 8


def auc_from_scores(success_scores, failure_scores) -> float:
    """Mann-Whitney AUC with average ranks for ties; scores other than 1-D
    raise ShapeMismatchError and a NaN or infinite score NonFiniteValueError."""
    success_scores = np.asarray(success_scores, dtype=np.float64)
    failure_scores = np.asarray(failure_scores, dtype=np.float64)
    if success_scores.ndim != 1 or failure_scores.ndim != 1:
        raise ShapeMismatchError(
            f"scores of shapes {success_scores.shape} and {failure_scores.shape}, expected 1-D"
        )
    n_s, n_f = success_scores.size, failure_scores.size
    if n_s == 0 or n_f == 0:
        raise OneClassOnlyError("need both success and failure scores")
    if not (np.isfinite(success_scores).all() and np.isfinite(failure_scores).all()):
        raise NonFiniteValueError("scores hold NaN or infinity")
    _, group, counts = np.unique(
        np.concatenate([success_scores, failure_scores]), return_inverse=True, return_counts=True
    )
    # a tie group holding ranks start..end (1-based) gets their mean
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = float(np.sum(ranks[:n_s])) - n_s * (n_s + 1) / 2.0
    return u / (n_s * n_f)


def evaluate_separation(params: ModelParams, eval_dataset: dg.Dataset, tasks):
    """{task: {"auc": ...}}: per-task AUC of success over failure scores."""
    clips = eval_dataset.clips
    frames = eval_dataset.frames_array() if clips else None
    task_col = np.array([c.task_id for c in clips], dtype=np.int64)
    robot = np.array([c.domain == "robot" for c in clips], dtype=bool)
    success = np.array([c.success for c in clips], dtype=np.int64)
    report = {}
    for task in tasks:
        mine = np.flatnonzero(robot & (task_col == task))
        won = success[mine] == 1
        if won.all() or not won.any():
            raise OneClassOnlyError(f"task {task} evaluation set has one class only")
        scores = pl.LearnedReward(params.video, params.texts, task).score_frames(frames[mine])
        report[task] = {"auc": auc_from_scores(scores[won], scores[~won])}
    return report


def mean_auc(report: dict) -> float:
    """Mean AUC over the tasks of a separation report; an empty report has
    none and raises EmptyReportError."""
    if not report:
        raise EmptyReportError("a separation report of no tasks has no mean AUC")
    return float(np.mean([entry["auc"] for entry in report.values()]))


def eval_dataset_for(config: ExperimentConfig, tasks=None) -> dg.Dataset:
    """Held-out robot clips (both outcomes, every failure source) of the
    evaluated tasks, by default config.all_tasks, rendered in
    config.env_variant; no human clips."""
    tasks = tuple(tasks) if tasks is not None else config.all_tasks
    return dg.gen_dataset(replace(
        config, train_tasks=tasks, heldout_tasks=(), human_per_task=0,
        robot_success_per_task=config.eval_success_per_task,
        robot_failure_per_task=config.eval_failure_per_task,
        failure_sources=dg.FAILURE_SOURCES,
        seed=int(np.random.SeedSequence(
            [config.seed, _STREAM_EVAL_DATA]).generate_state(1, np.uint64)[0] % (2**31)),
    ), variant=config.env_variant)


def train_dataset_for(config: ExperimentConfig) -> dg.Dataset:
    """The training set, rendered in the `train` environment whatever
    config.env_variant names."""
    return dg.gen_dataset(config)


def _plan_seed(config: ExperimentConfig, arm: int, seed_idx: int, task: int, trial: int) -> int:
    return int(np.random.SeedSequence(
        [config.seed, _STREAM_PLAN, arm, seed_idx, task, trial]
    ).generate_state(1, np.uint64)[0] % (2**31))


def evaluate_planning(
    params: ModelParams | None,
    model: dyn.DynamicsModel,
    config: ExperimentConfig,
    tasks=None,
    reward_kind: str = "learned",
    refine: bool = False,
):
    """Planning success rates per task and seed; executes plans in the sim.

    reward_kind: "learned" (sigmoid(v.t), needs params) or "oracle"
    (ground-truth predicate on predicted states). Each of the
    config.plan_seeds x config.plan_trials trials of a task plans once with
    vmpc_plan and, with refine, once more with cem_refine; all plans of a
    task are then executed in one batched rollout.
    """
    tasks = tuple(tasks) if tasks is not None else tuple(config.heldout_tasks)
    trials = config.plan_trials
    if reward_kind not in ("learned", "oracle"):
        raise BadConfigError(f"unknown reward_kind {reward_kind!r}")
    if reward_kind == "learned" and params is None:
        raise BadConfigError("the learned reward needs trained params")
    rows = []
    for task in tasks:
        reward = pl.OracleReward(task) if reward_kind == "oracle" else pl.LearnedReward(
            params.video, params.texts, task, variant=config.env_variant
        )
        starts, plans = [], []   # per (seed, trial): the vmpc plan, then the CEM one
        for seed_idx in range(config.plan_seeds):
            for trial in range(trials):
                s0 = sw.initial_state_array(
                    task, np.random.default_rng(_plan_seed(config, 0, seed_idx, task, trial))
                )
                scorer = pl.make_sequence_scorer(reward, model, s0)
                result = pl.vmpc_plan(scorer, config.plan_candidates, config.plan_horizon,
                                      _plan_seed(config, 1, seed_idx, task, trial))
                chosen = [result.actions]
                if refine:
                    refined = pl.cem_refine(
                        result, scorer, _plan_seed(config, 2, seed_idx, task, trial)
                    )
                    if refined.score < result.score - 1e-12:
                        raise RefinementRegressedError(
                            f"task {task}: CEM refinement scored {refined.score!r}, "
                            f"below the plan it started from ({result.score!r})"
                        )
                    chosen.append(refined.actions)
                starts += [s0] * len(chosen)
                plans += chosen
        executed = sw.rollout_batch(np.stack(starts), np.stack(plans))
        wins = sw.success_states(task, executed).reshape(config.plan_seeds, trials, -1)
        for seed_idx, seed_wins in enumerate(wins.sum(axis=1).tolist()):
            row = {
                "task": task,
                "seed": seed_idx,
                "trials": trials,
                "successes": seed_wins[0],
                "rate": seed_wins[0] / trials,
            }
            if refine:
                row["refined_successes"] = seed_wins[1]
                row["refined_rate"] = seed_wins[1] / trials
            rows.append(row)
    return {"rows": rows}


# --- ablation grid ---

ABLATION_COLUMNS = ("seed", "mode", "k", "source", "auc_train", "auc_heldout")
_SOURCE_AXES = {"random": ("random",), "near_success": ("near_success",), "both": ("random", "near_success")}
# the grid `run_ablation` sweeps: modes, K values, failure sources, seeds
ABLATION_MODES = ("no_failure", "bce", "fvlc")
ABLATION_KS = (1, 2, 3, 4, 5)
ABLATION_SOURCES = tuple(_SOURCE_AXES)
ABLATION_SEEDS = 3


def ablation_cells(modes, k_values, sources):
    """mode x K x source with the K axis collapsed for prompt-free modes."""
    cells = []
    for mode in modes:
        ks = list(k_values) if mode == "fvlc" else [None]
        for k in ks:
            for source in sources:
                cells.append((mode, k, source))
    return cells


def run_ablation(base_config: ExperimentConfig):
    """One row per (seed, mode, K, source) cell of the ABLATION_* grid, for
    the seeds base_config.seed + i, i < ABLATION_SEEDS; shared datasets per
    seed. With no held-out tasks, auc_heldout is left empty.

    Every task's training set has robot_failure_per_task failure clips, so a
    K above that count is rejected before any cell trains."""
    k_max = max(ABLATION_KS)
    if "fvlc" in ABLATION_MODES and k_max > base_config.robot_failure_per_task:
        raise TooFewSamplesError(
            f"k_values up to {k_max} need {k_max} failure clips per task; "
            f"robot_failure_per_task is {base_config.robot_failure_per_task}"
        )
    rows = []
    for seed in range(base_config.seed, base_config.seed + ABLATION_SEEDS):
        eval_ds = eval_dataset_for(replace(base_config, seed=seed))
        datasets = {}
        for mode, k, source in ablation_cells(ABLATION_MODES, ABLATION_KS, ABLATION_SOURCES):
            cfg = replace(
                base_config,
                seed=seed,
                mode=mode,
                k_clusters=k if k is not None else base_config.k_clusters,
                failure_sources=_SOURCE_AXES[source],
            )
            if source not in datasets:
                datasets[source] = train_dataset_for(cfg)
            result = train(cfg, datasets[source])
            sep_train = evaluate_separation(result.params, eval_ds, cfg.train_tasks)
            sep_held = evaluate_separation(result.params, eval_ds, cfg.heldout_tasks)
            rows.append({
                "seed": seed,
                "mode": mode,
                "k": k if k is not None else "-",
                "source": source,
                "auc_train": mean_auc(sep_train),
                "auc_heldout": mean_auc(sep_held) if sep_held else "",
            })
    rows.sort(key=lambda r: (r["seed"], r["mode"], str(r["k"]), r["source"]))
    return rows


def ablation_csv(rows) -> str:
    lines = [",".join(ABLATION_COLUMNS)]
    for row in rows:
        fields = []
        for col in ABLATION_COLUMNS:
            val = row[col]
            fields.append(repr(val) if isinstance(val, float) else str(val))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
