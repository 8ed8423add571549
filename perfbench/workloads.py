"""The three benchmark workloads over rewardlab's public pipeline functions.

Each workload has a set-up (timed separately, repeated by the runner) and a
round: a fixed amount of pipeline work that the runner repeats until the
run's time is up. Every round is checked; rounds of one run repeat the same
inputs, so their fingerprints must agree.

  datagen  one round = train_dataset_for + eval_dataset_for (540 + 224 clips)
  train    one round = training.train in each mode on the set-up datasets,
           each followed by evaluate_separation on the held-out tasks
  plan     one round = evaluate_planning(refine=True) with ground-truth and
           with learned dynamics, on the held-out tasks

All work runs in this process, one call at a time (closed loop).
"""

import contextlib
import hashlib
import json
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

import reference
from rewardlab import datagen, dynamics, evaluation, planner, render, training
from rewardlab.config import ExperimentConfig

MODES = ("no_failure", "bce", "fvlc")
TRAIN_EPOCHS = 5           # per train call in a train round
PLAN_REWARD_EPOCHS = 3     # the fvlc training that gives the plan workload its reward
PLAN_TRIALS = 2            # per (held-out task, plan seed): 4 x 3 x 2 = 24 plans per model
REFINE_TOLERANCE = 1e-12   # the slack evaluate_planning itself allows a refined score


@dataclass
class Outcome:
    """What one round did: operations attempted and failed, the work units
    behind its throughput, and the seconds spent inside rewardlab per part
    with the time of a reference kernel run just before it.

    A part is one call into the pipeline that every round repeats with the
    same inputs, so the runner can take each part's median over rounds."""

    attempted: int = 0
    failed: int = 0
    work: int = 0
    parts: dict = field(default_factory=dict)         # part name -> seconds
    refs: dict = field(default_factory=dict)          # part name -> reference kernel seconds
    rates: dict = field(default_factory=dict)         # metric name -> (work, part names)
    quality: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def call(self, part, fn, *args, **kwargs):
        """Time one call into rewardlab as `part`, right after a run of the
        reference kernel; None if it raised."""
        self.refs[part] = reference.seconds()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors.append(f"{part}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.parts[part] = self.parts.get(part, 0.0) + time.perf_counter() - start


def sha256_arrays(named_arrays) -> str:
    digest = hashlib.sha256()
    for name, arr in named_arrays:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


def frames_fingerprint(dataset) -> str:
    """sha256 of the clips' float64 frames in dataset order: the same digest
    as hashing `dataset.frames_array().tobytes()` of a well-formed dataset."""
    digest = hashlib.sha256()
    for clip in dataset.clips:
        digest.update(np.ascontiguousarray(clip.frames, dtype=np.float64).tobytes())
    return digest.hexdigest()


def params_fingerprint(params) -> str:
    return sha256_arrays(sorted(training.params_to_arrays(params).items()))


def _train_strata(config):
    strata = {("human", t, 1): config.human_per_task for t in config.all_tasks}
    for t in config.train_tasks:
        strata[("robot", t, 1)] = config.robot_success_per_task
        strata[("robot", t, 0)] = config.robot_failure_per_task
    return strata


def _eval_strata(config):
    strata = {}
    for t in config.all_tasks:
        strata[("robot", t, 1)] = config.eval_success_per_task
        strata[("robot", t, 0)] = config.eval_failure_per_task
    return strata


def dataset_failures(dataset, strata, clip_frames) -> int:
    """Clips missing, surplus or malformed against the expected strata."""
    counts = Counter((c.domain, c.task_id, c.success) for c in dataset.clips)
    wrong_count = sum(abs(counts.get(k, 0) - n) for k, n in strata.items())
    wrong_count += sum(n for k, n in counts.items() if k not in strata)
    shape = (clip_frames, render.FRAME_WIDTH)
    malformed = sum(
        c.frames.shape != shape
        or not np.all(np.isfinite(c.frames))
        or (c.failure_archetype in datagen.ARCHETYPES) != (c.success == 0)
        for c in dataset.clips
    )
    return wrong_count + malformed


class Datagen:
    name = "datagen"
    reason = ("scripted clip generation alone: simworld.step_batch at N=1 and the "
              "controllers; no encoder, loss, clustering or planner work")

    def __init__(self, seed: int):
        self.config = ExperimentConfig(seed=seed)
        self.overrides = {}
        self.setup_fingerprints = {}

    def setup(self):
        # warm-up: one small dataset fills lazy state (e.g. the cached
        # human-domain shift matrix) before the timed rounds
        tiny = replace(self.config, human_per_task=1, robot_success_per_task=1,
                       robot_failure_per_task=2)
        evaluation.train_dataset_for(tiny)

    def run_round(self, checked=False) -> Outcome:
        """Both datasets, one task per call. Clip seeds depend only on the
        master seed, task and index, so the joined parts are exactly the
        datasets of one call over all tasks."""
        cfg = self.config
        out = Outcome()
        train_parts, eval_parts = [], []
        for task in cfg.all_tasks:
            only = replace(cfg, train_tasks=tuple(t for t in cfg.train_tasks if t == task),
                           heldout_tasks=tuple(t for t in cfg.heldout_tasks if t == task))
            train_parts.append(out.call(f"train_dataset.{task}", evaluation.train_dataset_for, only))
            eval_parts.append(out.call(f"eval_dataset.{task}", evaluation.eval_dataset_for, cfg,
                                       tasks=(task,)))
        for label, parts, strata in (
            ("train", train_parts, _train_strata(cfg)),
            ("eval", eval_parts, _eval_strata(cfg)),
        ):
            clips = [c for part in parts if part is not None for c in part.clips]
            # gen_dataset emits every human clip before any robot clip
            dataset = datagen.Dataset(sorted(clips, key=lambda c: c.domain != "human"))
            expected = sum(strata.values())
            out.attempted += expected
            out.work += len(dataset)
            out.failed += min(expected, dataset_failures(dataset, strata, cfg.clip_frames))
            out.fingerprints[f"{label}_frames"] = frames_fingerprint(dataset)
        out.rates["clips_per_s"] = (out.work, tuple(out.parts))
        return out


class Train:
    name = "train"
    reason = ("training.train in each mode on one shared dataset: losses, encoders "
              "and the sampler; simworld does nothing after set-up")

    def __init__(self, seed: int):
        self.config = ExperimentConfig(seed=seed)
        self.overrides = {"epochs": TRAIN_EPOCHS}
        self.setup_fingerprints = {}

    def setup(self):
        self.train_set = evaluation.train_dataset_for(self.config)
        self.eval_set = evaluation.eval_dataset_for(self.config)
        self.setup_fingerprints = {
            "train_frames": frames_fingerprint(self.train_set),
            "eval_frames": frames_fingerprint(self.eval_set),
        }

    def run_round(self, checked=False) -> Outcome:
        out = Outcome()
        for mode in MODES:
            config = replace(self.config, mode=mode, **self.overrides)
            out.attempted += 1
            result = out.call(f"train.{mode}", training.train, config, self.train_set)
            if result is None:
                out.failed += 1
                continue
            steps = sum(record["steps"] for record in result.metrics)
            out.work += steps
            out.rates[f"steps_per_s.{mode}"] = (steps, (f"train.{mode}",))
            losses_finite = all(
                np.isfinite(value)
                for record in result.metrics
                for key, value in record.items() if key.startswith("loss_")
            )
            report = out.call(f"separation.{mode}", evaluation.evaluate_separation,
                              result.params, self.eval_set, config.heldout_tasks)
            if report is None:
                out.failed += 1
                continue
            aucs = [entry["auc"] for entry in report.values()]
            out.failed += int(not (losses_finite and all(0.0 <= a <= 1.0 for a in aucs)))
            out.quality[f"auc_heldout.{mode}"] = float(np.mean(aucs))
            out.fingerprints[f"params.{mode}"] = params_fingerprint(result.params)
        return out


@contextlib.contextmanager
def _capturing(owner, attribute, sink):
    """Append every return value of owner.attribute to sink while active."""
    original = vars(owner)[attribute]

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attribute, capture)
    try:
        yield sink
    finally:
        setattr(owner, attribute, original)


class Plan:
    name = "plan"
    reason = ("evaluate_planning with ground-truth and learned dynamics: batched and "
              "single-row rollouts, the learned regressor, CEM and the learned reward")

    def __init__(self, seed: int):
        self.config = ExperimentConfig(seed=seed)
        self.overrides = {"plan_trials": PLAN_TRIALS, "reward_epochs": PLAN_REWARD_EPOCHS}
        self.plan_config = replace(self.config, plan_trials=PLAN_TRIALS)
        self.setup_fingerprints = {}

    def setup(self):
        train_set = evaluation.train_dataset_for(self.config)
        reward_config = replace(self.config, mode="fvlc", epochs=PLAN_REWARD_EPOCHS)
        self.params = training.train(reward_config, train_set).params
        self.models = {
            "gt": dynamics.ground_truth_model(),
            "learned": dynamics.train_on_random_episodes(seed=self.config.seed),
        }
        self.setup_fingerprints = {
            "train_frames": frames_fingerprint(train_set),
            "params.reward": params_fingerprint(self.params),
        }

    def run_round(self, checked=False) -> Outcome:
        """One evaluate_planning call per (dynamics, held-out task).

        checked=True also captures each plan's vmpc and CEM results, to check
        that refinement never lowers the score and to fingerprint the chosen
        plan indices; the runner does this once, outside the timed rounds."""
        cfg = self.plan_config
        out = Outcome()
        for kind, model in self.models.items():
            rows, plans, refined = [], [], []
            with contextlib.ExitStack() as hooks:
                if checked:
                    hooks.enter_context(_capturing(planner, "vmpc_plan", plans))
                    hooks.enter_context(_capturing(planner, "cem_refine", refined))
                for task in cfg.heldout_tasks:
                    result = out.call(f"plan.{kind}.{task}", evaluation.evaluate_planning,
                                      self.params, model, cfg, tasks=(task,), refine=True)
                    rows += result["rows"] if result is not None else []
            trials = len(cfg.heldout_tasks) * cfg.plan_seeds * cfg.plan_trials
            done = sum(row["trials"] for row in rows)
            out.attempted += trials
            out.work += done
            out.failed += abs(trials - done)
            out.failed += sum(
                row["trials"] for row in rows
                if not (0.0 <= row["rate"] <= 1.0 and 0.0 <= row["refined_rate"] <= 1.0)
            )
            out.rates[f"plans_per_s.{kind}"] = (
                done, tuple(p for p in out.parts if p.startswith(f"plan.{kind}.")))
            if rows:
                out.quality[f"plan_success.{kind}"] = float(np.mean([r["rate"] for r in rows]))
                out.quality[f"cem_success.{kind}"] = float(
                    np.mean([r["refined_rate"] for r in rows]))
            out.fingerprints[f"outcomes.{kind}"] = hashlib.sha256(
                json.dumps(rows, sort_keys=True).encode()).hexdigest()
            if checked:
                if len(plans) != done or len(refined) != done:
                    out.failed += done
                    continue
                out.failed += sum(
                    r.score < p.score - REFINE_TOLERANCE for p, r in zip(plans, refined)
                )
                out.fingerprints[f"plan_indices.{kind}"] = hashlib.sha256(
                    np.array([p.index for p in plans], dtype=np.int64).tobytes()).hexdigest()
        return out


WORKLOADS = {w.name: w for w in (Datagen, Train, Plan)}
