"""Action selection: random-shooting planning plus CEM refinement.

vmpc_plan samples candidate action sequences uniformly in the clamped
action box, predicts each candidate's chunked rollout with a dynamics
model, scores the predicted states with a reward function, and returns the
argmax (ties break to the lowest candidate index).

cem_refine searches near an initial sequence: Gaussian populations around
a running mean over the velocity channels (grip commands stay fixed),
elite refitting, and a best-ever result that never decreases.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn, encoders as enc, render, simworld as sw
from .errors import BadConfigError
from .losses import _sigmoid


@dataclass(frozen=True)
class CemConfig:
    iterations: int = 4
    population: int = 64
    elite_fraction: float = 0.1
    init_std: float = 0.02

    @property
    def elite_count(self) -> int:
        return max(1, int(round(self.population * self.elite_fraction)))


@dataclass(frozen=True)
class PlanConfig:
    n_candidates: int = 300
    horizon: int = sw.HORIZON
    seed: int = 0
    cem: CemConfig = field(default_factory=CemConfig)

    def __post_init__(self):
        if self.n_candidates < 1:
            raise BadConfigError("need at least one candidate")
        if self.horizon < dyn.CHUNK or self.horizon % dyn.CHUNK != 0:
            raise BadConfigError(f"horizon must be a positive multiple of {dyn.CHUNK}")


@dataclass
class PlanResult:
    actions: np.ndarray   # (H, 3)
    score: float
    index: int            # winning candidate index


@dataclass
class CemResult:
    actions: np.ndarray       # best-ever sequence
    score: float              # best-ever score (never below the initial's)
    final_mean: np.ndarray    # (H, 3): refined velocity mean + fixed grips
    best_score_history: list  # per-iteration best-ever scores


class LearnedReward:
    """sigmoid(v . t): render the predicted rollout in the robot domain (no
    camera offset), encode it, dot with the task text."""

    def __init__(self, video_params, task_table, task_id, variant="train",
                 clip_frames=enc.CLIP_FRAMES):
        self.video_params = video_params
        self.text = task_table.text_embed(task_id)
        self.variant = variant
        self.clip_frames = clip_frames

    def score_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        n, t = states.shape[0], states.shape[1]
        idx = render.clip_frame_indices(t, self.clip_frames)
        frames = render.render_frames(
            states[:, idx, :].reshape(n * self.clip_frames, sw.STATE_DIM),
            domain="robot",
            variant=self.variant,
        ).reshape(n, self.clip_frames, render.FRAME_WIDTH)
        videos = enc.encode_clips(frames, self.video_params)
        return _sigmoid(videos @ self.text)


class OracleReward:
    """Ground-truth success indicator evaluated on the state sequence."""

    def __init__(self, task_id):
        self.task_id = task_id

    def score_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=np.float64)
        return np.array(
            [1.0 if sw.success_states(self.task_id, seq) else 0.0 for seq in states]
        )


def vmpc_plan(reward, model: dyn.DynamicsModel, s0: np.ndarray, config: PlanConfig) -> PlanResult:
    """Best-of-G random shooting; deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    candidates = sw.random_action_array(rng, config.n_candidates, config.horizon)
    predicted = dyn.chunked_predict_batch(model, np.asarray(s0)[None, :], candidates)
    scores = np.asarray(reward.score_batch(predicted), dtype=np.float64)
    index = int(np.argmax(scores))  # first max wins ties
    return PlanResult(actions=candidates[index], score=float(scores[index]), index=index)


def make_sequence_scorer(reward, model: dyn.DynamicsModel, s0: np.ndarray):
    """Close over dynamics + reward: score action sequences directly."""

    def scorer(action_seqs: np.ndarray) -> np.ndarray:
        predicted = dyn.chunked_predict_batch(model, np.asarray(s0)[None, :], action_seqs)
        return np.asarray(reward.score_batch(predicted), dtype=np.float64)

    return scorer


def cem_refine(initial: np.ndarray, scorer, cem: CemConfig, seed: int = 0) -> CemResult:
    """Iterative Gaussian search near `initial` over the velocity channels."""
    initial = np.asarray(initial, dtype=np.float64)
    horizon = initial.shape[0]
    rng = np.random.default_rng(seed)
    grips = initial[:, 2]

    mean = initial[:, :2].copy()
    std = np.full_like(mean, cem.init_std)
    best_actions = initial.copy()
    best_score = float(scorer(initial[None])[0])
    history = [best_score]

    for _ in range(cem.iterations):
        vel = mean[None] + rng.normal(size=(cem.population, horizon, 2)) * std[None]
        vel = np.clip(vel, -sw.VEL_LIMIT, sw.VEL_LIMIT)
        population = np.concatenate(
            [vel, np.broadcast_to(grips[None, :, None], (cem.population, horizon, 1))], axis=2
        )
        scores = scorer(population)
        order = np.argsort(-scores, kind="stable")
        elite = vel[order[: cem.elite_count]]
        mean = elite.mean(axis=0)
        std = elite.std(axis=0)
        top = int(order[0])
        if scores[top] > best_score:
            best_score = float(scores[top])
            best_actions = population[top].copy()
        history.append(best_score)

    final_mean = np.concatenate([mean, grips[:, None]], axis=1)
    return CemResult(
        actions=best_actions,
        score=best_score,
        final_mean=final_mean,
        best_score_history=history,
    )
