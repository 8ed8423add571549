"""Action selection: random-shooting planning plus CEM refinement.

Both planners take a scorer: a function from (N, H, 3) action sequences to
(N,) finite scores. Each call is checked: another shape raises
ShapeMismatchError, a NaN or infinite score NonFiniteValueError (np.argmax
would pick a NaN, and every comparison with it is False).
`make_sequence_scorer` builds the one the evaluation uses: it
predicts each sequence's chunked rollout from one start state with a
dynamics model and scores the predicted states with a reward:
`LearnedReward` or `OracleReward` (the task predicate). `LearnedReward`
is the model's one scorer, sigmoid(v . t): `score_frames` scores clips
(separation goes through it too), and `score_batch` renders state
sequences with `render.render_clips` and scores those.

vmpc_plan samples candidate action sequences uniformly in the clamped
action box, scores them and returns a copy of the argmax (ties break to the
lowest candidate index), so a kept plan does not hold every candidate.

cem_refine searches near a vmpc_plan result: Gaussian populations around
a running mean over the velocity channels (grip commands stay fixed),
elite refitting, and a best-ever result that never scores below the plan
it starts from. It takes that plan's score as given rather than scoring
the sequence again.
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn, encoders as enc, render, simworld as sw
from .embeddings import sigmoid
from .errors import BadConfigError, NonFiniteValueError, ShapeMismatchError, UnknownTaskError

CEM_ITERATIONS = 4
CEM_POPULATION = 64
CEM_ELITES = 6          # the best tenth of a population
CEM_INIT_STD = 0.02


@dataclass
class PlanResult:
    actions: np.ndarray   # (H, 3)
    score: float
    index: int            # winning candidate index


@dataclass
class CemResult:
    actions: np.ndarray   # best-ever sequence
    score: float          # best-ever score (never below the starting plan's)


class LearnedReward:
    """sigmoid(v . t) of one task: v encodes a clip, t is the task's row of
    the (T, D) task texts. A task outside [0, T) raises UnknownTaskError."""

    def __init__(self, video_params, texts, task_id, variant="train"):
        if not 0 <= task_id < len(texts):
            raise UnknownTaskError(f"task {task_id} is outside the {len(texts)} task texts")
        self.video_params = video_params
        self.text = texts[task_id]
        self.variant = variant

    def score_frames(self, frames: np.ndarray) -> np.ndarray:
        """(n,) scores of (n, L, F) clips."""
        return sigmoid(enc.encode_clips(frames, self.video_params) @ self.text)

    def score_batch(self, states: np.ndarray) -> np.ndarray:
        """(n,) scores of (n, T+1, 7) state sequences, rendered in the robot
        domain with no camera offset."""
        return self.score_frames(
            render.render_clips(states, self.video_params.frames, variant=self.variant)
        )


class OracleReward:
    """Ground-truth success indicator evaluated on the state sequences."""

    def __init__(self, task_id):
        self.task_id = task_id

    def score_batch(self, states: np.ndarray) -> np.ndarray:
        return sw.success_states(self.task_id, states).astype(np.float64)


def make_sequence_scorer(reward, model: dyn.DynamicsModel, s0: np.ndarray):
    """Close over dynamics + reward: score (N, H, 3) action sequences
    started from the one (7,) state s0."""
    s0 = np.asarray(s0, dtype=np.float64)

    def scorer(action_seqs: np.ndarray) -> np.ndarray:
        starts = np.broadcast_to(s0, (len(action_seqs), sw.STATE_DIM))
        predicted = dyn.chunked_predict_batch(model, starts, action_seqs)
        return np.asarray(reward.score_batch(predicted), dtype=np.float64)

    return scorer


def _scores(scorer, candidates: np.ndarray) -> np.ndarray:
    """The scorer's (n,) scores of n candidates, checked."""
    scores = np.asarray(scorer(candidates), dtype=np.float64)
    if scores.shape != (len(candidates),):
        raise ShapeMismatchError(
            f"a scorer of {len(candidates)} candidates returned shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise NonFiniteValueError("a scorer returned a NaN or infinite score")
    return scores


def vmpc_plan(scorer, n_candidates: int, horizon: int, seed: int) -> PlanResult:
    """Best of n_candidates uniform random sequences; deterministic given seed."""
    if n_candidates < 1:
        raise BadConfigError("need at least one candidate")
    rng = np.random.default_rng(seed)
    candidates = sw.random_action_array(rng, n_candidates, horizon)
    scores = _scores(scorer, candidates)
    index = int(np.argmax(scores))  # first max wins ties
    return PlanResult(actions=candidates[index].copy(), score=float(scores[index]), index=index)


def cem_refine(plan: PlanResult, scorer, seed: int) -> CemResult:
    """Iterative Gaussian search near plan.actions over the velocity
    channels, starting from best = (plan.actions, plan.score)."""
    initial = np.asarray(plan.actions, dtype=np.float64)
    horizon = initial.shape[0]
    rng = np.random.default_rng(seed)
    grips = np.broadcast_to(initial[None, :, 2:], (CEM_POPULATION, horizon, 1))

    mean = initial[:, :2].copy()
    std = np.full_like(mean, CEM_INIT_STD)
    best_actions = initial.copy()
    best_score = plan.score

    for _ in range(CEM_ITERATIONS):
        vel = mean + rng.normal(size=(CEM_POPULATION, horizon, 2)) * std
        vel = sw.clamp(vel, *sw.VEL_BOX)
        population = np.concatenate([vel, grips], axis=2)
        scores = _scores(scorer, population)
        order = np.argsort(-scores, kind="stable")
        elite = vel[order[:CEM_ELITES]]
        mean = elite.mean(axis=0)
        std = elite.std(axis=0)
        top = int(order[0])
        if scores[top] > best_score:
            best_score = float(scores[top])
            best_actions = population[top].copy()

    return CemResult(actions=best_actions, score=best_score)
