"""Chunked action-conditioned state prediction for the planner.

Predictions happen once per 4-action chunk: 60 actions in, the initial
state plus 15 post-chunk states out. Two kinds:

* ground_truth - wraps the simulator and samples its rollout at chunk
  boundaries (exact by construction).
* learned - a shared per-chunk regressor applied autoregressively. The
  regressor is affine-plus-tanh: a linear part plus fixed random tanh
  features, fit in closed form by sample-normalized ridge least squares.
  The affine part represents the no-contact (linear) transitions exactly;
  the random features soak up contact effects. The normalized normal
  equations make the fit invariant to duplicating the dataset. Their sums
  Phi^T Phi and Phi^T Y are added up over blocks of EPISODE_BLOCK episodes,
  so the design matrix Phi of the whole dataset is never built; a dataset
  of one block gives the same bits as the one-shot product.

The fit streams its episodes: `train_dynamics` takes an iterable of
(states, actions) blocks and keeps only the running sums and one block at
a time. A block's design rows exist only while that block is summed, so
the next block is never made next to them. `random_episode_blocks` rolls
the random-policy episodes ROLL_BLOCK at a time, so the whole episode set
is never held at once.
"""

from dataclasses import dataclass

import numpy as np

from . import simworld as sw
from .errors import BadHorizonError, InsufficientDataError, ShapeMismatchError

CHUNK = 4
INPUT_DIM = sw.STATE_DIM + CHUNK * sw.ACTION_DIM  # 19
N_FEATURES = 256
RIDGE = 1e-8  # ridge added to the sample-normalized Gram matrix
RANDOM_EPISODES = 2000  # random-policy episodes train_on_random_episodes fits on
EPISODE_BLOCK = 64  # episodes per block of the normal-equation sums (960 rows)
ROLL_BLOCK = 2 * EPISODE_BLOCK  # random episodes per rollout_batch call of the fit
_EPISODE_STREAM = 41  # rng stream tag of the random-policy episodes

GROUND_TRUTH = "ground_truth"
LEARNED = "learned"

# per-column clamps applied to learned predictions
_LOW = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
_HIGH = np.array([1.0, 1.0, 1.0, sw.DRAWER_MAX, np.inf, 1.0, 1.0])


@dataclass
class DynamicsModel:
    kind: str
    feature_w: np.ndarray | None = None   # (INPUT_DIM, R)
    feature_b: np.ndarray | None = None   # (R,)
    weights: np.ndarray | None = None     # (1 + INPUT_DIM + R, STATE_DIM)


def ground_truth_model() -> DynamicsModel:
    return DynamicsModel(kind=GROUND_TRUTH)


def _check_horizon(n_actions: int) -> int:
    if n_actions < CHUNK or n_actions % CHUNK != 0:
        raise BadHorizonError(
            f"need a positive multiple of {CHUNK} actions, got {n_actions}"
        )
    return n_actions // CHUNK


def chunked_predict_batch(model: DynamicsModel, s0: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """(N,7) initial states + (N,H,3) actions -> (N, H/4 + 1, 7) states.

    A learned prediction of one row is not bit-equal to that row's
    prediction inside a batch: numpy's one-row matmul takes another BLAS
    path (at seed 0 they differ by up to ~4e-14). Batches split into parts
    of two or more rows give the same bits (64 -> 32 + 32, 300 -> 150 + 150,
    or pairs), so a lockstep reference compares batches of >= 2 rows.
    """
    s0 = np.asarray(s0, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim != 3 or s0.shape != (actions.shape[0], sw.STATE_DIM):
        raise ShapeMismatchError(f"need s0 (N,7) and actions (N,H,3), "
                                 f"got {s0.shape} and {actions.shape}")
    n_chunks = _check_horizon(actions.shape[1])

    if model.kind == GROUND_TRUTH:
        return sw.rollout_every(s0, actions, CHUNK)

    n = s0.shape[0]
    out = np.empty((n, n_chunks + 1, sw.STATE_DIM))
    out[:, 0] = s0
    # design rows [1, state, chunk actions, features], one buffer for all chunks
    pre = np.empty((n, model.feature_w.shape[1]))
    phi = np.empty((n, 1 + INPUT_DIM + pre.shape[1]))
    phi[:, 0] = 1.0
    x = phi[:, 1:1 + INPUT_DIM]
    chunks = actions.reshape(n, n_chunks, CHUNK * sw.ACTION_DIM)
    cur = s0
    for c in range(n_chunks):
        x[:, :sw.STATE_DIM] = cur
        x[:, sw.STATE_DIM:] = chunks[:, c]
        np.matmul(x, model.feature_w, out=pre)
        pre += model.feature_b
        np.tanh(pre, out=phi[:, 1 + INPUT_DIM:])
        cur = sw.clamp(cur + phi @ model.weights, _LOW, _HIGH)
        out[:, c + 1] = cur
    return out


def _check_episodes(states: np.ndarray, actions: np.ndarray):
    """Float arrays of (N, H+1, 7) states and (N, H, 3) actions, and H/4."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    n, h = actions.shape[:2] if actions.ndim == 3 else (0, -1)
    if states.shape != (n, h + 1, sw.STATE_DIM) or actions.shape != (n, h, sw.ACTION_DIM):
        raise ShapeMismatchError(f"need states (N,H+1,7) and actions (N,H,3), "
                                 f"got {states.shape} and {actions.shape}")
    return states, actions, _check_horizon(h)


def chunk_transitions(states: np.ndarray, actions: np.ndarray):
    """Split episodes into per-chunk (input, delta) training pairs.

    states (N, H+1, 7), actions (N, H, 3) -> x (N*H/4, 19), y (N*H/4, 7),
    rows in (episode, chunk) order.
    """
    states, actions, n_chunks = _check_episodes(states, actions)
    start = states[:, :-1:CHUNK]
    chunks = actions.reshape(actions.shape[0], n_chunks, CHUNK * sw.ACTION_DIM)
    x = np.concatenate([start, chunks], axis=2).reshape(-1, INPUT_DIM)
    return x, (states[:, CHUNK::CHUNK] - start).reshape(-1, sw.STATE_DIM)


def train_dynamics(episodes, seed: int = 0) -> DynamicsModel:
    """Fit the chunk regressor on an iterable of episode blocks, each
    (N, H+1, 7) states and their (N, H, 3) actions, in closed form from
    normal equations (N_FEATURES, RIDGE) summed over EPISODE_BLOCK episodes
    at a time from each block's start. Only one block is held at a time,
    and its design rows only while `_add_sums` sums it."""
    rng = np.random.default_rng(seed)
    model = DynamicsModel(
        kind=LEARNED,
        feature_w=rng.normal(size=(INPUT_DIM, N_FEATURES)) / np.sqrt(INPUT_DIM),
        feature_b=rng.uniform(-1.0, 1.0, size=N_FEATURES),
    )
    width = 1 + INPUT_DIM + N_FEATURES
    gram = np.zeros((width, width))
    moment = np.zeros((width, sw.STATE_DIM))
    n = 0
    for states, actions in episodes:
        n += _add_sums(model, states, actions, gram, moment)
        del states, actions  # not held while the next block is made
    if n < 100:
        raise InsufficientDataError(f"{n} chunk transitions < 100")
    model.weights = np.linalg.solve(gram / n + RIDGE * np.eye(width), moment / n)
    return model


def _add_sums(model: DynamicsModel, states, actions, gram: np.ndarray, moment: np.ndarray) -> int:
    """Add one block's Phi^T Phi to gram and Phi^T Y to moment, EPISODE_BLOCK
    episodes at a time, and return its number of transitions. The design
    buffer is this call's own, so it is freed before the next block is made."""
    states, actions, n_chunks = _check_episodes(states, actions)
    rows = min(actions.shape[0], EPISODE_BLOCK) * n_chunks
    buffer = np.empty((rows, gram.shape[0]))
    buffer[:, 0] = 1.0
    for i in range(0, actions.shape[0], EPISODE_BLOCK):
        x, y = chunk_transitions(states[i:i + EPISODE_BLOCK], actions[i:i + EPISODE_BLOCK])
        # design rows [1, x, tanh(x W + b)]
        phi = buffer[:x.shape[0]]
        feats = phi[:, 1 + INPUT_DIM:]
        phi[:, 1:1 + INPUT_DIM] = x
        np.matmul(x, model.feature_w, out=feats)
        feats += model.feature_b
        np.tanh(feats, out=feats)
        gram += phi.T @ phi
        moment += phi.T @ y
    return actions.shape[0] * n_chunks


def random_episode_blocks(n_episodes: int, seed: int):
    """Random-policy episodes cycling over task initial-state distributions,
    yielded as (states (n, H+1, 7), actions (n, H, 3)) blocks of at most
    ROLL_BLOCK episodes, each rolled by one rollout_batch call. Every start
    state is drawn first, then each episode's actions in order, so the
    episodes do not depend on the block size."""
    rng = np.random.default_rng([seed, _EPISODE_STREAM])
    tasks = sw.ALL_TASKS
    draws = rng.random((n_episodes, sw.START_DRAWS))
    s0 = np.empty((n_episodes, sw.STATE_DIM))
    for k, task_id in enumerate(tasks):  # episode i starts from task i % 7's distribution
        s0[k::len(tasks)] = sw.initial_states(task_id, draws[k::len(tasks)])
    for i in range(0, n_episodes, ROLL_BLOCK):
        starts = s0[i:i + ROLL_BLOCK]
        actions = np.empty((starts.shape[0], sw.HORIZON, sw.ACTION_DIM))
        for row in actions:
            row[:] = sw.random_action_array(rng, 1, sw.HORIZON)[0]
        yield sw.rollout_batch(starts, actions), actions


def train_on_random_episodes(*, seed: int = 0) -> DynamicsModel:
    """The regressor fit on RANDOM_EPISODES random-policy episodes."""
    return train_dynamics(random_episode_blocks(RANDOM_EPISODES, seed), seed=seed)
