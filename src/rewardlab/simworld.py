"""Deterministic 2-D tabletop simulator with scripted success predicates.

The table is the unit square. A gripper moves with per-axis velocities
clamped to +/-0.05 per step and can open/close. Three objects live on the
table: a drawer (one prismatic degree of freedom along +y, extension in
[0, 0.07]), a faucet handle (accumulates |tangential| displacement), and a
cup (free translation). Contact means the gripper is within 0.04 of the
object's handle point at the start of a step.

State and actions are plain float64 arrays, the only representation of
the table: a state is a row of STATE_DIM columns (gripper xy, grip 0/1,
drawer extension, faucet angle, cup xy), an action a row of ACTION_DIM
columns (vx, vy, grip code). Functions take batches of rows; a rollout
is (H+1, STATE_DIM) states from (H, ACTION_DIM) actions. The task
predicates take (..., T+1, STATE_DIM) state sequences, so one call judges
one rollout or a whole batch of them. The camera offset is not part of
the state: the renderer takes it beside the states. All dynamics are
elementwise, so batched rollouts are bit-identical to stepping states one
at a time.
"""

import numpy as np

from .errors import ShapeMismatchError, UnknownTaskError

# --- table constants ---
CONTACT_RADIUS = 0.04
VEL_LIMIT = 0.05
DRAWER_MAX = 0.07
DRAWER_BASE = (0.25, 0.55)  # handle sits at (x, y + extension)
FAUCET_HANDLE = (0.70, 0.72)
CUP_NOMINAL = (0.50, 0.35)
HORIZON = 60

# state array columns
GX, GY, GRIP, EXT, ANGLE, CUPX, CUPY = range(7)
STATE_DIM = 7

# action array columns: vx, vy, grip code (-1 open, 0 hold, +1 close)
ACTION_DIM = 3

# --- task registry ---
TASK_CLOSE_DRAWER = 0
TASK_CUP_AWAY = 1
TASK_FAUCET = 2
TASK_CUP_LEFT_TO_RIGHT = 3
TASK_OPEN_DRAWER = 4
TASK_CUP_RIGHT_TO_LEFT = 5
TASK_POKE_CUP = 6

TASK_NAMES = {
    TASK_CLOSE_DRAWER: "closing drawer",
    TASK_CUP_AWAY: "moving cup away from the camera",
    TASK_FAUCET: "moving the handle of the faucet",
    TASK_CUP_LEFT_TO_RIGHT: "pushing cup from left to right",
    TASK_OPEN_DRAWER: "opening drawer",
    TASK_CUP_RIGHT_TO_LEFT: "pushing cup from right to left",
    TASK_POKE_CUP: "poking cup so lightly that it almost does not move",
}
ALL_TASKS = tuple(sorted(TASK_NAMES))
TARGET_TASKS = (TASK_CLOSE_DRAWER, TASK_CUP_AWAY, TASK_FAUCET, TASK_CUP_LEFT_TO_RIGHT)
TRAIN_TASKS = (TASK_OPEN_DRAWER, TASK_CUP_RIGHT_TO_LEFT, TASK_POKE_CUP)

# success thresholds (boundaries are strict/inclusive exactly as documented
# on each predicate below)
DRAWER_CLOSED_BELOW = 0.05
DRAWER_OPEN_ABOVE = 0.02
CUP_AWAY_DIST = 0.1
FAUCET_MIN_TURN = 0.01
CUP_PUSH_DIST = 0.05
POKE_MAX_MOVE = 0.01


def _check_task(task_id: int) -> None:
    if task_id not in TASK_NAMES:
        raise UnknownTaskError(f"no task with id {task_id}")


# --- dynamics ---

def step_batch(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Advance a batch of states one step. states (N,7), actions (N,3)."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ShapeMismatchError(f"states must be (N,{STATE_DIM}), got {states.shape}")
    if actions.shape != (states.shape[0], ACTION_DIM):
        raise ShapeMismatchError(f"actions must be (N,{ACTION_DIM}), got {actions.shape}")

    vx = np.clip(actions[:, 0], -VEL_LIMIT, VEL_LIMIT)
    vy = np.clip(actions[:, 1], -VEL_LIMIT, VEL_LIMIT)
    gcode = actions[:, 2]

    out = states.copy()
    grip = np.where(gcode > 0.5, 1.0, np.where(gcode < -0.5, 0.0, states[:, GRIP]))
    out[:, GRIP] = grip

    gx, gy = states[:, GX], states[:, GY]

    # drawer: handle moves with the extension; +y pulls open, -y pushes shut
    hx = np.full_like(gx, DRAWER_BASE[0])
    hy = DRAWER_BASE[1] + states[:, EXT]
    near_drawer = (gx - hx) ** 2 + (gy - hy) ** 2 <= CONTACT_RADIUS**2
    out[:, EXT] = np.clip(states[:, EXT] + np.where(near_drawer, vy, 0.0), 0.0, DRAWER_MAX)

    # faucet: tangential (x) motion accumulates while touching the handle
    near_faucet = (gx - FAUCET_HANDLE[0]) ** 2 + (gy - FAUCET_HANDLE[1]) ** 2 <= CONTACT_RADIUS**2
    out[:, ANGLE] = states[:, ANGLE] + np.where(near_faucet, np.abs(vx), 0.0)

    # cup: carried whenever gripped in contact, pushed only when moving toward it
    cx, cy = states[:, CUPX], states[:, CUPY]
    near_cup = (gx - cx) ** 2 + (gy - cy) ** 2 <= CONTACT_RADIUS**2
    toward = vx * (cx - gx) + vy * (cy - gy) > 0.0
    moves = near_cup & ((grip > 0.5) | toward)
    out[:, CUPX] = np.clip(cx + np.where(moves, vx, 0.0), 0.0, 1.0)
    out[:, CUPY] = np.clip(cy + np.where(moves, vy, 0.0), 0.0, 1.0)

    out[:, GX] = np.clip(gx + vx, 0.0, 1.0)
    out[:, GY] = np.clip(gy + vy, 0.0, 1.0)
    return out


def rollout_batch(s0: np.ndarray, action_seqs: np.ndarray) -> np.ndarray:
    """Roll (N,7) states through (N,H,3) actions -> (N,H+1,7) states."""
    s0 = np.asarray(s0, dtype=np.float64)
    action_seqs = np.asarray(action_seqs, dtype=np.float64)
    if s0.ndim != 2 or s0.shape[1] != STATE_DIM:
        raise ShapeMismatchError(f"s0 must be (N,{STATE_DIM}), got {s0.shape}")
    if action_seqs.ndim != 3 or action_seqs.shape[::2] != (s0.shape[0], ACTION_DIM):
        raise ShapeMismatchError(
            f"action_seqs must be ({s0.shape[0]},H,{ACTION_DIM}), got {action_seqs.shape}")
    n, h = action_seqs.shape[0], action_seqs.shape[1]
    states = np.empty((n, h + 1, STATE_DIM))
    states[:, 0] = s0
    cur = s0
    for t in range(h):
        cur = step_batch(cur, action_seqs[:, t])
        states[:, t + 1] = cur
    return states


def rollout_states(s0: np.ndarray, action_seq: np.ndarray) -> np.ndarray:
    """Roll one (7,) state through (H,3) actions -> (H+1,7) states."""
    return rollout_batch(np.asarray(s0)[None, :], np.asarray(action_seq)[None])[0]


def random_action_array(rng: np.random.Generator, n: int, horizon: int) -> np.ndarray:
    """(n, horizon, 3) uniform actions in the clamped box; grip uniform over
    open/hold/close."""
    out = np.empty((n, horizon, ACTION_DIM))
    out[:, :, 0] = rng.uniform(-VEL_LIMIT, VEL_LIMIT, size=(n, horizon))
    out[:, :, 1] = rng.uniform(-VEL_LIMIT, VEL_LIMIT, size=(n, horizon))
    out[:, :, 2] = rng.integers(-1, 2, size=(n, horizon)).astype(np.float64)
    return out


# --- success predicates ---
# Each takes states of shape (..., T+1, 7): one sequence or any batch of them.

def target_points(task_id: int, states: np.ndarray) -> np.ndarray:
    """Handle point of the task's object in each (..., 7) state -> (..., 2)."""
    _check_task(task_id)
    states = np.asarray(states, dtype=np.float64)
    if task_id in (TASK_CLOSE_DRAWER, TASK_OPEN_DRAWER):
        pos = np.empty(states.shape[:-1] + (2,))
        pos[..., 0] = DRAWER_BASE[0]
        pos[..., 1] = DRAWER_BASE[1] + states[..., EXT]
        return pos
    if task_id == TASK_FAUCET:
        return np.broadcast_to(np.array(FAUCET_HANDLE), states.shape[:-1] + (2,))
    return states[..., (CUPX, CUPY)]


def target_contact_mask(task_id: int, states: np.ndarray) -> np.ndarray:
    """Per frame (..., T+1): gripper within contact radius of the task object."""
    states = np.asarray(states, dtype=np.float64)
    pos = target_points(task_id, states)
    d2 = (states[..., GX] - pos[..., 0]) ** 2 + (states[..., GY] - pos[..., 1]) ** 2
    return d2 <= CONTACT_RADIUS**2


def prefix_success_flags(task_id: int, states: np.ndarray) -> np.ndarray:
    """Per frame (..., T+1): would the predicate hold if the clip ended here?"""
    _check_task(task_id)
    states = np.asarray(states, dtype=np.float64)
    first = states[..., :1, :]
    if task_id == TASK_CLOSE_DRAWER:
        return states[..., EXT] < DRAWER_CLOSED_BELOW
    if task_id == TASK_CUP_AWAY:
        return states[..., CUPY] - first[..., CUPY] >= CUP_AWAY_DIST
    if task_id == TASK_FAUCET:
        return states[..., ANGLE] > FAUCET_MIN_TURN
    if task_id == TASK_CUP_LEFT_TO_RIGHT:
        return states[..., CUPX] - first[..., CUPX] >= CUP_PUSH_DIST
    if task_id == TASK_OPEN_DRAWER:
        return states[..., EXT] > DRAWER_OPEN_ABOVE
    if task_id == TASK_CUP_RIGHT_TO_LEFT:
        return first[..., CUPX] - states[..., CUPX] >= CUP_PUSH_DIST
    # poke: touched the cup so far while it has barely moved so far
    touched = np.maximum.accumulate(target_contact_mask(task_id, states), axis=-1)
    moved = np.hypot(states[..., CUPX] - first[..., CUPX], states[..., CUPY] - first[..., CUPY])
    return touched & (moved <= POKE_MAX_MOVE)


def success_states(task_id: int, states: np.ndarray) -> np.ndarray:
    """The task predicate on each (T+1, 7) sequence of (..., T+1, 7) states -> (...) bool."""
    return prefix_success_flags(task_id, states)[..., -1]


# --- initial-state distributions ---

_GRIPPER_START = {
    # (anchor, offset, jitter half-width); anchor "drawer"/"faucet"/"cup"
    TASK_CLOSE_DRAWER: ("drawer", (0.15, 0.0), 0.03),
    TASK_OPEN_DRAWER: ("drawer", (0.15, 0.0), 0.03),
    TASK_FAUCET: ("faucet", (0.0, -0.24), 0.03),
    TASK_CUP_AWAY: ("cup", (0.0, -0.07), 0.02),
    TASK_CUP_LEFT_TO_RIGHT: ("cup", (-0.09, 0.0), 0.02),
    TASK_CUP_RIGHT_TO_LEFT: ("cup", (0.09, 0.0), 0.02),
    TASK_POKE_CUP: ("cup", (-0.07, 0.0), 0.02),
}


def initial_state_array(task_id: int, rng: np.random.Generator) -> np.ndarray:
    """Task-specific (7,) start: gripper near the relevant object, objects jittered."""
    _check_task(task_id)
    cup = (
        CUP_NOMINAL[0] + rng.uniform(-0.03, 0.03),
        CUP_NOMINAL[1] + rng.uniform(-0.03, 0.03),
    )
    drawer_ext = 0.0 if task_id == TASK_OPEN_DRAWER else DRAWER_MAX
    anchor_name, offset, jitter = _GRIPPER_START[task_id]
    if anchor_name == "drawer":
        anchor = (DRAWER_BASE[0], DRAWER_BASE[1] + drawer_ext)
    elif anchor_name == "faucet":
        anchor = FAUCET_HANDLE
    else:
        anchor = cup
    gx = anchor[0] + offset[0] + rng.uniform(-jitter, jitter)
    gy = anchor[1] + offset[1] + rng.uniform(-jitter, jitter)
    state = np.zeros(STATE_DIM)
    state[[GX, GY]] = np.clip((gx, gy), 0.0, 1.0)
    state[EXT] = drawer_ext
    state[[CUPX, CUPY]] = cup
    return state
