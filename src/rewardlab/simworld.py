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
the state: the renderer takes it beside the states.

Two entry points share the physics. `rollout_batch` (planning, the
learned-dynamics fit), and `rollout_every`, which keeps every k-th state
of it (the ground-truth chunk scorer), run an open-loop core, time-major
inside. What depends only on the actions and the start state is computed
for the whole horizon at once: the clamped velocities, the grip latch,
the gripper path and the faucet's contact and angle (np.cumsum, which
adds in step order); step loops move only the drawer and the cup.
`step_batch` (datagen's closed-loop controllers) runs a one-step body
without the core's latch keys, cumsum, frozen prefix and first-touch
tests, which cost about a third of a one-step call through the core.
Both call the same drawer and cup steps. Each value comes from the same
float operations in the same order as stepping, so batched rollouts are
bit-identical to stepping states one at a time. (The cup's "moving
toward" test negates the gripper - cup offset, which is exact, and
`clamp` returns np.clip's bytes, a -0.0 included.)

`step_batch` works on contiguous (7, n) state rows and (3, n) action rows.
Given transposed views of such arrays, as the state-major loop of datagen
passes them, it takes them without a copy; that loop copies each returned
step into its next (7, n) state rows.

The drawer and the cup are frozen until touched. A step moves the drawer
only when the gripper is within the contact radius of its handle, and the
cup only when the gripper is within it of the cup. Until some row of a
block touches one of them, every step adds 0.0 to it and clamps, so from
step 1 on it holds clamp(start + 0.0): the start itself, except that a
-0.0 becomes +0.0 and an out-of-range start is clamped at step 1, as
stepping does. The core writes those values for the whole horizon, runs
the loop's own contact test (the same expressions, so rounding cannot
make it disagree) over them, and starts that object's step loop at the
first step on which the test holds for some row, or skips the loop.

Start states: `initial_states` builds a task's (n, 7) starts from
(n, START_DRAWS) `Generator.random` draws, each mapped to its uniform range
by the task's row of one table of bounds; `initial_state_array` is its
one-row case, drawing from a Generator. Row i is what four `uniform`
calls drawing the same numbers would give, so a caller can draw the starts
of a whole band or episode set first and build them in one call.
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

ROLLOUT_BLOCK = 640  # rows per block of one rollout_batch call

# the step loops' constants as 0-d float64 arrays: the same values, but a
# Python float operand costs numpy a conversion on every call (~0.5 us)
_ZERO, _ONE, _HALF, _NEG_HALF, _CONTACT2 = (np.array(v) for v in (0.0, 1.0, 0.5, -0.5, CONTACT_RADIUS**2))
_DRAWER_MAX, _DRAWER_X, _DRAWER_Y, _FAUCET_X, _FAUCET_Y = (
    np.array(v) for v in (DRAWER_MAX, *DRAWER_BASE, *FAUCET_HANDLE))
VEL_BOX = np.array(-VEL_LIMIT), np.array(VEL_LIMIT)  # (low, high) of every velocity clamp


def clamp(v, low, high, out=None):
    """v limited to [low, high]: np.clip's bytes without its per-call overhead.
    v goes second: on a +0.0/-0.0 tie, np.maximum and np.minimum return it."""
    return np.minimum(high, np.maximum(low, v, out=out), out=out)


def _roll(s0: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """The simulator: checked (n,7) states and (n,h,3) actions -> the
    time-major (h+1, 7, n) states of their rollout."""
    n, h = actions.shape[:2]
    vel = np.empty((h, 2, n))
    clamp(actions[:, :, :2].transpose(1, 2, 0), *VEL_BOX, out=vel)
    code = actions[:, :, 2].T
    path = np.empty((h + 1, STATE_DIM, n))
    path[0] = s0.T
    gxy, grip, ext, angle, cup = (
        path[:, GX:GY + 1], path[:, GRIP], path[:, EXT], path[:, ANGLE], path[:, CUPX:CUPY + 1])

    # grip latch: the last open/close code so far, else the start grip; a
    # code at step t is keyed 2t+2 (+1 for close), so the running max keys
    # the last one and its parity says which
    keys = np.arange(2, 2 * h + 1, 2, dtype=np.int32)[:, None] + (code > 0.5)
    last = np.maximum.accumulate((np.abs(code) > 0.5) * keys, axis=0)
    grip[1:] = np.where(last > 0, last & 1, grip[0])
    gripped = grip > 0.5

    # the gripper moves on its own, clamped to the table
    for t in range(h):
        clamp(np.add(gxy[t], vel[t], out=gxy[t + 1]), _ZERO, _ONE, out=gxy[t + 1])
    gx, gy = path[:h, GX], path[:h, GY]

    # faucet: tangential (x) motion accumulates while touching the handle;
    # cumsum adds in the same order as stepping
    near_faucet = (gx - FAUCET_HANDLE[0]) ** 2 + (gy - FAUCET_HANDLE[1]) ** 2 <= CONTACT_RADIUS**2
    angle[1:] = np.where(near_faucet, np.abs(vel[:, 0]), 0.0)
    np.cumsum(angle, axis=0, out=angle)

    # drawer and cup: until some row touches one, it holds its step-1 value
    # clamp(start + 0.0) (see the module docstring); its step loop starts at
    # that first touch, found by the loop's own contact test over the horizon
    ext[1:] = clamp(ext[0] + 0.0, _ZERO, _DRAWER_MAX)
    cup[1:] = clamp(cup[0] + 0.0, _ZERO, _ONE)

    drawer_dx2 = (gx - DRAWER_BASE[0]) ** 2
    near = drawer_dx2 + (gy - (_DRAWER_Y + ext[:h])) ** 2 <= _CONTACT2
    vy = vel[:, 1]
    for t in range(_first_row_of(near), h):
        _drawer_step(ext[t], drawer_dx2[t], gy[t], vy[t], ext[t + 1])

    d2 = gxy[:h] - cup[:h]
    d2 *= d2
    near = d2[:, 0] + d2[:, 1] <= _CONTACT2
    for t in range(_first_row_of(near), h):
        _cup_step(gxy[t], cup[t], vel[t], gripped[t + 1], cup[t + 1])
    return path


def _drawer_step(ext, dx2, gy, vy, out):
    """Drawer step of (n,) rows: the handle moves with the extension; +y
    pulls open, -y pushes shut. dx2: the gripper's squared x offset."""
    dy = gy - (_DRAWER_Y + ext)
    near = dx2 + dy * dy <= _CONTACT2
    clamp(ext + np.where(near, vy, _ZERO), _ZERO, _DRAWER_MAX, out=out)


def _cup_step(gxy, cup, vel, gripped, out):
    """Cup step of (2, n) rows: carried whenever gripped in contact, pushed
    only when moving toward it: v . (cup - gripper) > 0, i.e. v . (gripper - cup) < 0."""
    off = gxy - cup
    sq = off * off
    push = vel * off
    moves = (sq[0] + sq[1] <= _CONTACT2) & (gripped | (push[0] + push[1] < _ZERO))
    clamp(cup + np.where(moves, vel, _ZERO), _ZERO, _ONE, out=out)


def _first_row_of(mask: np.ndarray) -> int:
    """Index of the first row of an (h, n) mask holding a True, else h."""
    if not mask.size:
        return mask.shape[0]
    first = int(mask.argmax())  # row-major: the first True of the first such row
    return first // mask.shape[1] if mask.flat[first] else mask.shape[0]


def step_batch(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Advance a batch of states one step. states (N,7), actions (N,3) ->
    a new C-contiguous (N,7) array; byte for byte the core's
    rollout_batch(states, actions[:, None])[:, 1] and a per-step np.clip
    simulator's step. Transposed views of contiguous (7, N) and (3, N)
    arrays are taken without a copy."""
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != STATE_DIM:
        raise ShapeMismatchError(f"states must be (N,{STATE_DIM}), got {states.shape}")
    if actions.shape != (states.shape[0], ACTION_DIM):
        raise ShapeMismatchError(f"actions must be (N,{ACTION_DIM}), got {actions.shape}")
    # contiguous (7, n) work arrays: ufuncs over strided columns cost far more
    s, a = np.ascontiguousarray(states.T), np.ascontiguousarray(actions.T)
    new = np.empty_like(s)
    vel = clamp(a[:2], *VEL_BOX)
    new[GRIP] = np.where(a[2] > _HALF, _ONE, np.where(a[2] < _NEG_HALF, _ZERO, s[GRIP]))
    gxy, gx, gy = s[GX:GY + 1], s[GX], s[GY]
    clamp(np.add(gxy, vel, out=new[GX:GY + 1]), _ZERO, _ONE, out=new[GX:GY + 1])
    fx, fy, dx = gx - _FAUCET_X, gy - _FAUCET_Y, gx - _DRAWER_X
    near_faucet = fx * fx + fy * fy <= _CONTACT2
    np.add(s[ANGLE], np.where(near_faucet, np.abs(vel[0]), _ZERO), out=new[ANGLE])
    _drawer_step(s[EXT], dx * dx, gy, vel[1], new[EXT])
    _cup_step(gxy, s[CUPX:CUPY + 1], vel, new[GRIP] > _HALF, new[CUPX:CUPY + 1])
    return np.ascontiguousarray(new.T)


def rollout_batch(s0: np.ndarray, action_seqs: np.ndarray) -> np.ndarray:
    """Roll (N,7) states through (N,H,3) actions -> (N,H+1,7) states, in
    blocks of ROLLOUT_BLOCK rows."""
    return rollout_every(s0, action_seqs, 1)


def rollout_every(s0: np.ndarray, action_seqs: np.ndarray, stride: int) -> np.ndarray:
    """Every stride-th state of `rollout_batch`: (N,7) states through (N,H,3)
    actions -> (N, H // stride + 1, 7) states, those at steps 0, stride,
    2 * stride, ... of the rollout. Only those are transposed out of each
    block's time-major path, so no (N,H+1,7) array is built."""
    s0 = np.asarray(s0, dtype=np.float64)
    action_seqs = np.asarray(action_seqs, dtype=np.float64)
    if s0.ndim != 2 or s0.shape[1] != STATE_DIM:
        raise ShapeMismatchError(f"s0 must be (N,{STATE_DIM}), got {s0.shape}")
    if action_seqs.ndim != 3 or action_seqs.shape[::2] != (s0.shape[0], ACTION_DIM):
        raise ShapeMismatchError(
            f"action_seqs must be ({s0.shape[0]},H,{ACTION_DIM}), got {action_seqs.shape}")
    if stride < 1:
        raise ShapeMismatchError(f"stride must be at least 1, got {stride}")
    n, h = action_seqs.shape[:2]
    states = np.empty((n, h // stride + 1, STATE_DIM))
    for i in range(0, n, ROLLOUT_BLOCK):
        rows = slice(i, i + ROLLOUT_BLOCK)
        states[rows] = _roll(s0[rows], action_seqs[rows])[::stride].transpose(2, 0, 1)
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
    """Per frame (..., T+1): would the predicate hold if the clip ended here?
    States not shaped (..., T+1, 7) raise ShapeMismatchError."""
    _check_task(task_id)
    states = np.asarray(states, dtype=np.float64)
    if states.ndim < 2 or states.shape[-2] < 1 or states.shape[-1] != STATE_DIM:
        raise ShapeMismatchError(f"states must be (..., T+1, {STATE_DIM}), got {states.shape}")
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

START_DRAWS = 4  # uniform draws per start: cup x, cup y, gripper x, gripper y jitter

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


def _start_row(task_id: int):
    """A task's row of the start table: the low bound and width of each
    start draw (the cup jitters by +/-0.03, the gripper by the task's
    half-width), the drawer extension, the gripper's offset from the cup or,
    off a cup task, its fixed anchor plus offset, and whether it is a cup
    task. A width is high - low, as Generator.uniform takes it, so
    low + width * random() is uniform(low, high) bit for bit. Anchor plus
    offset is summed before the jitter is added."""
    anchor, offset, jitter = _GRIPPER_START[task_id]
    low, high = np.array([-0.03, -0.03, -jitter, -jitter]), np.array([0.03, 0.03, jitter, jitter])
    ext = 0.0 if task_id == TASK_OPEN_DRAWER else DRAWER_MAX
    if anchor == "cup":
        return low, high - low, ext, np.array(offset), True
    fixed = (DRAWER_BASE[0], DRAWER_BASE[1] + ext) if anchor == "drawer" else FAUCET_HANDLE
    return low, high - low, ext, np.array([fixed[0] + offset[0], fixed[1] + offset[1]]), False


_START = {task_id: _start_row(task_id) for task_id in _GRIPPER_START}
_CUP_NOMINAL = np.array(CUP_NOMINAL)


def initial_states(task_id: int, draws: np.ndarray) -> np.ndarray:
    """Task-specific (n, 7) starts from (n, START_DRAWS) `Generator.random`
    draws: gripper near the relevant object, objects jittered. Row i is the
    start of four `uniform` calls (cup x, cup y, then the gripper's x and y
    jitter) whose `random()` draws are draws[i]."""
    _check_task(task_id)
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != START_DRAWS:
        raise ShapeMismatchError(f"draws must be (n,{START_DRAWS}), got {draws.shape}")
    low, width, drawer_ext, gripper, on_cup = _START[task_id]
    u = low + width * draws
    states = np.zeros((draws.shape[0], STATE_DIM))
    cup = np.add(_CUP_NOMINAL, u[:, :2], out=states[:, CUPX:CUPY + 1])
    if on_cup:
        gripper = cup + gripper
    gxy = states[:, GX:GY + 1]
    clamp(np.add(gripper, u[:, 2:], out=gxy), _ZERO, _ONE, out=gxy)
    states[:, EXT] = drawer_ext
    return states


def initial_state_array(task_id: int, rng: np.random.Generator) -> np.ndarray:
    """One (7,) start of the task's distribution (`initial_states`), drawn from rng."""
    return initial_states(task_id, rng.random((1, START_DRAWS)))[0]
