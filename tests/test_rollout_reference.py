"""The open-loop simulator core against the per-step simulator it replaced.

The reference below is the earlier `simworld.step_batch` body: every
quantity is recomputed at every step. The core computes what depends only
on the actions and the start state (clamped velocities, grip latch,
gripper path, faucet contact and angle) for the whole horizon at once and
steps only the drawer and the cup. The arithmetic is the same, so states
must be equal byte for byte, not within a tolerance.

The cases aim at the places where a rewrite could differ: velocities
beyond the limit, every grip code and both start grips, grippers exactly
at a contact radius and level with a handle (so that a push is exactly
perpendicular), the drawer at both stops, the cup at the table edge, long
stretches of contact with the faucet, and batches that span several
`ROLLOUT_BLOCK` blocks.
"""

import numpy as np
import pytest

from rewardlab import simworld as sw
from rewardlab.errors import ShapeMismatchError


# --- reference: the per-step simulator ---

def ref_step(states, actions):
    vx = np.clip(actions[:, 0], -sw.VEL_LIMIT, sw.VEL_LIMIT)
    vy = np.clip(actions[:, 1], -sw.VEL_LIMIT, sw.VEL_LIMIT)
    gcode = actions[:, 2]

    out = states.copy()
    grip = np.where(gcode > 0.5, 1.0, np.where(gcode < -0.5, 0.0, states[:, sw.GRIP]))
    out[:, sw.GRIP] = grip

    gx, gy = states[:, sw.GX], states[:, sw.GY]

    hx = np.full_like(gx, sw.DRAWER_BASE[0])
    hy = sw.DRAWER_BASE[1] + states[:, sw.EXT]
    near_drawer = (gx - hx) ** 2 + (gy - hy) ** 2 <= sw.CONTACT_RADIUS**2
    out[:, sw.EXT] = np.clip(states[:, sw.EXT] + np.where(near_drawer, vy, 0.0), 0.0, sw.DRAWER_MAX)

    near_faucet = ((gx - sw.FAUCET_HANDLE[0]) ** 2 + (gy - sw.FAUCET_HANDLE[1]) ** 2
                   <= sw.CONTACT_RADIUS**2)
    out[:, sw.ANGLE] = states[:, sw.ANGLE] + np.where(near_faucet, np.abs(vx), 0.0)

    cx, cy = states[:, sw.CUPX], states[:, sw.CUPY]
    near_cup = (gx - cx) ** 2 + (gy - cy) ** 2 <= sw.CONTACT_RADIUS**2
    toward = vx * (cx - gx) + vy * (cy - gy) > 0.0
    moves = near_cup & ((grip > 0.5) | toward)
    out[:, sw.CUPX] = np.clip(cx + np.where(moves, vx, 0.0), 0.0, 1.0)
    out[:, sw.CUPY] = np.clip(cy + np.where(moves, vy, 0.0), 0.0, 1.0)

    out[:, sw.GX] = np.clip(gx + vx, 0.0, 1.0)
    out[:, sw.GY] = np.clip(gy + vy, 0.0, 1.0)
    return out


def ref_rollout(s0, actions):
    states = np.empty((actions.shape[0], actions.shape[1] + 1, sw.STATE_DIM))
    states[:, 0] = s0
    for t in range(actions.shape[1]):
        states[:, t + 1] = ref_step(states[:, t], actions[:, t])
    return states


# --- cases ---

R = sw.CONTACT_RADIUS
GRIP_CODES = np.array([-1.0, 0.0, 1.0, -0.5, 0.5, -0.75, 0.75])
KINDS = ("uniform", "gaussian", "jitter", "axis")
CAP = sw.ROLLOUT_BLOCK


def _handles(state):
    """The drawer handle, faucet handle and cup of one (7,) state."""
    return ((sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + state[sw.EXT]), sw.FAUCET_HANDLE,
            (state[sw.CUPX], state[sw.CUPY]))


def _place(state, i, rng):
    """Row i's start: the task start itself, or the gripper at (or inside)
    a handle's contact radius and level with it, with the drawer at a stop
    or the cup at the table edge."""
    handle = _handles(state)[i % 3]
    kind = (i // 3) % 5
    if kind == 1:
        state[[sw.GX, sw.GY]] = handle[0] + R, handle[1]
    elif kind == 2:
        state[[sw.GX, sw.GY]] = handle[0], handle[1] - R
    elif kind == 3:
        state[[sw.GX, sw.GY]] = handle[0] - R / 2, handle[1]
    elif kind == 4:
        state[sw.EXT] = (0.0, sw.DRAWER_MAX)[i % 2]
        state[[sw.CUPX, sw.CUPY]] = ((0.0, 0.4), (1.0, 0.5), (0.5, 0.0), (0.3, 1.0))[i % 4]
        handle = _handles(state)[i % 3]
        state[[sw.GX, sw.GY]] = handle[0] + (R / 2 if handle[0] == 0.0 else -R / 2), handle[1]
    state[sw.GRIP] = float((i // 2) % 2)
    if i % 4 == 3:
        state[sw.ANGLE] = rng.uniform(0.0, 0.3)
    return state


def make_case(kind, n, h, seed, first_task=0):
    """(n, 7) start states over every task and placement, and (n, h, 3)
    actions of one kind with every grip code."""
    rng = np.random.default_rng([seed, n, h, KINDS.index(kind)])
    tasks = sw.ALL_TASKS
    s0 = np.stack([
        _place(sw.initial_state_array(tasks[(first_task + i) % len(tasks)], rng), i, rng)
        for i in range(n)
    ])
    actions = np.empty((n, h, sw.ACTION_DIM))
    actions[:, :, 2] = rng.choice(GRIP_CODES, size=(n, h), p=[0.1, 0.5, 0.1, 0.05, 0.05, 0.1, 0.1])
    vel = actions[:, :, :2]
    if kind == "uniform":
        vel[:] = rng.uniform(-1.5 * sw.VEL_LIMIT, 1.5 * sw.VEL_LIMIT, size=(n, h, 2))
    elif kind == "gaussian":
        # a CEM population: one random plan plus Gaussian noise, clamped
        mean = rng.uniform(-sw.VEL_LIMIT, sw.VEL_LIMIT, size=(h, 2))
        vel[:] = np.clip(mean + rng.normal(scale=0.02, size=(n, h, 2)), -sw.VEL_LIMIT, sw.VEL_LIMIT)
    elif kind == "jitter":
        # small moves that stay in contact for many steps
        vel[:] = rng.normal(scale=0.004, size=(n, h, 2))
    else:
        # one axis at a time, the other exactly zero
        vel[:] = rng.uniform(-1.5 * sw.VEL_LIMIT, 1.5 * sw.VEL_LIMIT, size=(n, h, 2))
        vel[np.arange(n), :, rng.integers(0, 2, size=n)] = 0.0
    return s0, actions


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    if got.tobytes() != want.tobytes():
        bad = np.argwhere(got.view(np.int64) != want.view(np.int64))
        row = tuple(bad[0])
        raise AssertionError(
            f"{len(bad)} entries differ, first at {row}: {got[row]!r} != {want[row]!r}")


# --- tests ---

@pytest.mark.parametrize("h", [1, 4, 60])
@pytest.mark.parametrize("kind", KINDS)
def test_small_batches_of_every_task(kind, h):
    cases = [(1, task) for task in range(len(sw.ALL_TASKS))] + [(5, 0), (5, 5)]
    for n, first_task in cases:
        s0, actions = make_case(kind, n, h, seed=1, first_task=first_task)
        assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


@pytest.mark.parametrize("n, h", [(64, 1), (64, 4), (64, 60), (CAP + 1, 1), (CAP + 1, 4),
                                  (2 * CAP + 3, 60)])
@pytest.mark.parametrize("kind", KINDS)
def test_batches_match_the_reference(kind, n, h):
    s0, actions = make_case(kind, n, h, seed=2)
    assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


def test_cases_reach_the_edges():
    """The cases exercise what the comparison is meant to cover: contact of
    each kind for many steps, both grips, pushes exactly perpendicular to
    the cup offset, and the clamps at the drawer stops and table edges."""
    s0, actions = make_case("jitter", 64, 60, seed=2)
    states = ref_rollout(s0, actions)
    gx, gy = states[:, :-1, sw.GX], states[:, :-1, sw.GY]
    near_faucet = (gx - sw.FAUCET_HANDLE[0]) ** 2 + (gy - sw.FAUCET_HANDLE[1]) ** 2 <= R**2
    assert near_faucet.sum(axis=1).max() >= 20
    assert (states[:, 1:, sw.ANGLE] != states[:, :-1, sw.ANGLE]).any()
    assert set(np.unique(states[:, :, sw.GRIP])) == {0.0, 1.0}
    assert ((states[:, 0, sw.GRIP] == 1.0) & (actions[:, 0, 2] == 0.0)).any()
    assert (states[:, :, sw.EXT] == 0.0).any() and (states[:, :, sw.EXT] == sw.DRAWER_MAX).any()

    s0, actions = make_case("axis", 64, 60, seed=2)
    off = s0[:, [sw.GX, sw.GY]] - s0[:, [sw.CUPX, sw.CUPY]]
    dot = (np.clip(actions[:, 0, :2], -sw.VEL_LIMIT, sw.VEL_LIMIT) * off).sum(axis=1)
    near = (off**2).sum(axis=1) <= R**2
    assert (near & (dot == 0.0) & (actions[:, 0, :2] != 0.0).any(axis=1)).any()
    states = ref_rollout(s0, actions)
    assert np.isin(states[:, 1:, [sw.CUPX, sw.CUPY]], (0.0, 1.0)).any()


@pytest.mark.parametrize("kind", KINDS)
def test_step_batch_is_the_one_step_rollout(kind):
    s0, actions = make_case(kind, 64, 1, seed=3)
    stepped = sw.step_batch(s0, actions[:, 0])
    assert stepped.flags.c_contiguous
    assert_same_bytes(stepped, sw.rollout_batch(s0, actions)[:, 1])
    assert_same_bytes(stepped, ref_step(s0, actions[:, 0]))


def test_rollout_states_is_the_one_row_batch():
    s0, actions = make_case("uniform", 1, 60, seed=4)
    assert_same_bytes(sw.rollout_states(s0[0], actions[0]), ref_rollout(s0, actions)[0])


@pytest.mark.parametrize("states, actions", [
    (np.zeros((2, 6)), np.zeros((2, 3))),
    (np.zeros(7), np.zeros(3)),
    (np.zeros((2, 7)), np.zeros((3, 3))),
    (np.zeros((2, 7)), np.zeros((2, 2))),
    (np.zeros((2, 7)), np.zeros((2, 1, 3))),
])
def test_step_batch_rejects_bad_shapes(states, actions):
    with pytest.raises(ShapeMismatchError):
        sw.step_batch(states, actions)


@pytest.mark.parametrize("s0, actions", [
    (np.zeros((2, 6)), np.zeros((2, 4, 3))),
    (np.zeros(7), np.zeros((4, 3))),
    (np.zeros((2, 7)), np.zeros((3, 4, 3))),
    (np.zeros((2, 7)), np.zeros((2, 4, 2))),
    (np.zeros((2, 7)), np.zeros((2, 3))),
])
def test_rollout_batch_rejects_bad_shapes(s0, actions):
    with pytest.raises(ShapeMismatchError):
        sw.rollout_batch(s0, actions)
