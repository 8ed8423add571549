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

The core leaves the drawer and the cup unstepped until some row of a block
first touches them. A second set of cases aims at that frozen prefix: an
object no row ever touches, a first touch at the first and at the last
step, one touching row among rows that never touch, starts holding -0.0 or
out of range (clamped at step 1, which can bring a touch), one step, and
blocks whose first touches differ. A property test draws starts and
actions near the handles.

`step_batch` has its own one-step body, which shares the drawer and cup
steps with the core. It is checked against the reference on the cases
above, and a second property requires the one-step body, the core's
one-step rollout and the reference step to agree byte for byte.
`simworld.clamp` returns np.clip's bytes, so both properties draw -0.0
starts, -0.0 velocities and batches of zero rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


# --- cases for the frozen prefix ---

H = 12
FAR = (0.95, 0.08)  # farther than the contact radius from every handle


def drawer_handle(ext):
    return sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + ext


def row(gripper, vel, ext=sw.DRAWER_MAX, cup=sw.CUP_NOMINAL, grip=0.0):
    """One (7,) start and its (2,) velocity, held over the horizon."""
    s = np.zeros(sw.STATE_DIM)
    s[[sw.GX, sw.GY]] = gripper
    s[[sw.GRIP, sw.EXT]] = grip, ext
    s[[sw.CUPX, sw.CUPY]] = cup
    return s, np.asarray(vel, dtype=np.float64)


def idle(**kwargs):
    """A row whose gripper drifts far from the drawer and the cup."""
    return row(FAR, (-0.001, 0.002), **kwargs)


def approach(handle, step, vy=0.0, **kwargs):
    """A row whose gripper moves +0.01 per step along x toward `handle` and
    first comes within the contact radius at `step` (0.005 inside; one step
    earlier it is 0.005 outside). A small vy moves the drawer once touched."""
    return row((handle[0] - (R - 0.005 + 0.01 * step), handle[1]), (0.01, vy), **kwargs)


def stack(rows, h=H, seed=0):
    """(n, 7) starts and (n, h, 3) actions of the rows, grip codes drawn
    from every code."""
    s0 = np.stack([s for s, _ in rows])
    actions = np.empty((len(rows), h, sw.ACTION_DIM))
    actions[:, :, :2] = np.stack([v for _, v in rows])[:, None]
    actions[:, :, 2] = np.random.default_rng(seed).choice(GRIP_CODES, size=(len(rows), h))
    return s0, actions


def frozen_cases(h=H):
    """{name: (s0, actions)} aimed at the drawer's and the cup's first touch."""
    cup, drawer = sw.CUP_NOMINAL, drawer_handle(sw.DRAWER_MAX)
    shut = -0.001  # pushes the drawer shut while in contact
    last = h - 1
    cases = {
        "untouched": [idle(), idle(grip=1.0), row(sw.FAUCET_HANDLE, (0.004, -0.003))],
        "drawer_only": [approach(drawer, 0, shut), approach(drawer, min(5, last), shut), idle()],
        "cup_only": [approach(cup, min(3, last), grip=1.0), approach(cup, last), idle()],
        "first_step": [approach(drawer, 0, shut), approach(cup, 0, grip=1.0)],
        "last_step": [approach(drawer, last, shut), approach(cup, last)] + [idle()] * 3,
        "one_among_many": [idle()] * 4 + [approach(cup, min(6, last))] + [idle()] * 2
        + [approach(drawer, min(2, last), shut)] + [idle()] * 2,
        "negative_zero": [idle(ext=-0.0, cup=(-0.0, 0.5)), idle(ext=-0.0, cup=(0.5, -0.0)),
                          approach(drawer_handle(0.0), min(4, last), 0.001, ext=-0.0),
                          approach((0.3, 0.6), last, cup=(0.3, 0.6))],
        "negative_zero_touched_first": [approach(drawer_handle(0.0), 0, 0.001, ext=-0.0),
                                        row((0.03, 0.5), (0.0, 0.0), cup=(-0.0, 0.5)),
                                        idle(cup=(0.5, -0.0))],
        "out_of_range": [idle(ext=0.09, cup=(1.2, 0.5)), idle(ext=-0.02, cup=(0.5, -0.1)),
                         idle(cup=(-0.3, 1.4))],
        # touched only once the step-1 clamp pulls the object to the gripper
        "out_of_range_touched": [row(drawer_handle(sw.DRAWER_MAX), (0.0, -0.002), ext=0.13),
                                 row((0.98, 0.5), (0.0, 0.001), cup=(1.2, 0.5)), idle()],
    }
    return {name: stack(rows, h, seed=i) for i, (name, rows) in enumerate(cases.items())}


def block_case():
    """Three ROLLOUT_BLOCK blocks: no row of the first touches anything, one
    row of the second touches both objects at the last step, and the third
    touches both at the first step."""
    cup, drawer = sw.CUP_NOMINAL, drawer_handle(sw.DRAWER_MAX)
    rows = [idle()] * (2 * CAP + 7)
    rows[CAP + 11] = approach(cup, H - 1)
    rows[CAP + 12] = approach(drawer, H - 1, -0.001)
    rows[2 * CAP + 1] = approach(cup, 0)
    rows[2 * CAP + 5] = approach(drawer, 0, -0.001)
    return stack(rows, seed=9)


def first_touches(states):
    """(drawer, cup): the first step at which some row of the (n, T+1, 7)
    reference states touches it, T if none does."""
    g = states[:, :-1, sw.GX:sw.GY + 1]
    handle_y = sw.DRAWER_BASE[1] + states[:, :-1, sw.EXT]
    drawer = (g[..., 0] - sw.DRAWER_BASE[0]) ** 2 + (g[..., 1] - handle_y) ** 2 <= R**2
    cup = ((g - states[:, :-1, sw.CUPX:sw.CUPY + 1]) ** 2).sum(axis=-1) <= R**2
    steps = states.shape[1] - 1
    return tuple(int(np.argmax(m.any(axis=0))) if m.any() else steps for m in (drawer, cup))


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


# --- the frozen prefix ---

@pytest.mark.parametrize("name", sorted(frozen_cases()))
def test_frozen_prefix_cases_match_the_reference(name):
    s0, actions = frozen_cases()[name]
    assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


@pytest.mark.parametrize("name", sorted(frozen_cases(1)))
def test_frozen_prefix_cases_in_one_step(name):
    s0, actions = frozen_cases(1)[name]
    assert_same_bytes(sw.step_batch(s0, actions[:, 0]), ref_step(s0, actions[:, 0]))
    assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


def test_blocks_with_different_first_touches():
    s0, actions = block_case()
    assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


def test_frozen_cases_reach_the_edges():
    """The cases hit what the skipped prefix must get right: objects no row
    touches, first touches at the first and the last step and in between,
    a lone touching row, -0.0 and out-of-range starts, and blocks of one
    batch with different first touches."""
    touches = {}
    for h in (H, 1):
        for name, (s0, actions) in frozen_cases(h).items():
            touches[name, h] = first_touches(ref_rollout(s0, actions))
    assert touches["untouched", H] == (H, H)
    assert touches["drawer_only", H] == (0, H) and touches["cup_only", H] == (H, 3)
    assert touches["first_step", H] == (0, 0) and touches["last_step", H] == (H - 1, H - 1)
    assert touches["out_of_range_touched", H] == (1, 1)
    assert touches["untouched", 1] == (1, 1) and touches["first_step", 1] == (0, 0)

    s0, actions = frozen_cases()["one_among_many"]
    states = ref_rollout(s0, actions)
    assert touches["one_among_many", H] == (2, 6)
    moved = (states[:, 1:] != states[:, :1])[..., [sw.EXT, sw.CUPX, sw.CUPY]].any(axis=(1, 2))
    assert moved.sum() == 2

    starts = np.concatenate([s0 for s0, _ in frozen_cases().values()])
    objects = starts[:, [sw.EXT, sw.CUPX, sw.CUPY]]
    assert (np.signbit(objects) & (objects == 0.0)).any(axis=0).all()
    assert (starts[:, sw.EXT] > sw.DRAWER_MAX).any() and (starts[:, sw.EXT] < 0.0).any()
    cups = starts[:, [sw.CUPX, sw.CUPY]]
    assert ((cups < 0.0) | (cups > 1.0)).any(axis=0).all()
    for name, idle_rows in (("negative_zero", [0, 1]), ("out_of_range", [0, 1, 2])):
        s0, actions = frozen_cases()[name]
        objects = ref_rollout(s0, actions)[idle_rows][:, :, [sw.EXT, sw.CUPX, sw.CUPY]]
        # no row touches before step 2, and an idle row's objects change at
        # step 1 (-0.0 to +0.0, or clamped) and hold from then on
        assert min(touches[name, H]) > 1
        assert (objects[:, 1].view(np.int64) != objects[:, 0].view(np.int64)).any(axis=1).all()
        assert (objects[:, 1:] == objects[:, 1:2]).all()

    s0, actions = block_case()
    states = ref_rollout(s0, actions)
    blocks = [first_touches(states[i:i + CAP]) for i in range(0, len(s0), CAP)]
    assert blocks == [(H, H), (H - 1, H - 1), (0, 0)]


def _starts(draw, n):
    near = st.floats(-0.07, 0.07)
    rows = []
    for _ in range(n):
        ext = draw(st.sampled_from([0.0, -0.0, sw.DRAWER_MAX, 0.09, -0.02])
                   | st.floats(0.0, sw.DRAWER_MAX))
        cup = [draw(st.sampled_from([0.0, -0.0, 1.0, 1.1]) | st.floats(-0.05, 1.05))
               for _ in range(2)]
        anchor = draw(st.sampled_from(["drawer", "cup", "faucet", "free", "edge"]))
        if anchor == "edge":  # only a -0.0 move keeps a -0.0 gripper at -0.0
            gripper = -0.0, draw(st.floats(0.0, 1.0))
        else:
            handle = {"drawer": drawer_handle(ext), "cup": cup, "faucet": sw.FAUCET_HANDLE,
                      "free": (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))}[anchor]
            gripper = handle[0] + draw(near), handle[1] + draw(near)
        rows.append(row(gripper, (0.0, 0.0), ext=ext, cup=cup,
                        grip=draw(st.sampled_from([0.0, 1.0])))[0])
    return np.reshape(rows, (n, sw.STATE_DIM))


@st.composite
def starts_and_actions(draw, steps=st.integers(1, 10)):
    """0-5 starts near the handles, -0.0 and out of range included, and
    actions with every grip code and velocities that may be -0.0."""
    n, h = draw(st.integers(0, 5)), draw(steps)
    s0 = _starts(draw, n)
    actions = np.empty((n, h, sw.ACTION_DIM))
    speed = st.sampled_from([0.0, -0.0, 0.05, -0.05]) | st.floats(-0.08, 0.08)
    actions[:, :, :2] = draw(arrays(np.float64, (n, h, 2), elements=speed))
    actions[:, :, 2] = draw(arrays(np.float64, (n, h), elements=st.sampled_from(list(GRIP_CODES))))
    return s0, actions


@given(starts_and_actions())
@settings(max_examples=160, deadline=None)
def test_drawn_rollouts_match_the_reference(case):
    s0, actions = case
    assert_same_bytes(sw.rollout_batch(s0, actions), ref_rollout(s0, actions))


@given(starts_and_actions(steps=st.just(1)))
@settings(max_examples=150, deadline=None)
def test_drawn_steps_match_the_one_step_rollout(case):
    """step_batch's one-step body, the open-loop core and the reference
    step agree byte for byte, -0.0 starts and -0.0 velocities included."""
    s0, actions = case
    stepped = sw.step_batch(s0, actions[:, 0])
    assert stepped.flags.c_contiguous
    assert_same_bytes(stepped, sw.rollout_batch(s0, actions)[:, 1])
    assert_same_bytes(stepped, ref_step(s0, actions[:, 0]))


def test_a_negative_zero_sum_at_a_zero_bound_keeps_its_sign():
    """A cup at (0.0, -0.0), pushed at step 0 along x with vy = -0.0: its y
    sums to -0.0 at the 0.0 bound, which np.clip keeps, and so do the core
    and the one-step body."""
    s0 = np.zeros((1, sw.STATE_DIM))
    s0[0, [sw.GX, sw.CUPX, sw.CUPY]] = -0.03, 0.0, -0.0
    actions = np.array([[[0.05, -0.0, -1.0]]])
    want = ref_rollout(s0, actions)
    assert want[0, 1, sw.CUPY] == 0.0 and np.signbit(want[0, 1, sw.CUPY])
    assert_same_bytes(sw.rollout_batch(s0, actions), want)
    assert_same_bytes(sw.step_batch(s0, actions[:, 0]), want[:, 1])
