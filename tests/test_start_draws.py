"""Datagen's band draws and the batched start states against the
per-attempt scalar draws they replaced.

A band used to be drawn one attempt at a time: four scalar `uniform` calls
for the start (cup x, cup y, gripper x and y jitter), then the attempt's
noise as one `uniform(-level, level, (H, 2))` block, or a wander clip's
random actions, biased away from the task object. `_GroupRoll.draw` now
takes the same numbers as `random` draws into band-wide arrays and maps
them after its loop, and `simworld.initial_states` builds a band's starts
in one call. That is exact because `Generator.uniform(a, b)` is
a + (b - a) * random(): starts, noise and the Generator state after each
attempt must be equal byte for byte.
"""

import numpy as np
import pytest

import helpers
from rewardlab import datagen as dg, dynamics as dyn, simworld as sw
from rewardlab.errors import ShapeMismatchError, UnknownTaskError

H = sw.HORIZON

# the start distribution as the scalar reference draws it:
# (anchor, offset, jitter half-width) of the gripper per task
GRIPPER_START = {
    sw.TASK_CLOSE_DRAWER: ("drawer", (0.15, 0.0), 0.03),
    sw.TASK_OPEN_DRAWER: ("drawer", (0.15, 0.0), 0.03),
    sw.TASK_FAUCET: ("faucet", (0.0, -0.24), 0.03),
    sw.TASK_CUP_AWAY: ("cup", (0.0, -0.07), 0.02),
    sw.TASK_CUP_LEFT_TO_RIGHT: ("cup", (-0.09, 0.0), 0.02),
    sw.TASK_CUP_RIGHT_TO_LEFT: ("cup", (0.09, 0.0), 0.02),
    sw.TASK_POKE_CUP: ("cup", (-0.07, 0.0), 0.02),
}


def ref_initial_state(task_id, rng):
    """One (7,) start from four scalar uniform draws."""
    cup = (sw.CUP_NOMINAL[0] + rng.uniform(-0.03, 0.03),
           sw.CUP_NOMINAL[1] + rng.uniform(-0.03, 0.03))
    drawer_ext = 0.0 if task_id == sw.TASK_OPEN_DRAWER else sw.DRAWER_MAX
    anchor_name, offset, jitter = GRIPPER_START[task_id]
    if anchor_name == "drawer":
        anchor = (sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + drawer_ext)
    elif anchor_name == "faucet":
        anchor = sw.FAUCET_HANDLE
    else:
        anchor = cup
    gx = anchor[0] + offset[0] + rng.uniform(-jitter, jitter)
    gy = anchor[1] + offset[1] + rng.uniform(-jitter, jitter)
    state = np.zeros(sw.STATE_DIM)
    state[[sw.GX, sw.GY]] = np.clip((gx, gy), 0.0, 1.0)
    state[sw.EXT] = drawer_ext
    state[[sw.CUPX, sw.CUPY]] = cup
    return state


def ref_band(task_id, style, seeds, band):
    """Starts, noise (or None) and saved Generator states of a band drawn
    one attempt at a time, each at its own noise level, and the clips'
    Generators after it."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    starts, noise, saved = [], [], []
    for rng in rngs:
        for attempt in band:
            level = dg.noise_level(attempt)
            starts.append(ref_initial_state(task_id, rng))
            if style == "wander":
                noise.append(helpers.ref_wander_actions(task_id, starts[-1], rng))
            elif level > 0:
                noise.append(rng.uniform(-level, level, size=(H, 2)))
            saved.append(rng.bit_generator.state)
    return np.stack(starts), np.stack(noise) if noise else None, saved, rngs


# (style, index into BANDS): a controller style in the first band (the full
# level), in the retry band (the full, halved and quartered levels) and in
# the zero-noise band, so every level is reached; a wander group in each band
DRAWS = [("success", 0), ("success", 1), ("success", 2), ("wander", 0), ("wander", 1), ("wander", 2)]


@pytest.mark.parametrize("style, band", DRAWS,
                         ids=["noisy", "halved", "zero", "wander", "wander-retries", "wander-fallback"])
@pytest.mark.parametrize("task_id", sw.ALL_TASKS)
def test_band_draws_equal_the_per_attempt_scalar_draws(task_id, style, band):
    seeds = [[task_id, 70 + i] for i in range(3)]
    band = dg.BANDS[band]
    roll = dg._GroupRoll(task_id, style, seeds)
    s0, (rows, policy, noise), saved = roll.draw(band)
    want_s0, want_noise, want_saved, want_rngs = ref_band(task_id, style, seeds, band)
    assert rows == len(seeds) * len(band) == s0.shape[0]
    assert (policy is None) == (style == "wander")
    assert s0.tobytes() == want_s0.tobytes()
    if want_noise is None:
        assert noise is None
    else:
        assert noise.shape == want_noise.shape
        assert noise.tobytes() == want_noise.tobytes()
    # a clip's Generator keeps its state after its last attempt of the band
    last = len(band) - 1
    assert saved == {row: state for row, state in enumerate(want_saved) if row % len(band) != last}
    assert [r.bit_generator.state for r in roll.rngs] == [r.bit_generator.state for r in want_rngs]


@pytest.mark.parametrize("task_id", sw.ALL_TASKS)
def test_initial_states_rows_are_the_scalar_starts(task_id):
    rng, want_rng = np.random.default_rng(task_id), np.random.default_rng(task_id)
    got = sw.initial_states(task_id, rng.random((50, sw.START_DRAWS)))
    want = np.stack([ref_initial_state(task_id, want_rng) for _ in range(50)])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state
    # the one-row case draws and builds the same start
    one, want_one = np.random.default_rng(9), np.random.default_rng(9)
    want_start = ref_initial_state(task_id, want_one)
    assert sw.initial_state_array(task_id, one).tobytes() == want_start.tobytes()
    assert one.bit_generator.state == want_one.bit_generator.state


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 4)])
def test_initial_states_refuses_draws_of_another_shape(shape):
    with pytest.raises(ShapeMismatchError, match=r"draws must be \(n,4\)"):
        sw.initial_states(sw.TASK_FAUCET, np.zeros(shape))


def test_initial_states_refuses_an_unknown_task():
    with pytest.raises(UnknownTaskError):
        sw.initial_states(99, np.zeros((1, sw.START_DRAWS)))


def test_a_wander_start_on_its_target_keeps_its_random_actions():
    """No direction points away from a gripper on the handle: its row's
    actions stay as drawn, while the other row's are biased."""
    rng = np.random.default_rng(5)
    s0 = np.stack([sw.initial_state_array(sw.TASK_CLOSE_DRAWER, rng) for _ in range(2)])
    s0[0, [sw.GX, sw.GY]] = sw.target_points(sw.TASK_CLOSE_DRAWER, s0[0])
    raw = sw.random_action_array(rng, 2, H)
    got = dg._steer_away(sw.TASK_CLOSE_DRAWER, s0, raw.copy())
    assert got[0].tobytes() == raw[0].tobytes()
    assert not np.array_equal(got[1], raw[1])


@pytest.mark.parametrize("n_episodes", [23, 4 * dyn.ROLL_BLOCK + 5])
def test_random_episode_starts_are_the_per_episode_draws(n_episodes):
    """Every start is drawn first, task i % 7 for episode i, then each
    episode's actions from the Generator state the starts left."""
    blocks = list(dyn.random_episode_blocks(n_episodes, seed=3))
    rng = np.random.default_rng([3, 41])
    tasks = sw.ALL_TASKS
    want = np.stack([ref_initial_state(tasks[i % len(tasks)], rng) for i in range(n_episodes)])
    want_actions = np.stack([sw.random_action_array(rng, 1, H)[0] for _ in range(n_episodes)])
    assert np.concatenate([s[:, 0] for s, _ in blocks]).tobytes() == want.tobytes()
    assert np.concatenate([a for _, a in blocks]).tobytes() == want_actions.tobytes()
