import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sim_state
from rewardlab import render, simworld as sw
from rewardlab.errors import BadConfigError, ShapeMismatchError, UnknownTaskError


OPEN, HOLD, CLOSE = -1.0, 0.0, 1.0


def step(state, vx, vy, grip=HOLD):
    """Advance one (7,) state by one (vx, vy, grip code) action."""
    return sw.step_batch(state[None], np.array([[vx, vy, grip]]))[0]


def frame(state, camera=(0.0, 0.0), **kwargs):
    """Render one (7,) state to one frame feature vector."""
    return render.render_frames(state[None], camera=np.asarray(camera), **kwargs)[0]


def make_states(first_overrides=None, last_overrides=None, n=3):
    """Synthetic (n,7) state sequence for predicate tests."""
    states = np.tile(sim_state(), (n, 1))
    for col, val in (first_overrides or {}).items():
        states[0, col] = val
    for col, val in (last_overrides or {}).items():
        states[-1, col] = val
    return states


class TestStep:
    def test_zero_velocity_hold_keeps_state(self):
        s = sim_state(gripper=(0.3, 0.3))
        out = step(s, 0.0, 0.0, HOLD)
        assert np.array_equal(out, s)

    def test_drawer_push_moves_extension_exactly(self):
        handle_y = sw.DRAWER_BASE[1] + 0.07
        s = sim_state(gripper=(sw.DRAWER_BASE[0], handle_y), ext=0.07)
        out = step(s, 0.0, -0.05)
        assert out[sw.EXT] == pytest.approx(0.02, abs=1e-15)
        assert out[sw.GY] == pytest.approx(handle_y - 0.05)

    def test_far_from_objects_only_gripper_moves(self):
        s = sim_state(gripper=(0.95, 0.05))
        out = step(s, 0.03, -0.02)
        assert out[sw.EXT] == s[sw.EXT]
        assert out[sw.ANGLE] == s[sw.ANGLE]
        assert np.array_equal(out[[sw.CUPX, sw.CUPY]], s[[sw.CUPX, sw.CUPY]])
        assert out[[sw.GX, sw.GY]] == pytest.approx((0.98, 0.03))

    def test_grip_commands(self):
        s = sim_state()
        assert step(s, 0, 0, CLOSE)[sw.GRIP] == 1.0
        closed = sim_state(grip=1.0)
        assert step(closed, 0, 0, HOLD)[sw.GRIP] == 1.0
        assert step(closed, 0, 0, OPEN)[sw.GRIP] == 0.0

    def test_cup_pushed_only_toward(self):
        cup = (0.5, 0.35)
        s = sim_state(gripper=(0.47, 0.35), cup=cup)
        pushed = step(s, 0.05, 0.0)
        assert pushed[sw.CUPX] == pytest.approx(0.55)
        away = step(s, -0.05, 0.0)
        assert tuple(away[[sw.CUPX, sw.CUPY]]) == cup

    def test_cup_carried_when_gripped(self):
        s = sim_state(gripper=(0.47, 0.35), cup=(0.5, 0.35), grip=1.0)
        out = step(s, -0.05, 0.0, HOLD)
        assert out[sw.CUPX] == pytest.approx(0.45)

    def test_faucet_accumulates_tangential(self):
        s = sim_state(gripper=sw.FAUCET_HANDLE)
        out = step(s, -0.03, 0.0)
        assert out[sw.ANGLE] == pytest.approx(0.03)
        out2 = step(out, 0.02, 0.0)
        assert out2[sw.ANGLE] == pytest.approx(0.05)

    def test_velocity_clamped(self):
        s = sim_state()
        out = step(s, 0.2, -0.2)
        assert out[sw.GX] == s[sw.GX] + 0.05 and out[sw.GY] == s[sw.GY] - 0.05


class TestRollout:
    def test_replay_determinism_bit_exact(self):
        rng = np.random.default_rng(5)
        s0 = sw.initial_state_array(sw.TASK_CUP_AWAY, rng)
        actions = sw.random_action_array(rng, 1, 40)[0]
        states = sw.rollout_states(s0, actions)
        replayed = sw.rollout_states(states[0], actions)
        assert states.shape == (41, sw.STATE_DIM)
        assert np.array_equal(replayed, states)

    def test_batch_matches_scalar_bitwise(self):
        rng = np.random.default_rng(9)
        s0s = np.stack([sw.initial_state_array(t, rng) for t in (0, 3, 6)])
        acts = sw.random_action_array(rng, 3, 20)
        batch = sw.rollout_batch(s0s, acts)
        for i in range(3):
            single = sw.rollout_states(s0s[i], acts[i])
            assert np.array_equal(batch[i], single)

    def test_a_zero_step_rollout_returns_the_starts(self):
        s0 = np.stack([sw.initial_state_array(t, np.random.default_rng(t)) for t in (0, 3)])
        states = sw.rollout_batch(s0, np.zeros((2, 0, sw.ACTION_DIM)))
        assert states.shape == (2, 1, sw.STATE_DIM)
        assert np.array_equal(states[:, 0], s0)

    @pytest.mark.parametrize("s0_shape, actions_shape", [
        ((3, sw.STATE_DIM), (4, 60, sw.ACTION_DIM)),   # one start state short
        ((3, sw.STATE_DIM), (3, sw.ACTION_DIM)),       # no horizon axis
        ((3, sw.STATE_DIM), (3 * 60 * sw.ACTION_DIM,)),  # flat actions
        ((3, sw.STATE_DIM), (3, 60, 2)),               # no grip column
        ((sw.STATE_DIM,), (1, 60, sw.ACTION_DIM)),     # one unbatched start state
    ])
    def test_mismatched_shapes_are_typed(self, s0_shape, actions_shape):
        with pytest.raises(ShapeMismatchError):
            sw.rollout_batch(np.zeros(s0_shape), np.zeros(actions_shape))

    def test_clamping_over_many_random_steps(self):
        rng = np.random.default_rng(77)
        states = np.stack([sw.initial_state_array(t, rng) for t in sw.ALL_TASKS] * 300)
        # 2100 states x 48 steps > 1e5 random transitions
        for _ in range(48):
            acts = sw.random_action_array(rng, len(states), 1)[:, 0]
            states = sw.step_batch(states, acts)
            assert np.all(states[:, (sw.GX, sw.GY, sw.CUPX, sw.CUPY)] >= 0.0)
            assert np.all(states[:, (sw.GX, sw.GY, sw.CUPX, sw.CUPY)] <= 1.0)
            assert np.all(states[:, sw.EXT] >= 0.0)
            assert np.all(states[:, sw.EXT] <= sw.DRAWER_MAX)
            assert np.all(states[:, sw.ANGLE] >= 0.0)


class TestSuccessPredicates:
    def test_close_drawer_boundary_strict(self):
        ok = make_states(last_overrides={sw.EXT: 0.049})
        bad = make_states(last_overrides={sw.EXT: 0.05})
        assert sw.success_states(sw.TASK_CLOSE_DRAWER, ok)
        assert not sw.success_states(sw.TASK_CLOSE_DRAWER, bad)

    def test_faucet_boundary_strict(self):
        ok = make_states(last_overrides={sw.ANGLE: 0.011})
        bad = make_states(last_overrides={sw.ANGLE: 0.01})
        assert sw.success_states(sw.TASK_FAUCET, ok)
        assert not sw.success_states(sw.TASK_FAUCET, bad)

    def test_push_left_to_right_boundary_inclusive(self):
        ok = make_states(
            first_overrides={sw.CUPX: 0.5}, last_overrides={sw.CUPX: 0.55}
        )
        bad = make_states(
            first_overrides={sw.CUPX: 0.5}, last_overrides={sw.CUPX: 0.549}
        )
        assert sw.success_states(sw.TASK_CUP_LEFT_TO_RIGHT, ok)
        assert not sw.success_states(sw.TASK_CUP_LEFT_TO_RIGHT, bad)

    def test_cup_away_threshold(self):
        ok = make_states(first_overrides={sw.CUPY: 0.3}, last_overrides={sw.CUPY: 0.4})
        bad = make_states(first_overrides={sw.CUPY: 0.3}, last_overrides={sw.CUPY: 0.39})
        assert sw.success_states(sw.TASK_CUP_AWAY, ok)
        assert not sw.success_states(sw.TASK_CUP_AWAY, bad)

    def test_poke_requires_contact_and_stillness(self):
        quiet = make_states()
        assert not sw.success_states(sw.TASK_POKE_CUP, quiet)  # never touched
        touch = make_states()
        touch[1, (sw.GX, sw.GY)] = touch[1, (sw.CUPX, sw.CUPY)]
        assert sw.success_states(sw.TASK_POKE_CUP, touch)
        shoved = touch.copy()
        shoved[-1, sw.CUPX] += 0.02
        assert not sw.success_states(sw.TASK_POKE_CUP, shoved)

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            sw.success_states(42, make_states())

    @pytest.mark.parametrize("task", sw.ALL_TASKS)
    @pytest.mark.parametrize("shape", [(7,), (), (4, 6), (2, 0, 7)])
    def test_states_not_shaped_as_sequences(self, task, shape):
        with pytest.raises(ShapeMismatchError):
            sw.success_states(task, np.zeros(shape))
        with pytest.raises(ShapeMismatchError):
            sw.prefix_success_flags(task, np.zeros(shape))


class TestRender:
    def test_same_state_same_features(self):
        s = sim_state(gripper=(0.4, 0.6))
        a = frame(s)
        b = frame(s)
        assert np.array_equal(a, b)

    def test_drawer_ext_changes_features(self):
        a = frame(sim_state(ext=0.07))
        b = frame(sim_state(ext=0.03))
        assert not np.allclose(a, b)

    def test_human_differs_from_robot(self):
        s = sim_state(gripper=(0.3, 0.7))
        r = frame(s, domain="robot")
        h = frame(s, domain="human")
        cos = float(r @ h / (np.linalg.norm(r) * np.linalg.norm(h)))
        assert cos < 1.0 - 1e-6

    def test_human_frame_is_shifted_robot_frame(self):
        s = sim_state()[None]
        r = render.render_frames(s, domain="robot")
        h = render.render_frames(s, domain="human")
        assert np.array_equal(h, render.apply_domain_shift(r))

    def test_variants_change_features_not_dynamics(self):
        s = sim_state()
        feats = {v: frame(s, variant=v) for v in render.VARIANTS}
        names = list(render.VARIANTS)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.allclose(feats[a], feats[b])
        with pytest.raises(BadConfigError):
            frame(s, variant="nope")

    def test_camera_offset_changes_features(self):
        a = frame(sim_state(), camera=(0.0, 0.0))
        b = frame(sim_state(), camera=(0.05, 0.0))
        assert not np.allclose(a, b)

    def test_clip_frame_indices(self):
        idx = render.clip_frame_indices(61, 4)
        assert idx[0] == 0 and idx[-1] == 60
        assert list(idx) == [0, 20, 40, 60]
        assert list(render.clip_frame_indices(16, 4)) == [0, 5, 10, 15]


class TestInitialStates:
    @given(st.sampled_from(sw.ALL_TASKS), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_initial_state_in_bounds(self, task, seed):
        s = sw.initial_state_array(task, np.random.default_rng(seed))
        assert s.shape == (sw.STATE_DIM,)
        assert 0.0 <= s[sw.GX] <= 1.0 and 0.0 <= s[sw.GY] <= 1.0
        assert s[sw.GRIP] == 0.0
        expected_ext = 0.0 if task == sw.TASK_OPEN_DRAWER else sw.DRAWER_MAX
        assert s[sw.EXT] == expected_ext

    def test_deterministic_given_seed(self):
        a = sw.initial_state_array(0, np.random.default_rng(3))
        b = sw.initial_state_array(0, np.random.default_rng(3))
        assert np.array_equal(a, b)
