import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_episodes, sim_state
from rewardlab import dynamics as dyn, simworld as sw
from rewardlab.errors import BadHorizonError, InsufficientDataError, ShapeMismatchError


def design(x, model):
    """Design rows [1, x, tanh(x W + b)] of a learned model's regressor."""
    feats = np.tanh(x @ model.feature_w + model.feature_b)
    return np.concatenate([np.ones((x.shape[0], 1)), x, feats], axis=1)


def one_shot_weights(states, actions, model):
    """Reference fit: the normal equations of the whole design matrix at
    once, with the random features of `model`."""
    x, y = dyn.chunk_transitions(states, actions)
    phi = design(x, model)
    n = phi.shape[0]
    gram = phi.T @ phi / n + dyn.RIDGE * np.eye(phi.shape[1])
    return np.linalg.solve(gram, phi.T @ y / n)


def random_fit(patch, n_episodes, seed=0):
    """train_on_random_episodes on n_episodes episodes."""
    patch.setattr(dyn, "RANDOM_EPISODES", n_episodes)
    return dyn.train_on_random_episodes(seed=seed)


@pytest.fixture(scope="module")
def learned_model():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyn, "N_FEATURES", 128)
        return random_fit(patch, 600)


class TestGroundTruth:
    def test_matches_simulator_at_chunk_boundaries(self):
        rng = np.random.default_rng(0)
        s0 = sw.initial_state_array(sw.TASK_CLOSE_DRAWER, rng)
        actions = sw.random_action_array(rng, 1, 60)[0]
        pred = dyn.chunked_predict_batch(dyn.ground_truth_model(), s0[None], actions[None])[0]
        full = sw.rollout_states(s0, actions)
        assert pred.shape == (16, sw.STATE_DIM)
        assert np.array_equal(pred, full[::4])

    def test_zero_actions_keep_state(self):
        s0 = sim_state(gripper=(0.9, 0.9))
        zeros = np.zeros((1, 60, sw.ACTION_DIM))
        states = dyn.chunked_predict_batch(dyn.ground_truth_model(), s0[None], zeros)
        assert states.shape == (1, 16, sw.STATE_DIM)
        assert np.all(states[0] == s0)

    def test_bad_horizon(self):
        s0 = sim_state()
        with pytest.raises(BadHorizonError):
            dyn.chunked_predict_batch(dyn.ground_truth_model(), s0[None], np.zeros((1, 7, 3)))
        with pytest.raises(BadHorizonError):
            dyn.chunked_predict_batch(dyn.ground_truth_model(), s0[None], np.zeros((1, 0, 3)))

    @pytest.mark.parametrize("s0_shape, actions_shape", [
        ((2, 7), (3, 8, 3)),   # fewer starts than action rows
        ((1, 6), (1, 8, 3)),   # a start without the cup's y column
        ((1, 7), (8, 3)),      # one sequence, not a batch of them
    ], ids=["rows", "state-width", "unbatched-actions"])
    def test_mismatched_shapes(self, s0_shape, actions_shape):
        with pytest.raises(ShapeMismatchError, match=r"^need s0 \(N,7\) and actions \(N,H,3\)"):
            dyn.chunked_predict_batch(dyn.ground_truth_model(), np.zeros(s0_shape),
                                      np.zeros(actions_shape))


class TestTrainDynamics:
    def test_linear_dynamics_fit_exactly(self, monkeypatch):
        # noiseless linear system: the affine part can represent it
        rng = np.random.default_rng(1)
        a_mat = np.eye(sw.STATE_DIM) * 0.95
        b_mat = rng.normal(scale=0.1, size=(dyn.CHUNK * sw.ACTION_DIM, sw.STATE_DIM))
        bias = rng.normal(scale=0.01, size=sw.STATE_DIM)

        def episode(seed, horizon=16):
            erng = np.random.default_rng(seed)
            states = np.empty((horizon + 1, sw.STATE_DIM))
            actions = erng.uniform(-0.05, 0.05, size=(horizon, sw.ACTION_DIM))
            states[0] = erng.uniform(0, 1, sw.STATE_DIM)
            for c in range(horizon // dyn.CHUNK):
                s = states[c * dyn.CHUNK]
                chunk = actions[c * dyn.CHUNK: (c + 1) * dyn.CHUNK].ravel()
                nxt = a_mat @ s + b_mat.T @ chunk + bias
                states[c * dyn.CHUNK + 1: (c + 1) * dyn.CHUNK + 1] = nxt
            return states, actions

        states, actions = (np.stack(part) for part in zip(*(episode(i) for i in range(40))))
        monkeypatch.setattr(dyn, "RIDGE", 1e-12)
        monkeypatch.setattr(dyn, "N_FEATURES", 32)
        model = dyn.train_dynamics([(states, actions)], seed=0)
        states, actions = episode(1234)
        x, y = dyn.chunk_transitions(states[None], actions[None])
        pred = design(x, model) @ model.weights
        assert np.abs(pred - y).mean() < 1e-6

    def test_duplicate_dataset_gives_same_model(self, monkeypatch):
        monkeypatch.setattr(dyn, "N_FEATURES", 64)
        states, actions = random_episodes(30, seed=5)
        once = dyn.train_dynamics([(states, actions)], seed=2)
        twice = dyn.train_dynamics(
            [(np.concatenate([states, states]), np.concatenate([actions, actions]))], seed=2
        )
        np.testing.assert_allclose(once.weights, twice.weights, atol=1e-10)

    def test_insufficient_data(self):
        states, actions = random_episodes(2, seed=0)
        for episodes in ([], [(states[:0], actions[:0])], [(states, actions)]):
            with pytest.raises(InsufficientDataError):
                dyn.train_dynamics(episodes)

    def test_transitions_are_counted_over_blocks(self):
        # 2 episodes are 30 transitions, below the 100 a fit needs; four
        # blocks of them are 120
        states, actions = random_episodes(2, seed=0)
        dyn.train_dynamics([(states, actions)] * 4)

    def test_a_mismatched_block_is_rejected(self):
        states, actions = random_episodes(2, seed=0)
        with pytest.raises(ShapeMismatchError):
            dyn.train_dynamics([(states, actions)] * 4 + [(states[:1], actions)])

    def test_stacked_rows_match_per_episode_loop(self):
        states, actions = random_episodes(6, seed=8)
        x, y = dyn.chunk_transitions(states, actions)
        pairs = [dyn.chunk_transitions(states[i:i + 1], actions[i:i + 1]) for i in range(6)]
        assert np.array_equal(x, np.concatenate([p[0] for p in pairs]))
        assert np.array_equal(y, np.concatenate([p[1] for p in pairs]))
        c = 5  # episode 2, chunk 5: start state, its four actions, the state delta
        row = 2 * (sw.HORIZON // dyn.CHUNK) + c
        span = slice(c * dyn.CHUNK, (c + 1) * dyn.CHUNK)
        assert np.array_equal(x[row], np.concatenate([states[2, span.start], actions[2, span].ravel()]))
        assert np.array_equal(y[row], states[2, span.stop] - states[2, span.start])

    def test_mismatched_shapes(self):
        states, actions = random_episodes(2, seed=0)
        for s, a in ((states, actions[:, :-4]), (states[:1], actions), (states, actions[0]),
                     (states[..., :6], actions)):
            with pytest.raises(ShapeMismatchError):
                dyn.chunk_transitions(s, a)

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(dyn, "N_FEATURES", 64)
        states, actions = random_episodes(20, seed=3)
        a = dyn.train_dynamics([(states, actions)], seed=4)
        b = dyn.train_dynamics([(states, actions)], seed=4)
        assert np.array_equal(a.weights, b.weights)


class TestBlockedFit:
    @pytest.mark.parametrize("n_episodes", [7, dyn.EPISODE_BLOCK])
    def test_one_block_equals_one_shot_fit(self, n_episodes):
        states, actions = random_episodes(n_episodes, seed=1)
        model = dyn.train_dynamics([(states, actions)], seed=3)
        assert np.array_equal(model.weights, one_shot_weights(states, actions, model))

    def test_blocks_with_uneven_tail_predict_like_one_shot_fit(self):
        # two full blocks and a 2-episode tail: only the summation order of
        # the Gram matrix changes. Measured at seeds 0-5: weights move by up
        # to 2e-7 (max |W| ~ 18), open-loop predictions on fresh episodes by
        # at most 2.4e-9, against a model error of ~0.02
        n_episodes = 2 * dyn.EPISODE_BLOCK + 2
        states, actions = random_episodes(n_episodes, seed=0)
        model = dyn.train_dynamics([(states, actions)], seed=0)
        reference = replace(model, weights=one_shot_weights(states, actions, model))
        fresh_states, fresh_actions = random_episodes(200, seed=100)
        np.testing.assert_allclose(
            dyn.chunked_predict_batch(model, fresh_states[:, 0], fresh_actions),
            dyn.chunked_predict_batch(reference, fresh_states[:, 0], fresh_actions),
            rtol=0.0, atol=1e-7,
        )

    def test_peak_memory_below_half_a_design_matrix(self):
        n_episodes = 800
        states, actions = random_episodes(n_episodes, seed=0)
        design_bytes = (n_episodes * sw.HORIZON // dyn.CHUNK
                        * (1 + dyn.INPUT_DIM + dyn.N_FEATURES) * 8)
        tracemalloc.start()
        try:
            dyn.train_dynamics([(states, actions)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < design_bytes / 2


class TestRandomEpisodeFit:
    """`train_on_random_episodes` streams `random_episode_blocks` through
    the fit: the same bits as rolling and fitting every episode at once,
    in memory that does not grow with the episode count."""

    # sha256 of the weights of the fit on (n, seed)'s random episodes when
    # every episode was rolled in one rollout_batch call and fitted as one
    # array (one BLAS thread, as conftest sets)
    DIGESTS = {
        (200, 0): "f958c486c79edf93342603543b2d5a8701cb8518ee56118e4183bfbbc6d704f4",
        (130, 3): "5e9ea171c396bb359903546608e60dd89c9d285a8f3428e060f11b5f5360dd3c",
    }

    @pytest.mark.parametrize("n_episodes, seed", sorted(DIGESTS))
    def test_weights_match_the_all_at_once_fit(self, n_episodes, seed, monkeypatch):
        weights = random_fit(monkeypatch, n_episodes, seed).weights
        assert hashlib.sha256(weights.tobytes()).hexdigest() == self.DIGESTS[n_episodes, seed]

    def test_blocks_are_rolled_rows_of_one_batch(self):
        blocks = list(dyn.random_episode_blocks(dyn.ROLL_BLOCK + 44, seed=2))
        assert [len(actions) for _, actions in blocks] == [dyn.ROLL_BLOCK, 44]
        states, actions = random_episodes(dyn.ROLL_BLOCK + 44, seed=2)
        assert np.array_equal(states, sw.rollout_batch(states[:, 0], actions))

    @staticmethod
    def fit_peak(patch, n_episodes):
        """tracemalloc peak of train_on_random_episodes on n_episodes."""
        tracemalloc.start()
        try:
            random_fit(patch, n_episodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_flat_in_the_episode_count(self, monkeypatch):
        """Rolling all 2000 episodes at once and fitting them as one array
        peaked at 16 MiB, above the 6.5 MiB of their states alone; the
        stream holds one rolled block of episodes at a time, and that
        block's design rows only while it is summed."""
        peaks = {n: self.fit_peak(monkeypatch, n) for n in (500, 2000)}
        states_bytes = 2000 * (sw.HORIZON + 1) * sw.STATE_DIM * 8
        assert peaks[2000] < states_bytes
        assert peaks[2000] <= 1.1 * peaks[500]

    def test_peak_memory_is_one_block_beside_the_sums(self, monkeypatch):
        """The next block is rolled only after the last one's design rows
        are freed, so the peak is at most one design buffer, three
        Gram-sized arrays (the sum, a block's product and room for the
        small rest: a block's x and y, the episode starts) and one rolled
        block's states and actions: 4.36 MiB. Rolling 256 episodes a call
        next to a kept design buffer peaked at 6.03 MiB."""
        width = 1 + dyn.INPUT_DIM + dyn.N_FEATURES
        buffer_bytes = dyn.EPISODE_BLOCK * (sw.HORIZON // dyn.CHUNK) * width * 8
        block_bytes = dyn.ROLL_BLOCK * ((sw.HORIZON + 1) * sw.STATE_DIM
                                        + sw.HORIZON * sw.ACTION_DIM) * 8
        bound = buffer_bytes + 3 * width * width * 8 + block_bytes
        assert self.fit_peak(monkeypatch, 2000) <= bound


class TestLearnedAccuracy:
    def test_heldout_error_within_budget(self, learned_model):
        states, actions = random_episodes(200, seed=777)
        pred = dyn.chunked_predict_batch(learned_model, states[:, 0], actions)
        truth = states[:, ::4, :]
        assert np.abs(pred[:, 1:] - truth[:, 1:]).mean() < 0.02

    def test_open_loop_error_compounds(self, learned_model):
        states, actions = random_episodes(200, seed=778)
        pred = dyn.chunked_predict_batch(learned_model, states[:, 0], actions)
        truth = states[:, ::4, :]
        err_one = np.abs(pred[:, 1] - truth[:, 1]).mean()
        err_open = np.abs(pred[:, 1:] - truth[:, 1:]).mean()
        assert err_one <= err_open

    def test_predictions_respect_state_ranges(self, learned_model):
        states, actions = random_episodes(50, seed=779)
        pred = dyn.chunked_predict_batch(learned_model, states[:, 0], actions)
        assert np.all(pred[..., sw.EXT] >= 0) and np.all(pred[..., sw.EXT] <= sw.DRAWER_MAX)
        assert np.all(pred[..., (sw.GX, sw.GY, sw.CUPX, sw.CUPY)] >= 0)
        assert np.all(pred[..., (sw.GX, sw.GY, sw.CUPX, sw.CUPY)] <= 1)
