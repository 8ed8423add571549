import numpy as np
import pytest

from helpers import random_episodes
from rewardlab import dynamics as dyn, encoders as enc, planner as pl, render, simworld as sw
from rewardlab.embeddings import sigmoid
from rewardlab.errors import (
    BadConfigError, BadHorizonError, NonFiniteValueError, ShapeMismatchError, UnknownTaskError,
)
from rewardlab.simworld import TASK_NAMES


@pytest.fixture(scope="module")
def gt_model():
    return dyn.ground_truth_model()


def initial_state(task, seed):
    return sw.initial_state_array(task, np.random.default_rng(seed))


def oracle_scorer(task, model, s0):
    return pl.make_sequence_scorer(pl.OracleReward(task), model, s0)


def scored_plan(initial, scorer):
    """The PlanResult cem_refine starts from, scored by the scorer itself."""
    return pl.PlanResult(actions=initial, score=float(scorer(initial[None])[0]), index=0)


class TestVmpcPlan:
    def test_oracle_reward_finds_a_success_when_one_exists(self, gt_model):
        task = sw.TASK_FAUCET
        s0 = initial_state(task, 1)
        result = pl.vmpc_plan(oracle_scorer(task, gt_model, s0), 400, 60, seed=3)
        # with 400 samples at the measured ~13% random rate, a success exists
        assert result.score == 1.0
        states = sw.rollout_states(s0, result.actions)
        assert sw.success_states(task, states)

    def test_single_candidate_is_returned_regardless_of_score(self, gt_model):
        task = sw.TASK_CUP_AWAY
        s0 = initial_state(task, 2)
        result = pl.vmpc_plan(oracle_scorer(task, gt_model, s0), 1, 60, seed=0)
        assert result.index == 0
        expected = sw.random_action_array(np.random.default_rng(0), 1, 60)[0]
        assert np.array_equal(result.actions, expected)

    def test_score_matches_independent_rescoring(self, gt_model):
        task = sw.TASK_CLOSE_DRAWER
        s0 = initial_state(task, 3)
        result = pl.vmpc_plan(oracle_scorer(task, gt_model, s0), 64, 60, seed=11)
        # independent rescoring: regenerate the candidate set, score each by
        # rolling it out one at a time
        candidates = sw.random_action_array(np.random.default_rng(11), 64, 60)
        rescored = []
        for cand in candidates:
            states = sw.rollout_states(np.asarray(s0), cand)
            rescored.append(1.0 if sw.success_states(task, states[::4]) else 0.0)
        assert result.score == max(rescored)
        assert result.index == int(np.argmax(rescored))
        assert result.score >= max(rescored) - 1e-12

    def test_deterministic_given_seed(self, gt_model):
        task = sw.TASK_CUP_LEFT_TO_RIGHT
        s0 = initial_state(task, 4)
        a = pl.vmpc_plan(oracle_scorer(task, gt_model, s0), 32, 60, seed=7)
        b = pl.vmpc_plan(oracle_scorer(task, gt_model, s0), 32, 60, seed=7)
        assert np.array_equal(a.actions, b.actions) and a.score == b.score

    def test_result_is_a_copy_of_its_candidate(self, gt_model):
        # a view would keep all 32 candidates alive for as long as the plan
        task = sw.TASK_FAUCET
        result = pl.vmpc_plan(oracle_scorer(task, gt_model, initial_state(task, 5)), 32, 60, seed=7)
        assert result.actions.base is None and result.actions.shape == (60, sw.ACTION_DIM)

    def test_config_validation(self, gt_model):
        scorer = oracle_scorer(sw.TASK_FAUCET, gt_model, initial_state(sw.TASK_FAUCET, 0))
        with pytest.raises(BadConfigError):
            pl.vmpc_plan(scorer, 0, 60, seed=0)
        with pytest.raises(BadHorizonError):
            pl.vmpc_plan(scorer, 4, 61, seed=0)


@pytest.fixture(scope="module")
def video_params():
    return enc.init_video_encoder(np.random.default_rng(0), frames=4, hidden=32, embed_dim=32)


@pytest.fixture(scope="module")
def texts():
    return enc.task_texts(len(TASK_NAMES), embed_dim=32, seed=0)


class TestLearnedReward:
    def test_scores_are_probabilities_and_deterministic(self, gt_model, video_params, texts):
        reward = pl.LearnedReward(video_params, texts, sw.TASK_FAUCET)
        states, _ = random_episodes(5, seed=0)
        scores = reward.score_batch(states[:, ::4, :])
        assert scores.shape == (5,)
        assert np.all((scores > 0) & (scores < 1))
        again = reward.score_batch(states[:, ::4, :])
        assert np.array_equal(scores, again)

    def test_one_scorer_for_states_and_frames(self, video_params, texts):
        # score_batch is score_frames of the rendered clips, and score_frames
        # is sigmoid(v . t) against the task's row of the texts
        reward = pl.LearnedReward(video_params, texts, sw.TASK_CUP_AWAY, variant="shifted-view")
        states, _ = random_episodes(6, seed=1)
        frames = render.render_clips(states, video_params.frames, variant="shifted-view")
        scores = reward.score_frames(frames)
        assert np.array_equal(reward.score_batch(states), scores)
        v = enc.encode_clips(frames, video_params)
        assert np.array_equal(scores, sigmoid(v @ texts[sw.TASK_CUP_AWAY]))

    def test_task_outside_the_table(self, video_params, texts):
        frames = np.random.default_rng(0).normal(size=(2, video_params.frames, render.FRAME_WIDTH))
        assert pl.LearnedReward(video_params, texts, 0).score_frames(frames).shape == (2,)
        for task in (len(texts), -1):
            with pytest.raises(UnknownTaskError):
                pl.LearnedReward(video_params, texts, task)


class TestCemRefine:
    def test_converges_to_reachable_quadratic_target(self):
        horizon = 8
        rng = np.random.default_rng(5)
        initial = sw.random_action_array(rng, 1, horizon)[0]
        target = initial.copy()
        target[:, :2] = np.clip(target[:, :2] + rng.normal(scale=0.008, size=(horizon, 2)), -0.05, 0.05)

        def scorer(seqs):
            diff = seqs[:, :, :2] - target[None, :, :2]
            return -np.sum(diff**2, axis=(1, 2))

        result = pl.cem_refine(scored_plan(initial, scorer), scorer, seed=1)
        assert np.max(np.abs(result.actions[:, :2] - target[:, :2])) < 0.01
        assert result.score > scorer(initial[None])[0]

    def test_constant_scorer_returns_initial_score(self):
        initial = sw.random_action_array(np.random.default_rng(0), 1, 12)[0]
        scored_rows = []

        def scorer(seqs):
            scored_rows.append(len(seqs))
            return np.zeros(len(seqs))

        result = pl.cem_refine(scored_plan(initial, scorer), scorer, seed=0)
        assert result.score == 0.0
        assert np.array_equal(result.actions, initial)
        # the starting plan is scored once, by scored_plan, not again by CEM
        assert scored_rows == [1] + [pl.CEM_POPULATION] * pl.CEM_ITERATIONS

    def test_best_score_not_below_initial_score(self, gt_model):
        task = sw.TASK_OPEN_DRAWER
        s0 = initial_state(task, 6)
        scorer = oracle_scorer(task, gt_model, s0)
        for seed in range(4):
            initial = sw.random_action_array(np.random.default_rng(seed), 1, 60)[0]
            result = pl.cem_refine(scored_plan(initial, scorer), scorer, seed=seed)
            assert result.score >= scorer(initial[None])[0]
            # the reported score is the returned sequence's own score
            assert scorer(result.actions[None])[0] == result.score

    def test_grip_channel_kept_from_initial(self):
        initial = sw.random_action_array(np.random.default_rng(4), 1, 8)[0]

        def scorer(seqs):
            return seqs[:, 0, 0]

        result = pl.cem_refine(scored_plan(initial, scorer), scorer, seed=5)
        assert result.score > initial[0, 0]
        assert np.array_equal(result.actions[:, 2], initial[:, 2])


class TestScorerChecks:
    """Both planners check each scorer call: (n,) finite scores of n
    candidates. np.argmax would pick a NaN, and a NaN plan would pass the
    refinement check, since every comparison with NaN is False."""

    @staticmethod
    def nan_at(index):
        def scorer(seqs):
            scores = seqs[:, 0, 0].copy()
            scores[index] = np.nan
            return scores
        return scorer

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vmpc_rejects_non_finite_scores(self, bad):
        with pytest.raises(NonFiniteValueError):
            pl.vmpc_plan(lambda seqs: np.full(len(seqs), bad), 3, 8, seed=0)
        with pytest.raises(NonFiniteValueError):
            pl.vmpc_plan(self.nan_at(1), 3, 8, seed=0)

    @pytest.mark.parametrize("shape", [(1,), (2,), (4,), (3, 1), ()])
    def test_vmpc_rejects_scores_of_another_shape(self, shape):
        with pytest.raises(ShapeMismatchError):
            pl.vmpc_plan(lambda seqs: np.zeros(shape), 3, 8, seed=0)

    def test_cem_rejects_non_finite_scores(self):
        initial = sw.random_action_array(np.random.default_rng(4), 1, 8)[0]
        plan = pl.PlanResult(actions=initial, score=0.0, index=0)
        with pytest.raises(NonFiniteValueError):
            pl.cem_refine(plan, self.nan_at(5), seed=0)

    @pytest.mark.parametrize("shape", [(1,), (pl.CEM_POPULATION, 1)])
    def test_cem_rejects_scores_of_another_shape(self, shape):
        initial = sw.random_action_array(np.random.default_rng(4), 1, 8)[0]
        plan = pl.PlanResult(actions=initial, score=0.0, index=0)
        with pytest.raises(ShapeMismatchError):
            pl.cem_refine(plan, lambda seqs: np.zeros(shape), seed=0)
