from dataclasses import fields

import numpy as np
import pytest

from rewardlab import encoders as enc, planner as pl, training
from rewardlab.embeddings import finite_diff_grad_check
from rewardlab.errors import (
    BadClusterIndexError,
    CorruptFileError,
    ShapeMismatchError,
    UnknownTaskError,
    ZeroVectorError,
)
from rewardlab.simworld import TASK_NAMES


@pytest.fixture
def params():
    return enc.init_video_encoder(np.random.default_rng(0), frames=4, hidden=32, embed_dim=32)


@pytest.fixture
def texts():
    return enc.task_texts(len(TASK_NAMES), embed_dim=32, seed=0)


@pytest.fixture
def pool():
    return enc.init_prompt_pool([4, 5, 6], np.random.default_rng(1), k=3, prompt_len=2, embed_dim=32)


def encode_one(clip, params):
    return enc.encode_clips(clip[None], params)[0]


class TestEncodeVideo:
    def test_deterministic_and_pure(self, params):
        clip = np.random.default_rng(2).normal(size=(4, 16))
        a = encode_one(clip, params)
        b = encode_one(clip.copy(), params)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-6

    def test_batch_matches_single(self, params):
        clips = np.random.default_rng(3).normal(size=(5, 4, 16))
        batch = enc.encode_clips(clips, params)
        for i in range(5):
            np.testing.assert_allclose(batch[i], encode_one(clips[i], params), atol=1e-12)

    def test_shape_mismatch(self, params):
        for clips in (np.zeros((1, 3, 16)), np.zeros((1, 4, 8)), np.zeros((4, 16))):
            with pytest.raises(ShapeMismatchError):
                enc.encode_clips(clips, params)

    def test_collapsed_embedding_raises(self, params):
        # a zero output map sends every clip to the zero vector, which has no direction
        params.out_proj[:] = 0.0
        with pytest.raises(ZeroVectorError, match="collapsed to zero"):
            enc.encode_clips(np.ones((2, 4, 16)), params)

    def test_param_gradient_matches_central_differences(self, params):
        rng = np.random.default_rng(4)
        clip = rng.normal(size=(4, 16))
        target = rng.normal(size=32)
        target /= np.linalg.norm(target)

        def loss_of(*arrays):
            return float(np.sum((encode_one(clip, enc.VideoEncoderParams(*arrays)) - target) ** 2))

        v, cache = enc.encode_clips_cached(clip[None], params)
        d_v = 2.0 * (v - target[None])
        grads = enc.encode_clips_backward(cache, d_v)
        err = finite_diff_grad_check(loss_of, params.arrays(), grads.arrays())
        assert err < 1e-4

    @pytest.mark.parametrize("n", [1, 24, 300])
    def test_forward_equals_the_3d_matmul_bit_for_bit(self, n):
        # the encoder takes clips @ frame_proj as one (N*L, F) @ (F, H)
        # product; the 3-D matmul is the reference it must equal exactly
        params = enc.init_video_encoder(np.random.default_rng(5), frames=4, hidden=32, embed_dim=32)
        clips = np.random.default_rng(n).normal(size=(n, 4, 16))
        v, cache = enc.encode_clips_cached(clips, params)
        hidden = np.tanh(clips @ params.frame_proj + params.frame_bias)
        w = np.exp(params.temporal_logits - params.temporal_logits.max(axis=0, keepdims=True))
        w /= w.sum(axis=0, keepdims=True)
        z = np.einsum("lh,nlh->nh", w, hidden) @ params.out_proj + params.out_bias
        np.testing.assert_array_equal(cache[1], hidden)
        np.testing.assert_array_equal(v, z / np.linalg.norm(z, axis=1)[:, None])

    def test_arrays_lists_the_fields_in_order(self, params):
        arrays = params.arrays()
        names = [f.name for f in fields(enc.VideoEncoderParams)]
        assert len(arrays) == len(names)
        assert all(a is getattr(params, name) for a, name in zip(arrays, names))


class TestTaskTable:
    """The frozen (T, D) task-text array of `task_texts`, and the checks of
    its two readers: `params_from_arrays` on checkpoint input and
    `LearnedReward` on a task id."""

    def test_registered_task_returns_unit_embedding(self, texts):
        assert np.allclose(np.linalg.norm(texts, axis=1), 1.0, rtol=0.0, atol=1e-9)
        assert np.array_equal(texts, enc.task_texts(len(TASK_NAMES), embed_dim=32, seed=0))

    def test_unknown_task(self, texts, params):
        # a negative id would silently wrap to the last row
        for task in (len(TASK_NAMES), 99, -1):
            with pytest.raises(UnknownTaskError):
                pl.LearnedReward(params, texts, task)

    def test_embeddings_are_read_only(self, texts):
        with pytest.raises(ValueError):
            texts[0][0] = 5.0
        with pytest.raises(ValueError):
            texts[1, 0] = 5.0

    def test_unequal_widths(self, texts, params):
        # checkpoint input: every task text a vector, all of one width
        arrays = training.params_to_arrays(training.ModelParams(params, None, texts))
        loaded = training.params_from_arrays(arrays).texts
        assert np.array_equal(loaded, texts) and not loaded.flags.writeable
        for odd in (np.ones(31), np.ones((2, 16))):
            with pytest.raises(CorruptFileError, match="one width"):
                training.params_from_arrays({**arrays, "task.1.text": odd})

    def test_row_t_is_task_t(self, texts):
        assert texts.shape == (len(TASK_NAMES), 32)
        for task in range(len(TASK_NAMES)):
            # row t is task t's own draw, whatever the number of tasks
            assert np.array_equal(texts[task], enc.task_texts(task + 1, 32, seed=0)[task])

    def test_near_orthogonality_over_seeded_inits(self):
        # oracle measurement: mean |t_a . t_b| across 100 seeded tables at D=32
        dots = []
        for seed in range(100):
            t = enc.task_texts(2, embed_dim=32, seed=seed)
            dots.append(abs(float(t[0] @ t[1])))
        assert np.mean(dots) < 0.2

    def test_distinct_seeds_give_distinct_embeddings(self):
        a = enc.task_texts(1, 32, seed=0)[0]
        b = enc.task_texts(1, 32, seed=1)[0]
        assert not np.allclose(a, b)


def features(pool, texts):
    return enc.failure_text_features(pool, texts)[0]


def concatenated_mean_features(pool, texts):
    """(token means, features) with each context stacked as a [prompt; text]
    array and averaged over its rows: the reference the copy-free sum in
    `failure_text_features` must match bit for bit."""
    prompts = pool.prompts
    text = texts[pool.tasks][:, None, None, :]
    rows = np.concatenate(
        [prompts, np.broadcast_to(text, prompts.shape[:2] + (1, prompts.shape[-1]))], axis=-2
    )
    mean = rows.mean(axis=-2)
    u = mean @ pool.proj + pool.bias
    return mean, u / np.linalg.norm(u, axis=-1)[..., None]


class TestFailurePrompts:
    def test_one_draw_equals_per_task_draws(self):
        pool = enc.init_prompt_pool([6, 4, 5], np.random.default_rng(1), k=3, prompt_len=2,
                                    embed_dim=32)
        rng = np.random.default_rng(1)
        assert pool.tasks.tolist() == [4, 5, 6]
        for block in pool.prompts:
            assert np.array_equal(block, rng.normal(scale=0.5, size=(3, 2, 32)))

    def test_bad_cluster_index(self, texts):
        # K is fixed when the pool is built; pool tasks must have a task text
        with pytest.raises(BadClusterIndexError):
            enc.init_prompt_pool([4], np.random.default_rng(1), k=0, prompt_len=2, embed_dim=32)
        with pytest.raises(UnknownTaskError):
            features(enc.init_prompt_pool([4, 7], np.random.default_rng(1), k=3, prompt_len=2,
                                          embed_dim=32), texts)

    def test_unit_norm_output(self, pool, texts):
        norms = np.linalg.norm(features(pool, texts), axis=-1)
        assert norms.shape == (3, 3)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_locality_other_prompts_do_not_leak(self, pool, texts):
        before = features(pool, texts)
        pool.prompts[0, 2] += 10.0
        pool.prompts[1, 1] -= 3.0
        after = features(pool, texts)
        assert np.array_equal(before[0, 1], after[0, 1])
        assert not np.allclose(before[0, 2], after[0, 2])

    def test_prompt_gradient_matches_central_differences(self, pool, texts):
        rng = np.random.default_rng(7)
        probe = np.zeros((3, 3, 32))
        probe[0, 0] = rng.normal(size=32)

        def loss_of(block):
            prompts = pool.prompts.copy()
            prompts[0, 0] = block
            moved = enc.FailurePromptPool(pool.tasks, prompts, pool.proj, pool.bias)
            return float(np.sum(features(moved, texts) * probe))

        _, cache = enc.failure_text_features(pool, texts)
        d_prompts, _, _ = enc.compose_failure_context_backward(cache, probe)
        err = finite_diff_grad_check(loss_of, [pool.prompts[0, 0]], [d_prompts[0, 0]])
        assert err < 1e-4
        d_prompts[0, 0] = 0.0
        assert not np.any(d_prompts)

    def test_shared_map_gradient_matches_central_differences(self, pool, texts):
        rng = np.random.default_rng(8)
        probe = np.zeros((3, 3, 32))
        probe[1, 2] = rng.normal(size=32)

        def loss_of(proj, bias):
            moved = enc.FailurePromptPool(pool.tasks, pool.prompts, proj, bias)
            return float(np.sum(features(moved, texts) * probe))

        _, cache = enc.failure_text_features(pool, texts)
        _, d_proj, d_bias = enc.compose_failure_context_backward(cache, probe)
        err = finite_diff_grad_check(loss_of, [pool.proj, pool.bias], [d_proj, d_bias])
        assert err < 1e-4

    def test_failure_text_features_stacks_all_clusters(self, pool, texts):
        pool.proj = pool.proj + 0.2 * np.random.default_rng(9).normal(size=(32, 32))
        feats = features(pool, texts)
        assert feats.shape == (3, 3, 32)
        for i, task in enumerate([4, 5, 6]):
            for k in range(3):
                rows = np.vstack([pool.prompts[i, k], texts[task]])
                u = rows.mean(axis=0) @ pool.proj + pool.bias
                np.testing.assert_allclose(feats[i, k], u / np.linalg.norm(u), atol=1e-12)

    @pytest.mark.parametrize("prompt_len", [1, 2, 3])
    def test_copy_free_mean_equals_concatenated_mean(self, texts, prompt_len):
        pool = enc.init_prompt_pool([4, 5, 6], np.random.default_rng(1), k=3,
                                    prompt_len=prompt_len, embed_dim=32)
        pool.proj = pool.proj + 0.2 * np.random.default_rng(9).normal(size=(32, 32))
        feats, (n_rows, mean, *_) = enc.failure_text_features(pool, texts)
        ref_mean, ref_feats = concatenated_mean_features(pool, texts)
        assert n_rows == prompt_len + 1
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(feats, ref_feats)

    def test_collapsed_failure_context_raises(self, pool, texts):
        pool.proj = np.zeros_like(pool.proj)
        with pytest.raises(ZeroVectorError, match="failure context collapsed to zero"):
            features(pool, texts)
