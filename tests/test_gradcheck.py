"""The finite-difference suite, and the batched prompt composition the
training step uses, against the per-(task, cluster) definition."""

import numpy as np
import pytest

from rewardlab import encoders as enc, gradcheck
from rewardlab.embeddings import finite_diff_grad_check
from rewardlab.errors import UnknownTaskError
from rewardlab.simworld import TASK_NAMES

TASKS = [4, 5, 6]
D = 8


@pytest.fixture
def texts():
    return enc.task_texts(len(TASK_NAMES), embed_dim=D, seed=0)


@pytest.fixture
def pool():
    pool = enc.init_prompt_pool(TASKS, np.random.default_rng(1), k=3, prompt_len=2, embed_dim=D)
    rng = np.random.default_rng(2)
    pool.proj = pool.proj + 0.3 * rng.normal(size=(D, D))
    pool.bias = 0.1 * rng.normal(size=D)
    return pool


def test_suite_max_relative_error(monkeypatch):
    monkeypatch.setattr(gradcheck, "N_BATCHES", 2)
    worst = gradcheck.run_gradient_suite()
    assert sorted(worst) == sorted(gradcheck.SUITE)
    for name, err in worst.items():
        assert err < gradcheck.MAX_RELATIVE_ERROR, name


def test_batched_composition_matches_per_context(pool, texts):
    feats, _ = enc.failure_text_features(pool, texts)
    assert feats.shape == (len(TASKS), 3, D)
    for j, task in enumerate(TASKS):
        for k in range(3):
            rows = np.vstack([pool.prompts[j, k], texts[task]])
            u = rows.mean(axis=0) @ pool.proj + pool.bias
            assert np.max(np.abs(feats[j, k] - u / np.linalg.norm(u))) <= 1e-12


def test_batched_composition_unknown_task(pool, texts):
    pool.tasks = np.array([4, len(TASK_NAMES)])
    with pytest.raises(UnknownTaskError):
        enc.failure_text_features(pool, texts)


def test_batched_composition_backward_matches_central_differences(pool, texts):
    probe = np.random.default_rng(3).normal(size=(len(TASKS), 3, D))

    def loss_of(*arrays):
        moved = enc.FailurePromptPool(pool.tasks, *arrays)
        return float(np.sum(enc.failure_text_features(moved, texts)[0] * probe))

    _, cache = enc.failure_text_features(pool, texts)
    d_prompts, d_proj, d_bias = enc.compose_failure_context_backward(cache, probe)
    assert d_prompts.shape == pool.prompts.shape
    err = finite_diff_grad_check(
        loss_of, [pool.prompts, pool.proj, pool.bias], [d_prompts, d_proj, d_bias]
    )
    assert err < 1e-6
