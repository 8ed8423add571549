"""The batched losses against per-row loop references.

The references below compute each loss one anchor row at a time, the way
the definitions read. The batched versions reorder floating-point sums,
so values and gradients must agree to a tolerance set from float64
rounding (1e-12 relative), not bit for bit.
"""

import numpy as np
import pytest

import helpers
from rewardlab import losses
from rewardlab.embeddings import logsumexp, softmax

RTOL = 1e-12


def loop_cross_domain(videos, labels, tau, exclude_anchor=False):
    b = videos.shape[0]
    logits = (videos @ videos.T) / tau
    grad_s = np.zeros((b, b))
    total = 0.0
    for i in range(b):
        same = labels == labels[i]
        keep = np.ones(b, dtype=bool)
        if exclude_anchor:
            same[i] = False
            keep[i] = False
        pos = np.flatnonzero(same)
        z = logits[i, keep]
        total += logsumexp(z) - float(np.mean(logits[i, pos]))
        grad_s[i, keep] += softmax(z) / tau
        grad_s[i, pos] -= 1.0 / (tau * pos.size)
    return total, (grad_s + grad_s.T) @ videos


def loop_video_text(videos, texts, labels, tau, failure_texts=None, pooled=None):
    b = videos.shape[0]
    sims = videos @ texts.T
    d_videos = np.zeros_like(videos)
    d_fail = np.zeros_like(failure_texts) if failure_texts is not None else None
    total = 0.0
    for i in range(b):
        z = sims[i] / tau
        task = int(labels[i])
        has_pool = failure_texts is not None and (pooled is None or pooled[task])
        block = failure_texts[task] if has_pool else np.zeros((0, videos.shape[1]))
        z = np.concatenate([z, (videos[i] @ block.T) / tau])
        total += logsumexp(z) - float(z[i])
        coef = softmax(z)
        coef[i] -= 1.0
        d_videos[i] += (coef[:b] @ texts + coef[b:] @ block) / tau
        if has_pool:
            d_fail[task] += np.outer(coef[b:], videos[i]) / tau
        z2 = sims[:, i] / tau
        total += logsumexp(z2) - float(z2[i])
        coef2 = softmax(z2)
        coef2[i] -= 1.0
        d_videos += np.outer(coef2, texts[i]) / tau
    return total, d_videos, d_fail


def loop_failure_prompt(fail_videos, fail_labels, fail_clusters, task_texts, failure_texts, tau):
    d_videos = np.zeros_like(fail_videos)
    d_fail = np.zeros_like(failure_texts)
    total = 0.0
    for i, v in enumerate(fail_videos):
        task, pos = int(fail_labels[i]), 1 + int(fail_clusters[i])
        block, text = failure_texts[task], task_texts[task]
        z = np.concatenate([[v @ text], v @ block.T]) / tau
        total += logsumexp(z) - float(z[pos])
        coef = softmax(z)
        coef[pos] -= 1.0
        d_videos[i] = (coef[0] * text + coef[1:] @ block) / tau
        d_fail[task] += np.outer(coef[1:], v) / tau
    return total, d_videos, d_fail


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want)))) if np.size(want) else 1.0
    assert np.max(np.abs(np.asarray(got) - want), initial=0.0) <= RTOL * scale


def random_case(seed, uneven_k):
    """A random batch and its (T,) prompt-pool mask; with uneven_k, task 2
    has no prompt pool, so its rows get no failure features."""
    batch, task_texts, failure_texts = helpers.build_random_batch(
        seed, n_human=4, n_robot=4, n_fail=5, k=3, d=6, n_tasks=3, tau=0.2
    )
    pooled = np.ones(3, dtype=bool)
    if uneven_k:
        pooled[2] = False
        batch.fail_labels = np.array([0, 1, 0, 1, 0])
        batch.fail_clusters = np.array([2, 1, 0, 0, 1])
    return batch, task_texts, failure_texts, pooled


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("exclude_anchor", [False, True])
def test_cross_domain_matches_loop(seed, exclude_anchor):
    batch, _, _, _ = random_case(seed, uneven_k=False)
    val, grad = losses.cross_domain_loss(batch.videos, batch.labels, batch.tau, exclude_anchor)
    want, want_grad = loop_cross_domain(batch.videos, batch.labels, batch.tau, exclude_anchor)
    assert val == pytest.approx(want, rel=RTOL)
    assert_close(grad, want_grad)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("failures", [None, "even", "uneven"])
def test_video_text_matches_loop(seed, failures):
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k=failures == "uneven")
    texts = task_texts[batch.labels]
    fail = failure_texts if failures else None
    val, grads = losses.video_text_loss(
        batch.videos, texts, batch.labels, batch.tau, fail, pooled
    )
    want, d_videos, d_fail = loop_video_text(
        batch.videos, texts, batch.labels, batch.tau, fail, pooled
    )
    assert val == pytest.approx(want, rel=RTOL)
    assert_close(grads["videos"], d_videos)
    if fail is not None:
        assert_close(grads["fail_texts"], d_fail)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("uneven_k", [False, True])
def test_failure_prompt_matches_loop(seed, uneven_k):
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k)
    args = (batch.fail_videos, batch.fail_labels, batch.fail_clusters, task_texts, failure_texts, batch.tau)
    val, grads = losses.failure_prompt_loss(*args, pooled)
    want, d_videos, d_fail = loop_failure_prompt(*args)
    assert val == pytest.approx(want, rel=RTOL)
    assert_close(grads["fail_videos"], d_videos)
    assert_close(grads["fail_texts"], d_fail)


def test_failure_prompt_without_failure_rows():
    batch, task_texts, failure_texts, _ = random_case(0, uneven_k=False)
    val, grads = losses.failure_prompt_loss(
        np.zeros((0, 6)), [], [], task_texts, failure_texts, batch.tau
    )
    assert val == 0.0
    assert grads["fail_videos"].shape == (0, 6)
    assert grads["fail_texts"].shape == failure_texts.shape
    assert not np.any(grads["fail_texts"])
