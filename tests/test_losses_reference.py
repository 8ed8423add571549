"""The batched losses against per-row loop references, and against
two-pass copies of themselves.

The loop references compute each loss one anchor row at a time, the way
the definitions read. The batched versions reorder floating-point sums,
so values and gradients must agree to a tolerance set from float64
rounding (1e-12 relative), not bit for bit.

The two-pass copies are the batched losses as written before their
InfoNCE core became one pass: the value from `embeddings.logsumexp`, the
softmax from `embeddings.softmax`, per-task gradient blocks summed by
`np.add.at` on the task axis. The one-pass core does the same float
operations in the same order, so the public losses, and `total_loss`
composed of them, must equal the copies bit for bit, masked rows
included.
"""

import numpy as np
import pytest

import helpers
from rewardlab import losses
from rewardlab.embeddings import logsumexp, sigmoid, softmax

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
        batch.labels[8:] = [0, 1, 0, 1, 0]
        batch.fail_clusters = np.array([2, 1, 0, 0, 1])
    return batch, task_texts, failure_texts, pooled


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("exclude_anchor", [False, True])
def test_cross_domain_matches_loop(seed, exclude_anchor):
    batch, _, _, _ = random_case(seed, uneven_k=False)
    videos, labels = helpers.successes(batch)
    val, grad = losses.cross_domain_loss(videos, labels, batch.tau, exclude_anchor)
    want, want_grad = loop_cross_domain(videos, labels, batch.tau, exclude_anchor)
    assert val == pytest.approx(want, rel=RTOL)
    assert_close(grad, want_grad)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("failures", [None, "even", "uneven"])
def test_video_text_matches_loop(seed, failures):
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k=failures == "uneven")
    videos, labels = helpers.successes(batch)
    texts = task_texts[labels]
    fail = failure_texts if failures else None
    val, grads = losses.video_text_loss(videos, texts, labels, batch.tau, fail, pooled)
    want, d_videos, d_fail = loop_video_text(videos, texts, labels, batch.tau, fail, pooled)
    assert val == pytest.approx(want, rel=RTOL)
    assert_close(grads["videos"], d_videos)
    if fail is not None:
        assert_close(grads["fail_texts"], d_fail)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("uneven_k", [False, True])
def test_failure_prompt_matches_loop(seed, uneven_k):
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k)
    args = (*helpers.failures(batch), batch.fail_clusters, task_texts, failure_texts, batch.tau)
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


# --- two-pass copies: bit-exact references for the one-pass core ---

def two_pass_info_nce(logits, target, keep):
    z = logits if keep is None else np.where(keep, logits, -np.inf)
    value = float(np.sum(logsumexp(z) - np.sum(target * logits, axis=1)))
    return value, softmax(z)


def block_sum_rows(shape, labels, contrib):
    out = np.zeros(shape)
    np.add.at(out, labels, contrib)
    return out


def two_pass_cross_domain(videos, labels, tau, exclude_anchor=False):
    logits = (videos @ videos.T) / tau
    pos = labels[:, None] == labels[None, :]
    keep = None
    if exclude_anchor:
        keep = ~np.eye(len(labels), dtype=bool)
        pos &= keep
    target = pos / pos.sum(axis=1)[:, None]
    total, p = two_pass_info_nce(logits, target, keep)
    grad_s = (p - target) / tau
    return total, (grad_s + grad_s.T) @ videos


def two_pass_video_text(videos, texts, labels, tau, failure_texts=None, pooled=None):
    b = videos.shape[0]
    logits = (videos @ texts.T) / tau
    v2t, keep = logits, None
    if failure_texts is not None:
        blocks = failure_texts[labels]
        has_pool = np.ones(b, dtype=bool) if pooled is None else pooled[labels]
        fail_logits = np.einsum("bd,bkd->bk", videos, blocks) / tau
        v2t = np.concatenate([logits, fail_logits], axis=1)
        keep = np.ones(v2t.shape, dtype=bool)
        keep[:, b:] = has_pool[:, None]
    eye = np.eye(b)
    v2t_val, p = two_pass_info_nce(v2t, np.eye(*v2t.shape), keep)
    t2v_val, q = two_pass_info_nce(logits.T, eye, None)
    d_sims = (p[:, :b] + q.T - 2.0 * eye) / tau
    grads = {"videos": d_sims @ texts}
    if failure_texts is not None:
        d_fail = p[:, b:] / tau
        grads["videos"] += np.einsum("bk,bkd->bd", d_fail, blocks)
        grads["fail_texts"] = block_sum_rows(
            failure_texts.shape, labels, d_fail[:, :, None] * videos[:, None, :])
    return v2t_val + t2v_val, grads


def two_pass_bce(videos, texts, outcomes):
    x = np.sum(videos * texts, axis=1)
    y = np.where(outcomes > 0.5, -x, x)
    value = float(np.sum(np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))))
    return value, (sigmoid(x) - outcomes)[:, None] * texts


def two_pass_failure_prompt(fail_videos, fail_labels, fail_clusters, task_texts,
                            failure_texts, tau, pooled=None):
    n = fail_videos.shape[0]
    blocks, texts = failure_texts[fail_labels], task_texts[fail_labels]
    fail_logits = np.einsum("bd,bkd->bk", fail_videos, blocks)
    z = np.concatenate([np.sum(fail_videos * texts, axis=1, keepdims=True), fail_logits],
                       axis=1) / tau
    target = np.zeros_like(z)
    target[np.arange(n), 1 + fail_clusters] = 1.0
    total, coef = two_pass_info_nce(z, target, None)
    coef = (coef - target) / tau
    return total, {
        "fail_videos": coef[:, :1] * texts + np.einsum("bk,bkd->bd", coef[:, 1:], blocks),
        "fail_texts": block_sum_rows(
            failure_texts.shape, fail_labels, coef[:, 1:, None] * fail_videos[:, None, :]),
    }


TWO_PASS = {
    "cross_domain_loss": two_pass_cross_domain,
    "video_text_loss": two_pass_video_text,
    "bce_loss": two_pass_bce,
    "failure_prompt_loss": two_pass_failure_prompt,
}


def assert_same(got, want):
    """Equal values and gradients, bit for bit."""
    assert got[0] == want[0]
    got_grads, want_grads = got[1], want[1]
    if isinstance(want_grads, dict):
        assert sorted(got_grads) == sorted(want_grads)
        for key in want_grads:
            np.testing.assert_array_equal(got_grads[key], want_grads[key])
    else:
        np.testing.assert_array_equal(got_grads, want_grads)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("exclude_anchor", [False, True])
def test_cross_domain_equals_two_pass_copy(seed, exclude_anchor):
    # with exclude_anchor every row's diagonal logit is masked to -inf
    batch, _, _, _ = random_case(seed, uneven_k=False)
    args = (*helpers.successes(batch), batch.tau, exclude_anchor)
    assert_same(losses.cross_domain_loss(*args), two_pass_cross_domain(*args))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("failures", [None, "even", "uneven"])
def test_video_text_equals_two_pass_copy(seed, failures):
    # "uneven": the rows of task 2 mask their failure logits to -inf
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k=failures == "uneven")
    videos, labels = helpers.successes(batch)
    args = (videos, task_texts[labels], labels, batch.tau,
            failure_texts if failures else None, pooled)
    assert_same(losses.video_text_loss(*args), two_pass_video_text(*args))


@pytest.mark.parametrize("seed", range(6))
def test_bce_equals_two_pass_copy(seed):
    batch, task_texts, _, _ = random_case(seed, uneven_k=False)
    videos, labels = helpers.successes(batch)
    outcomes = np.random.default_rng(seed).integers(0, 2, len(videos)).astype(float)
    args = (videos, task_texts[labels], outcomes)
    assert_same(losses.bce_loss(*args), two_pass_bce(*args))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("uneven_k", [False, True])
def test_failure_prompt_equals_two_pass_copy(seed, uneven_k):
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k)
    args = (*helpers.failures(batch), batch.fail_clusters, task_texts,
            failure_texts, batch.tau, pooled)
    assert_same(losses.failure_prompt_loss(*args), two_pass_failure_prompt(*args))


def test_rows_that_keep_one_entry_equal_two_pass_copies():
    batch, task_texts, failure_texts, _ = random_case(0, uneven_k=False)
    # two same-task anchors without themselves: each row keeps one logit
    videos, labels = batch.videos[:2], np.array([1, 1])
    args = (videos, labels, batch.tau, True)
    assert_same(losses.cross_domain_loss(*args), two_pass_cross_domain(*args))
    # one video whose task has no prompt pool: its video->text row keeps
    # only its own text, every failure logit masked
    pooled = np.array([True, False, True])
    args = (videos[:1], task_texts[labels[:1]], labels[:1], batch.tau, failure_texts, pooled)
    assert_same(losses.video_text_loss(*args), two_pass_video_text(*args))


def two_pass_total(batch, task_texts, failure_texts, pooled, mode):
    """total_loss composed from the two-pass copies of its terms, summed
    in total_loss's order: cross-domain, video-text, then bce or the
    failure-prompt term. Each term's gradient is added into one (N, D)
    array of the batch's rows."""
    videos, labels = helpers.successes(batch)
    fail_videos, fail_labels = helpers.failures(batch)
    n_h, n_s = batch.n_human, len(labels)
    texts = task_texts[labels]
    cdc_val, d_success = two_pass_cross_domain(videos, labels, batch.tau)
    vlc_val, vlc_grads = two_pass_video_text(
        videos, texts, labels, batch.tau, failure_texts if mode == "fvlc" else None, pooled)
    components = {"cross_domain": cdc_val, "video_text": vlc_val}
    d_videos = np.zeros_like(batch.videos)
    d_videos[:n_s] = d_success + vlc_grads["videos"]
    grads = {"videos": d_videos}
    extra_val = 0.0
    if mode == "bce":
        extra_val, d_bce = two_pass_bce(
            np.concatenate([videos[n_h:], fail_videos]),
            np.concatenate([texts[n_h:], task_texts[fail_labels]]),
            np.concatenate([np.ones(n_s - n_h), np.zeros(len(fail_labels))]))
        d_videos[n_h:] += d_bce
        components["bce"] = extra_val
    elif mode == "fvlc":
        extra_val, fp_grads = two_pass_failure_prompt(
            fail_videos, fail_labels, batch.fail_clusters, task_texts,
            failure_texts, batch.tau, pooled)
        grads["fail_texts"] = vlc_grads["fail_texts"] + fp_grads["fail_texts"]
        d_videos[n_s:] = fp_grads["fail_videos"]
        components["failure_prompt"] = extra_val
    value = cdc_val + vlc_val + extra_val
    components["total"] = value
    return value, grads, components


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", losses.MODES)
def test_total_loss_equals_two_pass_copies(seed, mode):
    # total_loss calls the public terms, so its sum and gradients are
    # compared with the same composition of the two-pass copies
    batch, task_texts, failure_texts, pooled = random_case(seed, uneven_k=seed % 2 == 1)
    value, grads, components = losses.total_loss(batch, task_texts, failure_texts, pooled, mode)
    want_value, want_grads, want_components = two_pass_total(
        batch, task_texts, failure_texts, pooled, mode)
    assert components == want_components and value == want_value
    assert_same((value, grads), (want_value, want_grads))
