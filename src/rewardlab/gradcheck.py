"""Finite-difference gradient suite over every trainable operation.

Each entry builds seeded random inputs, evaluates the hand-written
gradient of every trainable input (the frozen task texts get none), and
compares it against central differences of step EPS.
`run_gradient_suite` runs them all; `python -m rewardlab grad-check`
prints its result.
"""

import numpy as np

from . import encoders as enc, losses
from .embeddings import finite_diff_grad_check, l2_normalize_rows

SEED = 0
EPS = 1e-5


def _unit_rows(rng, n, d):
    return l2_normalize_rows(rng.normal(size=(n, d)))


def _check_cdc(rng):
    videos = _unit_rows(rng, 6, 12)
    labels = np.array([0, 0, 1, 1, 2, 2])
    _, grad = losses.cross_domain_loss(videos, labels, 0.3)
    return finite_diff_grad_check(
        lambda flat: losses.cross_domain_loss(flat.reshape(videos.shape), labels, 0.3)[0],
        videos.ravel().copy(), grad.ravel(), eps=EPS,
    )


def _check_vlc(rng, with_failure):
    b, d, k = 5, 10, 2
    videos = _unit_rows(rng, b, d)
    texts = _unit_rows(rng, b, d)
    labels = np.array([0, 1, 0, 1, 0])
    inputs = [videos] + ([_unit_rows(rng, 2 * k, d).reshape(2, k, d)] if with_failure else [])

    def f(flat):
        vv, *ff = enc.unflatten_like(flat, inputs)
        return losses.video_text_loss(vv, texts, labels, 0.4, *ff)[0]

    _, grads = losses.video_text_loss(videos, texts, labels, 0.4, *inputs[1:])
    analytic = [grads["videos"]] + ([grads["fail_texts"]] if with_failure else [])
    return finite_diff_grad_check(
        f, enc.flatten_arrays(inputs), enc.flatten_arrays(analytic), eps=EPS
    )


def _check_bce(rng):
    videos = _unit_rows(rng, 6, 12)
    texts = _unit_rows(rng, 6, 12)
    outcomes = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    _, grad = losses.bce_loss(videos, texts, outcomes)
    return finite_diff_grad_check(
        lambda flat: losses.bce_loss(flat.reshape(videos.shape), texts, outcomes)[0],
        videos.ravel().copy(), grad.ravel(), eps=EPS,
    )


def _check_fvlc(rng):
    d, k = 10, 3
    fail_videos = _unit_rows(rng, 4, d)
    labels = np.array([0, 1, 0, 1])
    clusters = np.array([rng.integers(0, k) for _ in range(4)])
    task_texts = _unit_rows(rng, 2, d)
    fail = _unit_rows(rng, 2 * k, d).reshape(2, k, d)
    inputs = [fail_videos, fail]
    _, grads = losses.failure_prompt_loss(fail_videos, labels, clusters, task_texts, fail, 0.35)

    def f(flat):
        vv, ff = enc.unflatten_like(flat, inputs)
        return losses.failure_prompt_loss(vv, labels, clusters, task_texts, ff, 0.35)[0]

    analytic = [grads["fail_videos"], grads["fail_texts"]]
    return finite_diff_grad_check(
        f, enc.flatten_arrays(inputs), enc.flatten_arrays(analytic), eps=EPS
    )


def _check_encoder(rng):
    params = enc.init_video_encoder(rng, frames=4, frame_width=8, hidden=10, embed_dim=8)
    clip = rng.normal(size=(4, 8))
    target = _unit_rows(rng, 1, 8)[0]

    def f(vec):
        trial = enc.VideoEncoderParams(*enc.unflatten_like(vec, params.arrays()))
        return float(np.sum((enc.encode_clips(clip[None], trial) - target) ** 2))

    v, cache = enc.encode_clips_cached(clip[None], params)
    grads = enc.encode_clips_backward(cache, 2.0 * (v - target[None]))
    return finite_diff_grad_check(
        f, enc.flatten_arrays(params.arrays()), enc.flatten_arrays(grads.arrays()), eps=EPS
    )


def _check_compose(rng):
    d = 8
    texts = enc.task_texts(3, embed_dim=d, seed=int(rng.integers(2**31)))
    pool = enc.init_prompt_pool([0, 2], rng, k=2, prompt_len=2, embed_dim=d)
    probe = rng.normal(size=(2, 2, d))
    params = [pool.prompts, pool.proj, pool.bias]

    def f(vec):
        trial = enc.FailurePromptPool(pool.tasks, *enc.unflatten_like(vec, params))
        return float(np.sum(enc.failure_text_features(trial, texts)[0] * probe))

    _, cache = enc.failure_text_features(pool, texts)
    analytic = enc.compose_failure_context_backward(cache, probe)
    return finite_diff_grad_check(
        f, enc.flatten_arrays(params), enc.flatten_arrays(analytic), eps=EPS
    )


SUITE = {
    "cross_domain_loss": _check_cdc,
    "video_text_loss": lambda rng: _check_vlc(rng, with_failure=False),
    "video_text_loss_with_failure_negatives": lambda rng: _check_vlc(rng, with_failure=True),
    "bce_loss": _check_bce,
    "failure_prompt_loss": _check_fvlc,
    "encode_clips": _check_encoder,
    "failure_text_features": _check_compose,
}


def run_gradient_suite(n_batches: int = 20) -> dict:
    """Max relative error per operation over n_batches seeded random inputs."""
    worst = {}
    for op_index, (name, check) in enumerate(SUITE.items()):
        errs = []
        for batch in range(n_batches):
            rng = np.random.default_rng([SEED, 71, batch, op_index])
            errs.append(check(rng))
        worst[name] = max(errs)
    return worst
