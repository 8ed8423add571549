"""Finite-difference gradient suite over every trainable operation.

Each entry builds seeded random input arrays, and `_check` hands them with
their hand-written gradients (the frozen task texts get none) to
`finite_diff_grad_check`, which compares each entry with a central
difference. The gradient is computed once per batch; the two encoder
entries give the differences a value-only function, so their backward pass
does not run at every difference point. The `total_loss.<mode>` entries
check how each training mode sums the terms' gradients into its one
gradient of the batch's rows. `run_gradient_suite` runs them all;
`python -m rewardlab grad-check` prints its result and fails when an
operation's worst error reaches MAX_RELATIVE_ERROR.
"""

import numpy as np

from . import encoders as enc, losses
from .embeddings import finite_diff_grad_check, l2_normalize_rows

SEED = 0
N_BATCHES = 20  # seeded random batches per operation
# an operation whose worst relative error reaches this fails the check
MAX_RELATIVE_ERROR = 1e-6


def _unit_rows(rng, n, d):
    return l2_normalize_rows(rng.normal(size=(n, d)))


def _check(op, inputs, value=None):
    """Worst relative error of op's gradient at the input arrays, where
    op(*arrays) returns (value, [gradient of each array]). The central
    differences call value(*arrays), the same value without the gradient,
    when given, else op."""
    value = value or (lambda *arrays: op(*arrays)[0])
    return finite_diff_grad_check(value, inputs, op(*inputs)[1])


def _check_cdc(rng):
    labels = np.array([0, 0, 1, 1, 2, 2])

    def op(videos):
        loss, grad = losses.cross_domain_loss(videos, labels, 0.3)
        return loss, [grad]

    return _check(op, [_unit_rows(rng, 6, 12)])


def _check_vlc(rng, with_failure):
    b, d, k = 5, 10, 2
    videos = _unit_rows(rng, b, d)
    texts = _unit_rows(rng, b, d)
    labels = np.array([0, 1, 0, 1, 0])
    inputs = [videos] + ([_unit_rows(rng, 2 * k, d).reshape(2, k, d)] if with_failure else [])

    def op(videos, *fail):
        loss, grads = losses.video_text_loss(videos, texts, labels, 0.4, *fail)
        return loss, [grads["videos"]] + ([grads["fail_texts"]] if fail else [])

    return _check(op, inputs)


def _check_bce(rng):
    videos = _unit_rows(rng, 6, 12)
    texts = _unit_rows(rng, 6, 12)
    outcomes = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def op(videos):
        loss, grad = losses.bce_loss(videos, texts, outcomes)
        return loss, [grad]

    return _check(op, [videos])


def _check_fvlc(rng):
    d, k = 10, 3
    fail_videos = _unit_rows(rng, 4, d)
    labels = np.array([0, 1, 0, 1])
    clusters = np.array([rng.integers(0, k) for _ in range(4)])
    task_texts = _unit_rows(rng, 2, d)
    fail = _unit_rows(rng, 2 * k, d).reshape(2, k, d)

    def op(videos, fail):
        loss, grads = losses.failure_prompt_loss(videos, labels, clusters, task_texts, fail, 0.35)
        return loss, [grads["fail_videos"], grads["fail_texts"]]

    return _check(op, [fail_videos, fail])


def _check_encoder(rng):
    params = enc.init_video_encoder(rng, frames=4, frame_width=8, hidden=10, embed_dim=8)
    clip = rng.normal(size=(1, 4, 8))
    target = _unit_rows(rng, 1, 8)

    def loss(*arrays):
        return float(np.sum((enc.encode_clips(clip, enc.VideoEncoderParams(*arrays)) - target) ** 2))

    def op(*arrays):
        v, cache = enc.encode_clips_cached(clip, enc.VideoEncoderParams(*arrays))
        grads = enc.encode_clips_backward(cache, 2.0 * (v - target))
        return float(np.sum((v - target) ** 2)), grads.arrays()

    return _check(op, params.arrays(), loss)


def _check_compose(rng):
    d = 8
    texts = enc.task_texts(3, embed_dim=d, seed=int(rng.integers(2**31)))
    pool = enc.init_prompt_pool([0, 2], rng, k=2, prompt_len=2, embed_dim=d)
    probe = rng.normal(size=(2, 2, d))

    def features(*arrays):
        return enc.failure_text_features(enc.FailurePromptPool(pool.tasks, *arrays), texts)

    def op(*arrays):
        feats, cache = features(*arrays)
        return float(np.sum(feats * probe)), enc.compose_failure_context_backward(cache, probe)

    return _check(op, [pool.prompts, pool.proj, pool.bias],
                  lambda *arrays: float(np.sum(features(*arrays)[0] * probe)))


def _check_total(rng, mode):
    d, k = 8, 3
    # 3 human, 3 robot and 2 failure rows
    labels, clusters = np.array([0, 1, 0, 1, 0, 1, 0, 1]), rng.integers(0, k, size=2)
    task_texts = _unit_rows(rng, 2, d)
    inputs = [_unit_rows(rng, 8, d), _unit_rows(rng, 2 * k, d).reshape(2, k, d)]

    def op(videos, fail_texts):
        batch = losses.Batch(videos, labels, 3, 3, clusters, 0.4)
        loss, grads, _ = losses.total_loss(batch, task_texts, fail_texts, mode=mode)
        # a mode that does not read the failure features gives them no gradient
        return loss, [grads["videos"], grads.get("fail_texts", np.zeros_like(fail_texts))]

    return _check(op, inputs)


SUITE = {
    "cross_domain_loss": _check_cdc,
    "video_text_loss": lambda rng: _check_vlc(rng, with_failure=False),
    "video_text_loss_with_failure_negatives": lambda rng: _check_vlc(rng, with_failure=True),
    "bce_loss": _check_bce,
    "failure_prompt_loss": _check_fvlc,
    "encode_clips": _check_encoder,
    "failure_text_features": _check_compose,
    **{f"total_loss.{mode}": lambda rng, mode=mode: _check_total(rng, mode)
       for mode in losses.MODES},
}


def run_gradient_suite() -> dict:
    """Max relative error per operation over N_BATCHES seeded random inputs."""
    worst = {}
    for op_index, (name, check) in enumerate(SUITE.items()):
        errs = []
        for batch in range(N_BATCHES):
            rng = np.random.default_rng([SEED, 71, batch, op_index])
            errs.append(check(rng))
        worst[name] = max(errs)
    return worst
