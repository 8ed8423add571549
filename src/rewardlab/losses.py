"""Training objectives, each returning a scalar value plus the gradients
of its trainable inputs.

Every contrastive term calls one InfoNCE core, `_info_nce`: logits z
(similarities / tau), one target distribution per row, and an optional
mask of each row's denominator (the other logits become -inf, which the
log-sum-exp and the softmax skip). Row i contributes logsumexp(z_i) minus
its target-weighted logits; the gradient with respect to the
similarities is (softmax(z_i) - target_i) / tau. The core makes one pass
over the logits: the row max m_i, e_i = exp(z_i - m_i) and its row sum
s_i are computed once and give both the value, m_i + log(s_i), and the
softmax, e_i / s_i. These are the operations of `embeddings.logsumexp`
and `embeddings.softmax` in the same order, so the results are equal bit
for bit; the hot path also calls array methods (`.sum()`, `.any()`)
rather than the `np.sum`-style wrappers, which cost more per call than
these small reductions do.

* cross_domain_loss: supervised contrastive (SupCon) pull between same-task
  clips across the human and robot domains, the target spread over each
  row's same-task positives. The anchor is one of its own positives by
  default; supcon-style self-exclusion masks the diagonal.
* video_text_loss: bidirectional clip<->text InfoNCE, target on the
  diagonal. With failure features, video->text logits are [B, B + K]: the
  last K columns hold the row task's failure features, masked when that
  task has no prompt pool. text->video is the transposed [B, B] matrix.
* bce_loss: binary cross-entropy on sigmoid(v . t) over robot successes
  and failures.
* failure_prompt_loss: [Bf, 1 + K] logits of each failure clip against
  [task text; task failure features]; the target is the feature at the
  clip's assigned cluster k*.

Task texts stand in for a frozen language encoder, so no loss returns a
gradient for them: gradients cover the clip embeddings ("videos",
"fail_videos") and the failure features ("fail_texts"), which the training
step backprops into the encoder and the prompt pool. Per-task inputs are
arrays indexed by task id: texts (T, D), failure features (T, K, D) and a
(T,) mask of the tasks with a prompt pool; per-row feature gradients are
summed back into (T, K, D) with np.add.at. Gradients are hand-derived and
checked against central differences in the test suite.
"""

import math
from dataclasses import dataclass

import numpy as np

# logsumexp and softmax are no longer called here (`_info_nce` fuses
# them), but they stay importable as `losses.logsumexp`/`losses.softmax`:
# the benchmark's layer table traces those names.
from .embeddings import logsumexp, sigmoid, softmax
from .errors import (
    BadClusterIndexError,
    BadConfigError,
    EmptyPositiveSetError,
    MissingFailureTextsError,
    NonPositiveTemperatureError,
    ShapeMismatchError,
    UnknownTaskError,
)

MODES = ("no_failure", "bce", "fvlc")

HUMAN, ROBOT = 0, 1


@dataclass
class Batch:
    """Embedding-level training batch: human rows first, then robot successes."""

    videos: np.ndarray         # (B, D) success clips
    labels: np.ndarray         # (B,) task ids
    domains: np.ndarray        # (B,) HUMAN or ROBOT
    fail_videos: np.ndarray    # (Bf, D)
    fail_labels: np.ndarray    # (Bf,)
    fail_clusters: np.ndarray  # (Bf,) assigned pseudo-label k*
    tau: float

    def __post_init__(self):
        self.videos = np.asarray(self.videos, dtype=np.float64)
        self.fail_videos = np.asarray(self.fail_videos, dtype=np.float64).reshape(-1, self.videos.shape[1])
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.fail_labels = np.asarray(self.fail_labels, dtype=np.int64)
        self.fail_clusters = np.asarray(self.fail_clusters, dtype=np.int64)
        _check_tau(self.tau)

    @property
    def n_human(self) -> int:
        return int(np.count_nonzero(self.domains == HUMAN))

    @property
    def n_robot(self) -> int:
        return int(np.count_nonzero(self.domains == ROBOT))

    @property
    def n_fail(self) -> int:
        return self.fail_videos.shape[0]


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise NonPositiveTemperatureError(f"tau must be > 0, got {tau}")


def _rows(per_task, labels, error):
    """per_task[labels] for a task-indexed array and int labels; a label
    outside [0, T) raises `error`."""
    if ((labels < 0) | (labels >= len(per_task))).any():
        raise error(f"task labels {sorted(set(labels.tolist()))} outside [0, {len(per_task)})")
    return per_task[labels]


def _pool_rows(failure_texts, pooled, labels):
    """Each row's (K, D) failure block and the (n,) mask of rows whose task
    has a prompt pool; callers mask the other rows' failure logits."""
    blocks = _rows(failure_texts, labels, MissingFailureTextsError)
    if pooled is None:
        return blocks, np.ones(len(blocks), dtype=bool)
    return blocks, np.asarray(pooled, dtype=bool)[labels]


def _sum_rows(shape, labels, contrib) -> np.ndarray:
    """Per-row gradients (n, ...) summed into a task-indexed (T, ...) array,
    row by row in order. np.add.at takes one flat index per entry: that
    adds the same values in the same order as indexing whole (...) blocks
    by task, at a third of the cost."""
    out = np.zeros(shape)
    width = math.prod(shape[1:])
    flat = (labels[:, None] * width + np.arange(width)).ravel()
    np.add.at(out.reshape(-1), flat, contrib.reshape(-1))
    return out


def _info_nce(logits, target, keep):
    """sum_i logsumexp(z_i) - target_i . logits_i, where z is logits with
    the entries outside the mask `keep` (None keeps all) set to -inf.
    Returns (value, softmax(z)); d value / d logits = softmax(z) - target.
    One max, exp and sum per row serve both outputs."""
    z = logits if keep is None else np.where(keep, logits, -np.inf)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    value = float((m[:, 0] + np.log(s[:, 0]) - (target * logits).sum(axis=1)).sum())
    return value, e / s


def cross_domain_loss(videos, labels, tau: float, exclude_anchor: bool = False):
    """Supervised contrastive loss over the pooled success batch.

    Returns (value, d_videos).
    """
    videos = np.asarray(videos, dtype=np.float64)
    labels = np.asarray(labels)
    _check_tau(tau)
    logits = (videos @ videos.T) / tau
    pos = labels[:, None] == labels[None, :]
    keep = None
    if exclude_anchor:
        keep = ~np.eye(len(labels), dtype=bool)
        pos &= keep
    n_pos = pos.sum(axis=1)
    if (n_pos == 0).any():
        raise EmptyPositiveSetError(f"anchor {int(np.argmin(n_pos))} has no positive sample")
    target = pos / n_pos[:, None]
    total, p = _info_nce(logits, target, keep)
    grad_s = (p - target) / tau
    return total, (grad_s + grad_s.T) @ videos


def video_text_loss(videos, texts, labels, tau: float, failure_texts=None, pooled=None):
    """Bidirectional clip<->text InfoNCE; failure features join the
    video->text denominators when given.

    texts are the frozen (B, D) task texts of the rows. failure_texts is
    (T, K, D), indexed by task id; pooled is the (T,) mask of tasks that
    have a prompt pool (all of them when None).
    Returns (value, grads) with grads keys "videos" and (when
    failure_texts is given) "fail_texts" (T, K, D).
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if videos.shape != texts.shape:
        raise ShapeMismatchError("one text embedding per video is required")
    _check_tau(tau)
    b = videos.shape[0]
    logits = (videos @ texts.T) / tau            # [i, j] = v_i . t_j / tau
    v2t, keep = logits, None
    if failure_texts is not None:
        failure_texts = np.asarray(failure_texts, dtype=np.float64)
        blocks, has_pool = _pool_rows(failure_texts, pooled, labels)
        fail_logits = np.einsum("bd,bkd->bk", videos, blocks) / tau
        v2t = np.concatenate([logits, fail_logits], axis=1)
        keep = np.ones(v2t.shape, dtype=bool)
        keep[:, b:] = has_pool[:, None]
    eye = np.eye(b)
    v2t_val, p = _info_nce(v2t, np.eye(*v2t.shape), keep)
    t2v_val, q = _info_nce(logits.T, eye, None)
    # d(loss)/d(v_i . t_j): video->text rows plus text->video columns, with
    # both targets taken off in one 2I (per direction rounds differently)
    d_sims = (p[:, :b] + q.T - 2.0 * eye) / tau
    grads = {"videos": d_sims @ texts}
    if failure_texts is not None:
        d_fail = p[:, b:] / tau
        grads["videos"] += np.einsum("bk,bkd->bd", d_fail, blocks)
        grads["fail_texts"] = _sum_rows(
            failure_texts.shape, labels, d_fail[:, :, None] * videos[:, None, :]
        )
    return v2t_val + t2v_val, grads


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_loss(videos, texts, outcomes):
    """-sum_i [r log p + (1-r) log(1-p)] with p = sigmoid(v . t) against
    the frozen texts.

    Returns (value, d_videos).
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if videos.shape != texts.shape or outcomes.shape[0] != videos.shape[0]:
        raise ShapeMismatchError("videos, texts, outcomes must align")
    x = (videos * texts).sum(axis=1)
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    value = float(_softplus(np.where(outcomes > 0.5, -x, x)).sum())
    return value, (sigmoid(x) - outcomes)[:, None] * texts


def failure_prompt_loss(
    fail_videos, fail_labels, fail_clusters, task_texts, failure_texts, tau: float, pooled=None
):
    """Contrast each failure clip against [success text; K failure features].

    task_texts is the frozen (T, D) text table and failure_texts (T, K, D),
    both indexed by task id; pooled is the (T,) mask of tasks that have a
    prompt pool (all of them when None), and every failure row's task must
    have one. The positive is the failure feature at the clip's assigned
    cluster k*.
    Returns (value, grads) with keys "fail_videos" and "fail_texts" (T, K, D).
    """
    fail_videos = np.asarray(fail_videos, dtype=np.float64)
    fail_labels = np.asarray(fail_labels, dtype=np.int64)
    fail_clusters = np.asarray(fail_clusters, dtype=np.int64)
    task_texts = np.asarray(task_texts, dtype=np.float64)
    failure_texts = np.asarray(failure_texts, dtype=np.float64)
    _check_tau(tau)
    n, k = fail_videos.shape[0], failure_texts.shape[1]
    blocks, has_pool = _pool_rows(failure_texts, pooled, fail_labels)
    if not has_pool.all():
        raise MissingFailureTextsError("a failure row's task has no prompt pool")
    bad = (fail_clusters < 0) | (fail_clusters >= k)
    if bad.any():
        raise BadClusterIndexError(f"k*={fail_clusters[np.argmax(bad)]} outside [0, {k})")
    texts = _rows(task_texts, fail_labels, UnknownTaskError)
    fail_logits = np.einsum("bd,bkd->bk", fail_videos, blocks)
    z = np.concatenate([(fail_videos * texts).sum(axis=1, keepdims=True), fail_logits], axis=1) / tau
    target = np.zeros_like(z)
    target[np.arange(n), 1 + fail_clusters] = 1.0
    total, coef = _info_nce(z, target, None)
    coef = (coef - target) / tau
    return total, {
        "fail_videos": coef[:, :1] * texts + np.einsum("bk,bkd->bd", coef[:, 1:], blocks),
        "fail_texts": _sum_rows(
            failure_texts.shape, fail_labels, coef[:, 1:, None] * fail_videos[:, None, :]
        ),
    }


def _accumulate(target: dict, grads: dict) -> None:
    for key, val in grads.items():
        target[key] = target[key] + val if key in target else val


def total_loss(
    batch: Batch,
    task_texts,
    failure_texts=None,
    pooled=None,
    mode: str = "fvlc",
    exclude_anchor: bool = False,
):
    """Combined objective for one batch under the given training mode.

    no_failure: cross-domain + video-text.
    bce:        adds binary cross-entropy over robot successes + failures.
    fvlc:       adds failure negatives to video->text and the failure
                prompt contrast term.

    task_texts is (T, D) and failure_texts (T, K, D), indexed by task id;
    each row's text is task_texts[label]. pooled is the (T,) mask of tasks
    that have a prompt pool. The terms are summed with unit weights.
    Returns (value, grads, components).
    """
    if mode not in MODES:
        raise BadConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if batch.n_human < 1 or batch.n_robot < 1:
        raise EmptyPositiveSetError("need at least one human and one robot success sample")

    task_texts = np.asarray(task_texts, dtype=np.float64)
    texts = _rows(task_texts, batch.labels, UnknownTaskError)
    grads: dict = {}
    components: dict = {}

    cdc_val, cdc_grad = cross_domain_loss(
        batch.videos, batch.labels, batch.tau, exclude_anchor=exclude_anchor
    )
    components["cross_domain"] = cdc_val
    _accumulate(grads, {"videos": cdc_grad})

    vlc_fail = failure_texts if mode == "fvlc" else None
    vlc_val, vlc_grads = video_text_loss(
        batch.videos, texts, batch.labels, batch.tau, failure_texts=vlc_fail, pooled=pooled
    )
    components["video_text"] = vlc_val
    _accumulate(grads, vlc_grads)

    extra_val = 0.0
    if mode == "bce":
        robot = batch.domains == ROBOT
        n_r = int(robot.sum())
        videos = np.concatenate([batch.videos[robot], batch.fail_videos])
        bce_texts = np.concatenate([
            texts[robot], _rows(task_texts, batch.fail_labels, UnknownTaskError)
        ])
        outcomes = np.concatenate([np.ones(n_r), np.zeros(batch.n_fail)])
        extra_val, d_bce = bce_loss(videos, bce_texts, outcomes)
        d_videos = np.zeros_like(batch.videos)
        d_videos[robot] = d_bce[:n_r]
        _accumulate(grads, {"videos": d_videos, "fail_videos": d_bce[n_r:]})
        components["bce"] = extra_val
    elif mode == "fvlc":
        extra_val, fp_grads = failure_prompt_loss(
            batch.fail_videos,
            batch.fail_labels,
            batch.fail_clusters,
            task_texts,
            failure_texts,
            batch.tau,
            pooled,
        )
        _accumulate(grads, fp_grads)
        components["failure_prompt"] = extra_val

    value = cdc_val + vlc_val + extra_val
    components["total"] = value
    return value, grads, components
