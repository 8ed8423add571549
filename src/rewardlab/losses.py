"""Training objectives, each returning a scalar value plus gradients.

Each contrastive term is one logits matrix z (similarities / tau) and one
row-wise max-subtracted log-softmax: row i contributes logsumexp(z_i)
minus the mean of its positive logits. Its gradient with respect to the
similarities is (softmax(z_i) - positive mask / #positives) / tau, which
matmuls carry back to the embeddings. A logit that does not belong to a
row's denominator is set to -inf, so the log-sum-exp and the softmax both
skip it.

* cross_domain_loss: supervised contrastive (SupCon) pull between same-task
  clips across the human and robot domains: [B, B] logits with a
  same-task positive mask. The anchor is included in its own positive set
  and denominator by default; supcon-style self-exclusion masks the
  diagonal.
* video_text_loss: bidirectional clip<->text InfoNCE, positive on the
  diagonal. When failure-text features are supplied, video->text logits
  are [B, B + K]: the last K columns hold the row task's failure features,
  masked past that task's own count, so a task without a prompt pool adds
  no negatives. text->video is the transposed [B, B] matrix.
* bce_loss: binary cross-entropy on sigmoid(v . t) over robot successes
  and failures.
* failure_prompt_loss: [Bf, 1 + K] logits of each failure clip against
  [task success text; task failure features]; the positive is the
  feature at the clip's assigned cluster k*.

Per-task blocks arrive as task -> array dicts; each loss stacks the tasks
its rows use and sums gradients back per task. Gradients are hand-derived
and covered by central-difference checks in the test suite.
"""

from dataclasses import dataclass, field

import numpy as np

from .embeddings import logsumexp, softmax
from .errors import (
    BadClusterIndexError,
    BadConfigError,
    EmptyPositiveSetError,
    MissingFailureTextsError,
    NonPositiveTemperatureError,
    ShapeMismatchError,
)

MODES = ("no_failure", "bce", "fvlc")
DEFAULT_TAU = 0.07

HUMAN, ROBOT = 0, 1


@dataclass
class Batch:
    """Embedding-level training batch: human rows first, then robot successes."""

    videos: np.ndarray         # (B, D) success clips
    labels: np.ndarray         # (B,) task ids
    domains: np.ndarray        # (B,) HUMAN or ROBOT
    texts: np.ndarray          # (B, D) frozen task text per sample
    fail_videos: np.ndarray    # (Bf, D)
    fail_labels: np.ndarray    # (Bf,)
    fail_clusters: np.ndarray  # (Bf,) assigned pseudo-label k*
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        self.videos = np.asarray(self.videos, dtype=np.float64)
        self.texts = np.asarray(self.texts, dtype=np.float64)
        self.fail_videos = np.asarray(self.fail_videos, dtype=np.float64).reshape(-1, self.videos.shape[1])
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        self.fail_labels = np.asarray(self.fail_labels, dtype=np.int64)
        self.fail_clusters = np.asarray(self.fail_clusters, dtype=np.int64)
        if self.videos.shape != self.texts.shape:
            raise ShapeMismatchError("videos and texts must have matching shape")
        _check_tau(self.tau)

    @property
    def size(self) -> int:
        return self.videos.shape[0]

    @property
    def n_human(self) -> int:
        return int(np.sum(self.domains == HUMAN))

    @property
    def n_robot(self) -> int:
        return int(np.sum(self.domains == ROBOT))

    @property
    def n_fail(self) -> int:
        return self.fail_videos.shape[0]


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise NonPositiveTemperatureError(f"tau must be > 0, got {tau}")


def _gather_blocks(blocks: dict, labels, width: int):
    """Each row's task block from a task -> (K_t, D) dict, zero-padded.

    Returns (tasks, rows, row_blocks (n, K, D), valid (n, K)): the distinct
    tasks, each row's index into them, and which of the K slots are real.
    """
    tasks, rows = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    for task in tasks.tolist():
        if task not in blocks:
            raise MissingFailureTextsError(f"task {task} has no failure-text features")
    arrays = [np.asarray(blocks[task], dtype=np.float64) for task in tasks.tolist()]
    counts = np.array([len(a) for a in arrays], dtype=np.int64)
    stack = np.zeros((len(arrays), counts.max(initial=0), width))
    for j, a in enumerate(arrays):
        stack[j, : len(a)] = a
    return tasks, rows, stack[rows], np.arange(stack.shape[1]) < counts[rows, None]


def _task_rows(vectors: dict, tasks, width: int) -> np.ndarray:
    """(T, D) stack of one vector per task."""
    return np.asarray([vectors[t] for t in tasks.tolist()], dtype=np.float64).reshape(len(tasks), width)


def _scatter_blocks(tasks, rows, contrib, like: dict) -> dict:
    """Sum per-row gradients (n, ...) into a task -> array dict shaped like `like`."""
    summed = np.zeros((len(tasks),) + contrib.shape[1:])
    np.add.at(summed, rows, contrib)
    out = {t: np.zeros(np.shape(v)) for t, v in like.items()}
    for j, task in enumerate(tasks.tolist()):
        out[task] += summed[j, : len(out[task])]
    return out


def cross_domain_loss(videos, labels, tau: float, exclude_anchor: bool = False):
    """Supervised contrastive loss over the pooled success batch.

    Returns (value, d_videos).
    """
    videos = np.asarray(videos, dtype=np.float64)
    labels = np.asarray(labels)
    _check_tau(tau)
    logits = (videos @ videos.T) / tau
    pos = labels[:, None] == labels[None, :]
    z = logits
    if exclude_anchor:
        np.fill_diagonal(pos, False)
        z = logits.copy()
        np.fill_diagonal(z, -np.inf)
    n_pos = pos.sum(axis=1)
    if np.any(n_pos == 0):
        raise EmptyPositiveSetError(f"anchor {int(np.argmin(n_pos))} has no positive sample")
    target = pos / n_pos[:, None]
    total = float(np.sum(logsumexp(z) - np.sum(target * logits, axis=1)))
    grad_s = (softmax(z) - target) / tau
    return total, (grad_s + grad_s.T) @ videos


def video_text_loss(videos, texts, labels, tau: float, failure_texts=None):
    """Bidirectional clip<->text InfoNCE; failure features join the
    video->text denominators when given.

    Returns (value, grads) with grads keys "videos", "texts", and
    (when failure_texts is given) "fail_texts" as task -> (K, D).
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    labels = np.asarray(labels)
    if videos.shape != texts.shape:
        raise ShapeMismatchError("one text embedding per video is required")
    _check_tau(tau)
    b = videos.shape[0]
    logits = (videos @ texts.T) / tau            # [i, j] = v_i . t_j / tau
    z = logits
    if failure_texts is not None:
        tasks, rows, blocks, valid = _gather_blocks(failure_texts, labels, videos.shape[1])
        fail_logits = np.einsum("bd,bkd->bk", videos, blocks) / tau
        z = np.concatenate([logits, np.where(valid, fail_logits, -np.inf)], axis=1)
    total = float(np.sum(logsumexp(z) + logsumexp(logits.T)) - 2.0 * np.trace(logits))
    p = softmax(z)
    # d(loss)/d(v_i . t_j): video->text rows plus text->video columns
    d_sims = (p[:, :b] + softmax(logits.T).T - 2.0 * np.eye(b)) / tau
    grads = {"videos": d_sims @ texts, "texts": d_sims.T @ videos}
    if failure_texts is not None:
        d_fail = p[:, b:] / tau
        grads["videos"] += np.einsum("bk,bkd->bd", d_fail, blocks)
        grads["fail_texts"] = _scatter_blocks(
            tasks, rows, d_fail[:, :, None] * videos[:, None, :], failure_texts
        )
    return total, grads


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_loss(videos, texts, outcomes):
    """-sum_i [r log p + (1-r) log(1-p)] with p = sigmoid(v . t).

    Returns (value, grads) with keys "videos" and "texts".
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if videos.shape != texts.shape or outcomes.shape[0] != videos.shape[0]:
        raise ShapeMismatchError("videos, texts, outcomes must align")
    x = np.sum(videos * texts, axis=1)
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    value = float(np.sum(_softplus(np.where(outcomes > 0.5, -x, x))))
    dx = _sigmoid(x) - outcomes
    return value, {"videos": dx[:, None] * texts, "texts": dx[:, None] * videos}


def failure_prompt_loss(fail_videos, fail_labels, fail_clusters, task_texts, failure_texts, tau: float):
    """Contrast each failure clip against [success text; K failure features].

    The positive is the failure feature at the clip's assigned cluster k*.
    Returns (value, grads) with keys "fail_videos", "task_texts" (task ->
    (D,)), and "fail_texts" (task -> (K, D)).
    """
    fail_videos = np.asarray(fail_videos, dtype=np.float64)
    fail_clusters = np.asarray(fail_clusters, dtype=np.int64)
    _check_tau(tau)
    n, d = fail_videos.shape
    tasks, rows, blocks, valid = _gather_blocks(failure_texts, fail_labels, d)
    k_rows = valid.sum(axis=1)
    bad = (fail_clusters < 0) | (fail_clusters >= k_rows)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise BadClusterIndexError(f"k*={fail_clusters[i]} outside [0, {k_rows[i]})")
    texts = _task_rows(task_texts, tasks, d)[rows]
    fail_logits = np.where(valid, np.einsum("bd,bkd->bk", fail_videos, blocks), -np.inf)
    z = np.concatenate([np.sum(fail_videos * texts, axis=1, keepdims=True), fail_logits], axis=1) / tau
    idx, pos = np.arange(n), 1 + fail_clusters
    total = float(np.sum(logsumexp(z)) - np.sum(z[idx, pos]))
    coef = softmax(z)
    coef[idx, pos] -= 1.0
    coef /= tau
    return total, {
        "fail_videos": coef[:, :1] * texts + np.einsum("bk,bkd->bd", coef[:, 1:], blocks),
        "task_texts": _scatter_blocks(tasks, rows, coef[:, :1] * fail_videos, task_texts),
        "fail_texts": _scatter_blocks(
            tasks, rows, coef[:, 1:, None] * fail_videos[:, None, :], failure_texts
        ),
    }


def _accumulate(target: dict, grads: dict, weight: float) -> None:
    for key, val in grads.items():
        if isinstance(val, dict):
            slot = target.setdefault(key, {})
            for sub, arr in val.items():
                if sub in slot:
                    slot[sub] = slot[sub] + weight * arr
                else:
                    slot[sub] = weight * arr
        else:
            if key in target:
                target[key] = target[key] + weight * val
            else:
                target[key] = weight * val


def total_loss(
    batch: Batch,
    task_texts=None,
    failure_texts=None,
    mode: str = "fvlc",
    weights=(1.0, 1.0, 1.0),
    exclude_anchor: bool = False,
):
    """Combined objective for one batch under the given training mode.

    no_failure: cross-domain + video-text.
    bce:        adds binary cross-entropy over robot successes + failures.
    fvlc:       adds failure negatives to video->text and the failure
                prompt contrast term.

    Returns (value, grads, components). Unit weights by default.
    """
    if mode not in MODES:
        raise BadConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if batch.n_human < 1 or batch.n_robot < 1:
        raise EmptyPositiveSetError("need at least one human and one robot success sample")

    w_cdc, w_vlc, w_extra = weights
    grads: dict = {}
    components: dict = {}

    cdc_val, cdc_grad = cross_domain_loss(
        batch.videos, batch.labels, batch.tau, exclude_anchor=exclude_anchor
    )
    components["cross_domain"] = cdc_val
    _accumulate(grads, {"videos": cdc_grad}, w_cdc)

    vlc_fail = failure_texts if mode == "fvlc" else None
    vlc_val, vlc_grads = video_text_loss(
        batch.videos, batch.texts, batch.labels, batch.tau, failure_texts=vlc_fail
    )
    components["video_text"] = vlc_val
    _accumulate(grads, vlc_grads, w_vlc)

    extra_val = 0.0
    if mode == "bce":
        robot = batch.domains == ROBOT
        n_r = int(robot.sum())
        d = batch.videos.shape[1]
        tasks, rows = np.unique(batch.fail_labels, return_inverse=True)
        fail_texts = _task_rows(task_texts, tasks, d)
        videos = np.concatenate([batch.videos[robot], batch.fail_videos])
        texts = np.concatenate([batch.texts[robot], fail_texts[rows]])
        outcomes = np.concatenate([np.ones(n_r), np.zeros(batch.n_fail)])
        extra_val, bce_grads = bce_loss(videos, texts, outcomes)
        d_videos = np.zeros_like(batch.videos)
        d_videos[robot] = bce_grads["videos"][:n_r]
        d_texts = np.zeros_like(batch.texts)
        d_texts[robot] = bce_grads["texts"][:n_r]
        _accumulate(
            grads,
            {
                "videos": d_videos,
                "texts": d_texts,
                "fail_videos": bce_grads["videos"][n_r:],
                "task_texts": _scatter_blocks(
                    tasks, rows, bce_grads["texts"][n_r:], dict(zip(tasks.tolist(), fail_texts))
                ),
            },
            w_extra,
        )
        components["bce"] = extra_val
    elif mode == "fvlc":
        extra_val, fp_grads = failure_prompt_loss(
            batch.fail_videos,
            batch.fail_labels,
            batch.fail_clusters,
            task_texts,
            failure_texts,
            batch.tau,
        )
        _accumulate(grads, fp_grads, w_extra)
        components["failure_prompt"] = extra_val

    value = w_cdc * cdc_val + w_vlc * vlc_val + w_extra * extra_val
    components["total"] = value
    return value, grads, components
