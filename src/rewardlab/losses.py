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

* cross_domain_loss: supervised contrastive pull between same-task clips
  across the human and robot domains, the target spread over each row's
  same-task positives. It has one form: each anchor counts among its own
  positives and in its denominator (SupCon, arXiv 2004.11362, excludes it
  from both).
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
gradient for them: gradients cover the clip embeddings and the failure
features ("fail_texts"), which the training step backprops into the
encoder and the prompt pool. `total_loss` takes the encoder's rows,
[human successes | robot successes | robot failures], and returns one
(N, D) gradient for them. Per-task inputs are arrays indexed by task id:
texts (T, D), failure features (T, K, D) and a (T,) mask of the tasks
with a prompt pool; per-row feature gradients are summed back into
(T, K, D) with np.add.at. Gradients are hand-derived and checked against
central differences in the test suite.

There is one path per term and one rule per bad input, whatever the entry
point: ShapeMismatchError for an array of the wrong shape (a failure table
of another task count than the text table included), UnknownTaskError for
a task label outside [0, T), and MissingFailureTextsError only for fvlc
mode without failure features and for a failure row whose task has no
prompt pool. Each public loss checks its own inputs; `total_loss` calls
each term its mode uses once, through the public function, and checks only
what no term knows: the mode, the two strata, every row's task label and,
in fvlc mode, one failure block per task.
"""

import math
from dataclasses import dataclass

import numpy as np

# logsumexp and softmax stay importable here: the benchmark's layer table
# traces `losses.logsumexp` and `losses.softmax`.
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


@dataclass
class Batch:
    """Embedding-level training batch, one row per clip in the encoder's
    order: n_human human successes, n_robot robot successes, then the
    robot failures."""

    videos: np.ndarray         # (N, D) clip embeddings
    labels: np.ndarray         # (N,) task ids
    n_human: int
    n_robot: int
    fail_clusters: np.ndarray  # (N - n_human - n_robot,) assigned pseudo-label k*
    tau: float

    def __post_init__(self):
        """Converts the arrays; ShapeMismatchError unless they have the
        shapes above and the counts are non-negative."""
        self.videos = np.asarray(self.videos, dtype=np.float64)
        if self.videos.ndim != 2:
            raise ShapeMismatchError(f"videos of shape {self.videos.shape}, expected (N, D)")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.fail_clusters = np.asarray(self.fail_clusters, dtype=np.int64)
        n = self.videos.shape[0]
        n_fail = n - self.n_human - self.n_robot
        if (self.labels.shape != (n,) or self.n_human < 0 or self.n_robot < 0
                or self.fail_clusters.shape != (n_fail,)):
            raise ShapeMismatchError(
                f"labels {self.labels.shape}, n_human {self.n_human}, n_robot {self.n_robot}"
                f" and fail_clusters {self.fail_clusters.shape} for {n} rows, expected"
                " (N,), two counts >= 0 and (N - n_human - n_robot,)"
            )
        _check_tau(self.tau)


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise NonPositiveTemperatureError(f"tau must be > 0, got {tau}")


def _rows(per_task, labels):
    """per_task[labels] for a task-indexed array and int labels; a label
    outside [0, T) raises UnknownTaskError."""
    if ((labels < 0) | (labels >= len(per_task))).any():
        raise UnknownTaskError(
            f"task labels {sorted(set(labels.tolist()))} outside [0, {len(per_task)})")
    return per_task[labels]


def _pool_mask(pooled, n_tasks):
    """The (T,) mask of tasks that have a prompt pool (all of them when
    pooled is None); callers mask the other rows' failure logits."""
    if pooled is None:
        return np.ones(n_tasks, dtype=bool)
    pooled = np.asarray(pooled, dtype=bool)
    if pooled.shape != (n_tasks,):
        raise ShapeMismatchError(f"pooled mask of shape {pooled.shape} for {n_tasks} tasks")
    return pooled


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


def cross_domain_loss(videos, labels, tau: float):
    """Supervised contrastive loss over the pooled success batch: videos
    (B, D), labels (B,). Each anchor is one of its own positives, so only a
    label unequal to itself (NaN) leaves a row without one, which raises
    EmptyPositiveSetError.

    Returns (value, d_videos).
    """
    videos = np.asarray(videos, dtype=np.float64)
    labels = np.asarray(labels)
    if videos.ndim != 2 or labels.shape != videos.shape[:1]:
        raise ShapeMismatchError(f"videos {videos.shape}, labels {labels.shape}: need (B, D), (B,)")
    _check_tau(tau)
    logits = (videos @ videos.T) / tau
    pos = labels[:, None] == labels[None, :]
    n_pos = pos.sum(axis=1)
    if (n_pos == 0).any():
        raise EmptyPositiveSetError(f"anchor {int(np.argmin(n_pos))} has no positive sample")
    target = pos / n_pos[:, None]
    total, p = _info_nce(logits, target, None)
    grad_s = (p - target) / tau
    return total, (grad_s + grad_s.T) @ videos


def video_text_loss(videos, texts, labels, tau: float, failure_texts=None, pooled=None):
    """Bidirectional clip<->text InfoNCE; failure features join the
    video->text denominators when given.

    videos and texts, the frozen task texts of the rows, are (B, D) and
    labels (B,). failure_texts is (T, K, D), indexed by task id, and a label
    outside [0, T) raises UnknownTaskError; pooled is the (T,) mask of tasks
    that have a prompt pool (all of them when None).
    Returns (value, grads) with grads keys "videos" and (when
    failure_texts is given) "fail_texts" (T, K, D).
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if videos.ndim != 2 or texts.shape != videos.shape or labels.shape != videos.shape[:1]:
        raise ShapeMismatchError(
            f"videos {videos.shape}, texts {texts.shape} and labels {labels.shape},"
            " expected (B, D), (B, D) and (B,)"
        )
    _check_tau(tau)
    b = videos.shape[0]
    logits = (videos @ texts.T) / tau            # [i, j] = v_i . t_j / tau
    v2t, keep = logits, None
    if failure_texts is not None:
        failure_texts = np.asarray(failure_texts, dtype=np.float64)
        if failure_texts.shape[2:] != videos.shape[1:]:
            raise ShapeMismatchError(
                f"failure features {failure_texts.shape}, need (T, K, {videos.shape[1]})"
            )
        blocks = _rows(failure_texts, labels)
        has_pool = _pool_mask(pooled, len(failure_texts))[labels]
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
    the frozen texts; videos and texts are (B, D), outcomes (B,).

    Returns (value, d_videos).
    """
    videos = np.asarray(videos, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if videos.ndim != 2 or texts.shape != videos.shape or outcomes.shape != videos.shape[:1]:
        raise ShapeMismatchError(
            f"videos {videos.shape}, texts {texts.shape} and outcomes {outcomes.shape},"
            " expected (B, D), (B, D) and (B,)"
        )
    x = (videos * texts).sum(axis=1)
    # -log sigmoid(x) = softplus(-x); -log(1 - sigmoid(x)) = softplus(x)
    value = float((outcomes * _softplus(-x) + (1.0 - outcomes) * _softplus(x)).sum())
    return value, (sigmoid(x) - outcomes)[:, None] * texts


def failure_prompt_loss(
    fail_videos, fail_labels, fail_clusters, task_texts, failure_texts, tau: float, pooled=None
):
    """Contrast each failure clip against [success text; K failure features].

    fail_videos is (Bf, D), fail_labels and fail_clusters (Bf,). task_texts
    is the frozen (T, D) text table and failure_texts (T, K, D), one block
    per task (else ShapeMismatchError), both indexed by task id; a label
    outside [0, T) raises UnknownTaskError. pooled is the (T,) mask of tasks
    that have a prompt pool (all of them when None); a failure row whose
    task has none raises MissingFailureTextsError. The positive is the
    failure feature at the clip's assigned cluster k*.
    Returns (value, grads) with keys "fail_videos" and "fail_texts" (T, K, D).
    """
    fail_videos = np.asarray(fail_videos, dtype=np.float64)
    fail_labels = np.asarray(fail_labels, dtype=np.int64)
    fail_clusters = np.asarray(fail_clusters, dtype=np.int64)
    task_texts = np.asarray(task_texts, dtype=np.float64)
    failure_texts = np.asarray(failure_texts, dtype=np.float64)
    width = fail_videos.shape[1:]
    if (fail_videos.ndim != 2 or fail_labels.shape != fail_videos.shape[:1]
            or fail_clusters.shape != fail_labels.shape
            or task_texts.shape[1:] != width or failure_texts.shape[2:] != width
            or len(failure_texts) != len(task_texts)):
        raise ShapeMismatchError(
            f"fail_videos {fail_videos.shape}, fail_labels {fail_labels.shape}, fail_clusters"
            f" {fail_clusters.shape}, task_texts {task_texts.shape}, failure_texts"
            f" {failure_texts.shape}, expected (Bf, D), (Bf,), (Bf,), (T, D) and (T, K, D)"
        )
    _check_tau(tau)
    texts, blocks = _rows(task_texts, fail_labels), failure_texts[fail_labels]
    if not _pool_mask(pooled, len(task_texts))[fail_labels].all():
        raise MissingFailureTextsError("a failure row's task has no prompt pool")
    k = failure_texts.shape[1]
    bad = (fail_clusters < 0) | (fail_clusters >= k)
    if bad.any():
        raise BadClusterIndexError(f"k*={fail_clusters[np.argmax(bad)]} outside [0, {k})")
    n = fail_videos.shape[0]
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


def total_loss(batch: Batch, task_texts, failure_texts=None, pooled=None, mode: str = "fvlc"):
    """Combined objective for one batch under the given training mode: the
    sum, with unit weights, of the public terms below, each called once.

    no_failure: cross-domain + video-text.
    bce:        adds binary cross-entropy over robot successes + failures.
    fvlc:       adds failure negatives to video->text and the failure
                prompt contrast term.

    The success terms read rows [0, n_human + n_robot), bce every row from
    n_human on and the failure-prompt term the failure rows. task_texts is
    (T, D) and failure_texts (T, K, D), indexed by task id; each row's text
    is task_texts[label]. pooled is the (T,) mask of tasks that have a
    prompt pool. A label outside [0, T), on any row in any mode, raises
    UnknownTaskError. In fvlc mode failure_texts must be given (else
    MissingFailureTextsError) and hold one (K, D) block per task (else
    ShapeMismatchError); each term checks the rest of its inputs.
    Returns (value, grads, components); grads["videos"] is (N, D), zero on
    rows the mode does not read, and fvlc adds grads["fail_texts"].
    """
    if mode not in MODES:
        raise BadConfigError(f"mode must be one of {MODES}, got {mode!r}")
    n_human, n_success = batch.n_human, batch.n_human + batch.n_robot
    if n_human < 1 or batch.n_robot < 1:
        raise EmptyPositiveSetError("need at least one human and one robot success sample")
    task_texts = np.asarray(task_texts, dtype=np.float64)
    texts = _rows(task_texts, batch.labels)
    if mode != "fvlc":
        failure_texts = None
    elif failure_texts is None:
        raise MissingFailureTextsError("fvlc mode needs the (T, K, D) failure features")
    elif len(failure_texts) != len(task_texts):
        raise ShapeMismatchError(
            f"failure features for {len(failure_texts)} tasks, task texts for {len(task_texts)}"
        )

    videos, labels = batch.videos[:n_success], batch.labels[:n_success]
    cdc_val, cdc_grad = cross_domain_loss(videos, labels, batch.tau)
    vlc_val, grads = video_text_loss(
        videos, texts[:n_success], labels, batch.tau, failure_texts, pooled
    )
    d_videos = np.zeros_like(batch.videos)
    d_videos[:n_success] = cdc_grad + grads["videos"]
    grads["videos"] = d_videos
    components = {"cross_domain": cdc_val, "video_text": vlc_val}
    extra_val = 0.0
    if mode == "bce":
        outcomes = np.repeat([1.0, 0.0], [batch.n_robot, len(batch.fail_clusters)])
        extra_val, d_bce = bce_loss(batch.videos[n_human:], texts[n_human:], outcomes)
        d_videos[n_human:] += d_bce
        components["bce"] = extra_val
    elif mode == "fvlc":
        extra_val, fp_grads = failure_prompt_loss(
            batch.videos[n_success:], batch.labels[n_success:], batch.fail_clusters,
            task_texts, failure_texts, batch.tau, pooled,
        )
        grads["fail_texts"] = grads["fail_texts"] + fp_grads["fail_texts"]
        d_videos[n_success:] = fp_grads["fail_videos"]
        components["failure_prompt"] = extra_val

    value = cdc_val + vlc_val + extra_val
    components["total"] = value
    return value, grads, components
