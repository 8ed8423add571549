"""Batch sampling and the training loop with end-of-epoch clustering.

The dataset is stacked once per run into one (N, L, F) frames array with
a (N,) task column and the row indices of the human clips, the robot
successes and the robot failures. Failure rows are ordered by task, then
dataset order; each task owns a slice of them and of the flat array of
failure pseudo-labels. Success rows are also kept in blocks, one per
(stratum, task) with human successes before robot successes, so the
sampler can draw a batch's task make-up before its rows.

The sampler draws uniformly among the valid success batches: those in
which no task appears exactly once, so every success clip has a
same-task positive. It tests 32 candidate task make-ups per Generator
call, then picks each block's rows uniformly; failure rows are a plain
uniform draw.

Per step: draw rows, encode the batch's frames as one row array in the
sampler's order (human successes, robot successes, robot failures),
compose the (T_p, K, D) failure features of every pooled task and
cluster in one pass, evaluate the mode's total loss on those rows (one
(N, D) gradient of the clip embeddings, zero on rows the mode does not
read, and one of the failure features), backprop by hand through the
encoders and the prompt composition into one list of (parameter,
gradient, learning rate) triples, clip its global gradient norm, and
apply plain gradient descent (prompts get their own learning rate). A
non-finite loss or gradient norm stops training with NonFiniteValueError
before the update. In failure-prompt mode, `_recluster` clusters each
task's failure clips under the current encoder before the first epoch
and at every epoch's end, aligns the clusters to the task's previous
ones if any, and writes the task's slice of the pseudo-labels.

Rng streams are separated per concern so, e.g., all modes share the same
encoder initialization under one seed.
"""

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import clustering as cl, encoders as enc, losses
from .config import ExperimentConfig
from .datagen import Dataset
from .errors import (
    CorruptFileError, InsufficientStratumError, NonFiniteValueError, TooFewSamplesError,
)
from .simworld import TASK_NAMES

_STREAM_VIDEO, _STREAM_POOL, _STREAM_SAMPLER, _STREAM_CLUSTER = 1, 2, 3, 4
# candidate batches tested before the positive-pair rule counts as
# unsatisfiable, rounded up to a whole number of draws of _CANDIDATES. A cap
# this large only stops a rule that almost no batch meets; 100 candidates
# were too few (seed 308, no_failure, step 249 of a one-at-a-time sampler).
_MAX_BATCH_TRIES = 10_000
# candidate task make-ups per Generator call. At the default strata about
# one in 8.5 is valid, so the first draw holds a valid one ~98% of the time.
_CANDIDATES = 32


@dataclass
class ModelParams:
    video: enc.VideoEncoderParams
    pool: enc.FailurePromptPool | None
    texts: np.ndarray   # (T, D) frozen task texts, read-only


class _IndexedData:
    """The dataset as one stacked frames array and the row indices the
    sampler draws from, built once per training run."""

    def __init__(self, dataset: Dataset):
        clips = dataset.clips
        self.frames = dataset.frames_array() if clips else np.zeros((0,))
        self.tasks = np.array([c.task_id for c in clips], dtype=np.int64)
        human = np.array([c.domain == "human" for c in clips], dtype=bool)
        robot = np.array([c.domain == "robot" for c in clips], dtype=bool)
        success = np.array([c.success for c in clips], dtype=np.int64)
        self.human = np.flatnonzero(human)
        self.robot = np.flatnonzero(robot & (success == 1))
        # success rows in (stratum, task) blocks: human then robot, each by
        # task, then dataset order. Block stratum * n_tasks + task holds
        # block_counts[stratum, task] rows; every row knows its block and
        # its position in it.
        n_tasks = int(self.tasks.max(initial=-1)) + 1
        strata = [self.human, self.robot]
        self.block_counts = np.array(
            [np.bincount(self.tasks[part], minlength=n_tasks) for part in strata])
        sizes = self.block_counts.ravel()
        self.success = np.concatenate(
            [part[np.argsort(self.tasks[part], kind="stable")] for part in strata])
        self.success_block = np.repeat(np.arange(len(sizes)), sizes)
        # the sampler's sort key holds the block index above 53 key bits
        self.success_block_key = self.success_block << 53
        block_starts = np.cumsum(sizes) - sizes
        self.success_rank = np.arange(len(self.success)) - block_starts[self.success_block]
        fail = np.flatnonzero(robot & (success == 0))
        # the sampler's failure order: sorted task, then dataset order
        self.fail = fail[np.argsort(self.tasks[fail], kind="stable")]
        tasks, starts, counts = np.unique(
            self.tasks[self.fail], return_index=True, return_counts=True)
        # task -> its slice of self.fail (and of the pseudo-labels)
        self.fail_slices = {
            int(t): slice(int(a), int(a + n)) for t, a, n in zip(tasks, starts, counts)
        }


def sample_batch(
    data: _IndexedData,
    config: ExperimentConfig,
    rng: np.random.Generator,
    pseudo_labels: np.ndarray,
):
    """Uniform draw among the success batches in which every sample has a
    same-task partner, plus a uniform draw of failure rows.

    The per-task counts of a uniform subset of a stratum are multivariate
    hypergeometric, and validity depends on those counts alone. So each
    Generator call draws the counts of _CANDIDATES subsets per stratum, and
    the first candidate in which no task has one human plus robot success
    fixes how many rows each (stratum, task) block gives. One random key
    per success row and one sort by (block, key) then pick that many rows
    of each block uniformly without replacement.

    pseudo_labels holds one cluster per failure row of `data`. Returns
    (rows, fail_clusters): the batch's dataset rows in the encoder's order
    [human | robot | failure], the successes of each stratum grouped by
    task, and the failure rows' pseudo-labels.
    """
    n_h, n_r = len(data.human), len(data.robot)
    if n_h < config.batch_human or n_r < config.batch_robot:
        raise InsufficientStratumError(
            f"need {config.batch_human} human / {config.batch_robot} robot successes, "
            f"have {n_h} / {n_r}"
        )
    for _ in range(math.ceil(_MAX_BATCH_TRIES / _CANDIDATES)):
        human = rng.multivariate_hypergeometric(
            data.block_counts[0], config.batch_human, size=_CANDIDATES, method="count")
        robot = rng.multivariate_hypergeometric(
            data.block_counts[1], config.batch_robot, size=_CANDIDATES, method="count")
        has_single = (human + robot == 1).any(axis=1)
        first = has_single.argmin()
        if not has_single[first]:
            take = np.concatenate([human[first], robot[first]])
            break
    else:
        raise InsufficientStratumError("could not satisfy positive-set constraint")
    # random() keys are multiples of 2**-53: as 53-bit integers under the
    # block index they sort by (block, key) in one integer sort
    keys = (rng.random(len(data.success)) * 2.0**53).astype(np.int64)
    order = np.argsort(data.success_block_key | keys)
    b_s = config.batch_human + config.batch_robot
    b_f = 0 if config.mode == "no_failure" else config.batch_failure
    rows = np.empty(b_s + b_f, dtype=np.int64)
    rows[:b_s] = data.success[order[data.success_rank < take[data.success_block]]]

    picks = np.zeros(0, dtype=np.int64)
    if b_f:
        if len(data.fail) < b_f:
            raise InsufficientStratumError(f"need {b_f} failure clips, have {len(data.fail)}")
        picks = rng.choice(len(data.fail), size=b_f, replace=False)
        rows[b_s:] = data.fail[picks]
    return rows, pseudo_labels[picks]


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list                      # per-epoch records
    cluster_states: dict               # task -> ClusterState (final epoch)


def init_params(config: ExperimentConfig, pooled_tasks) -> ModelParams:
    video = enc.init_video_encoder(
        np.random.default_rng([config.seed, _STREAM_VIDEO]),
        frames=config.clip_frames,
        hidden=config.hidden_width,
        embed_dim=config.embed_dim,
    )
    pool = enc.init_prompt_pool(
        pooled_tasks,
        np.random.default_rng([config.seed, _STREAM_POOL]),
        k=config.k_clusters,
        prompt_len=config.prompt_len,
        embed_dim=config.embed_dim,
    ) if pooled_tasks else None
    texts = enc.task_texts(len(TASK_NAMES), embed_dim=config.embed_dim, seed=config.seed)
    return ModelParams(video=video, pool=pool, texts=texts)


def _recluster(params: ModelParams, data: _IndexedData, config: ExperimentConfig, epoch: int,
               states: dict, pseudo_labels: np.ndarray) -> list:
    """Re-embed each task's failure clips and run spherical k-means, aligned
    to the task's state in `states` when it has one so label k keeps one
    failure theme. Updates `states` and `pseudo_labels` in place; returns
    one record per task, in `data.fail_slices` order."""
    records = []
    for task, part in data.fail_slices.items():
        feats = enc.encode_clips(data.frames[data.fail[part]], params.video)
        seed = config.derived_seed(_STREAM_CLUSTER, epoch + 1, task)
        state = cl.spherical_kmeans(feats, k=config.k_clusters, seed=seed)
        if task in states:
            state = cl.relabel_state(state, cl.align_clusters(states[task].centers, state.centers))
        records.append({
            "task": task,
            "objective": state.objective,
            "churn": cl.label_churn(pseudo_labels[part], state.assignments),
            "sizes": np.bincount(state.assignments, minlength=config.k_clusters).tolist(),
        })
        states[task] = state
        pseudo_labels[part] = state.assignments
    return records


def train(config: ExperimentConfig, dataset: Dataset) -> TrainResult:
    data = _IndexedData(dataset)
    fvlc = config.mode == "fvlc"
    if fvlc:
        for task, part in data.fail_slices.items():
            if part.stop - part.start < config.k_clusters:
                raise TooFewSamplesError(
                    f"task {task} has {part.stop - part.start} failure clips, "
                    f"fewer than k_clusters={config.k_clusters}"
                )
    params = init_params(config, list(data.fail_slices) if fvlc else [])
    sampler_rng = np.random.default_rng([config.seed, _STREAM_SAMPLER])

    # pseudo-labels of the failure rows; clustered before the first epoch
    # in failure-prompt mode, all zero (and unused by the losses) otherwise
    cluster_states = {}
    pseudo_labels = np.zeros(len(data.fail), dtype=np.int64)
    if fvlc:
        _recluster(params, data, config, -1, cluster_states, pseudo_labels)

    steps = config.steps_per_epoch or max(1, math.ceil(2 * len(data.human) / config.batch_human))
    texts = params.texts
    # failure features by task id; tasks without a prompt pool stay masked
    # and contribute no failure negatives
    fail_texts = np.zeros((len(texts), config.k_clusters, config.embed_dim))
    pooled = np.zeros(len(texts), dtype=bool)
    if params.pool is not None:
        pooled[params.pool.tasks] = True

    metrics = []
    for epoch in range(config.epochs):
        sums = {}
        for _ in range(steps):
            # one row array, [human | robot | failure], from the sampler
            # through the encoder and the loss and back
            rows, fail_clusters = sample_batch(data, config, sampler_rng, pseudo_labels)
            videos, video_cache = enc.encode_clips_cached(data.frames[rows], params.video)
            if params.pool is not None:
                feats, pool_cache = enc.failure_text_features(params.pool, params.texts)
                fail_texts[params.pool.tasks] = feats

            emb_batch = losses.Batch(
                videos, data.tasks[rows], config.batch_human, config.batch_robot,
                fail_clusters, config.tau,
            )
            value, grads, comps = losses.total_loss(
                emb_batch, texts, fail_texts, pooled, mode=config.mode
            )
            if not math.isfinite(value):
                raise NonFiniteValueError(f"epoch {epoch}: total loss is {value}")
            for key, v in comps.items():
                sums[key] = sums.get(key, 0.0) + v

            # backprop into (parameter, gradient, learning rate) triples; the
            # list's order is the order the norm sums in
            video_grads = enc.encode_clips_backward(video_cache, grads["videos"])
            update = [(param, grad, config.lr_encoder)
                      for param, grad in zip(params.video.arrays(), video_grads.arrays())]
            if params.pool is not None:
                d_prompts, d_proj, d_bias = enc.compose_failure_context_backward(
                    pool_cache, grads["fail_texts"][params.pool.tasks]
                )
                update += [(params.pool.proj, d_proj, config.lr_encoder),
                           (params.pool.bias, d_bias, config.lr_encoder),
                           (params.pool.prompts, d_prompts, config.lr_prompts)]

            # global norm clip, then one plain gradient step
            norm = math.sqrt(sum(float((grad * grad).sum()) for _, grad, _ in update))
            if not math.isfinite(norm):
                raise NonFiniteValueError(f"epoch {epoch}: gradient norm is {norm}")
            scale = min(1.0, config.grad_clip / norm) if norm > 0 else 1.0
            for param, grad, lr in update:
                param -= lr * scale * grad

        record = {"epoch": epoch, "steps": steps}
        for key in sorted(sums):
            record[f"loss_{key}"] = sums[key] / steps
        if fvlc:
            record["clusters"] = _recluster(params, data, config, epoch, cluster_states, pseudo_labels)
        metrics.append(record)

    return TrainResult(params=params, metrics=metrics, cluster_states=cluster_states)


# --- checkpoint mapping ---

def params_to_arrays(params: ModelParams) -> dict:
    """Flat name -> array map: video.{field}, pool.proj, pool.bias,
    pool.prompt.{task}.{k} ((prompt_len, D) each) and task.{task}.text."""
    out = {f"video.{f.name}": getattr(params.video, f.name) for f in dc_fields(params.video)}
    if params.pool is not None:
        out["pool.proj"] = params.pool.proj
        out["pool.bias"] = params.pool.bias
        for task, block in zip(params.pool.tasks.tolist(), params.pool.prompts):
            for k, prompt in enumerate(block):
                out[f"pool.prompt.{task}.{k}"] = prompt
    for task, text in enumerate(params.texts):
        out[f"task.{task}.text"] = text
    return out


# the axes of each checkpoint array, one letter per axis; the axes of one
# letter must have one length across the arrays. Each prompt is (P, D), P
# the prompt length, and each task text (D,).
_AXES = {
    "video.frame_proj": "FH", "video.frame_bias": "H", "video.temporal_logits": "LH",
    "video.out_proj": "HD", "video.out_bias": "D", "pool.proj": "DD", "pool.bias": "D",
}


def _array(arrays: dict, key: str) -> np.ndarray:
    if key not in arrays:
        raise CorruptFileError(f"checkpoint has no {key!r} array")
    return arrays[key]


def params_from_arrays(arrays: dict) -> ModelParams:
    """Inverse of params_to_arrays. The prompt keys must fill a full
    task x K grid, the task texts must be tasks 0..T-1 and vectors of one
    width, the arrays' shapes must agree as `_AXES` lays them out, and
    every array must be finite."""
    bad = [key for key, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        raise CorruptFileError(f"checkpoint arrays {bad} hold non-finite values")
    video = enc.VideoEncoderParams(
        *(_array(arrays, f"video.{f.name}") for f in dc_fields(enc.VideoEncoderParams))
    )
    prompts, texts = {}, {}
    for key, arr in arrays.items():
        parts = key.split(".")
        try:
            if key.startswith("pool.prompt."):
                prompts[int(parts[2]), int(parts[3])] = arr
            elif key.startswith("task."):
                texts[int(parts[1])] = arr
        except (ValueError, IndexError) as exc:
            raise CorruptFileError(f"malformed checkpoint key {key!r}") from exc
    if sorted(texts) != list(range(len(texts))):
        raise CorruptFileError(f"task text ids {sorted(texts)} are not 0..T-1")
    shapes = sorted({np.shape(text) for text in texts.values()})
    if len(shapes) != 1 or len(shapes[0]) != 1:
        raise CorruptFileError(f"task texts must be vectors of one width, got shapes {shapes}")
    dims = {}  # axis -> (its length, the first array that has it)
    for key, arr in arrays.items():
        axes = ("PD" if key.startswith("pool.prompt.") else "D" if key.startswith("task.")
                else _AXES.get(key))
        if axes is None:  # a key no parameter reads
            continue
        shape = np.shape(arr)
        misfit = f"checkpoint array {key!r} of shape {shape} does not fit ({', '.join(axes)})"
        if len(shape) != len(axes):
            raise CorruptFileError(misfit)
        for a, n in zip(axes, shape):
            m, first = dims.setdefault(a, (n, key))
            if m != n:
                raise CorruptFileError(f"{misfit}: {a} = {m} in {first!r}")
    pool = None
    if prompts:
        tasks = sorted({task for task, _ in prompts})
        k = 1 + max(j for _, j in prompts)
        if set(prompts) != {(task, j) for task in tasks for j in range(k)}:
            raise CorruptFileError(
                f"prompt keys {sorted(prompts)} do not fill a tasks {tasks} x {k} cluster grid"
            )
        pool = enc.FailurePromptPool(
            tasks=np.array(tasks, dtype=np.int64),
            prompts=np.array([[prompts[task, j] for j in range(k)] for task in tasks]),
            proj=_array(arrays, "pool.proj"),
            bias=_array(arrays, "pool.bias"),
        )
    stacked = np.array([texts[task] for task in range(len(texts))], dtype=np.float64)
    stacked.setflags(write=False)
    return ModelParams(video=video, pool=pool, texts=stacked)
