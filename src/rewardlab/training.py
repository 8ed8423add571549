"""Batch sampling and the training loop with end-of-epoch clustering.

Per step: sample a stratified clip batch from arrays stacked once per
run, encode, compose the (T_p, K, D) failure features of every pooled
task and cluster in one batched pass, evaluate the mode's total loss,
backprop by hand through the encoders and, in one call, through the
prompt composition, clip the global gradient norm, and apply plain
gradient descent (prompts get their own learning rate, applied to the
whole (T_p, K, prompt_len, D) pool at once). Task texts and failure
features reach the losses as arrays indexed by task id. A non-finite loss
stops training with NonFiniteValueError. In failure-prompt mode, every
epoch ends by re-embedding all failure clips with the current encoder,
re-clustering per task, aligning the clusters to the previous epoch, and
refreshing pseudo-labels.

Rng streams are separated per concern so, e.g., all modes share the same
encoder initialization under one seed.
"""

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import clustering as cl, encoders as enc, losses, render
from .config import ExperimentConfig
from .datagen import Dataset
from .errors import CorruptFileError, InsufficientStratumError, NonFiniteValueError
from .simworld import TASK_NAMES

_STREAM_VIDEO, _STREAM_POOL, _STREAM_SAMPLER, _STREAM_CLUSTER = 1, 2, 3, 4
# rejection tries per batch before the positive-pair rule counts as
# unsatisfiable. At the default strata about one try in 8.5 is accepted, so
# a feasible draw fails this cap with probability ~1e-543; 100 tries failed
# about once in 2e5 batches (seed 308, no_failure, step 249).
_MAX_BATCH_TRIES = 10_000


@dataclass
class ModelParams:
    video: enc.VideoEncoderParams
    pool: enc.FailurePromptPool | None
    table: enc.TaskTable


@dataclass
class ClipBatch:
    clips: np.ndarray          # (B, L, F)
    labels: np.ndarray
    domains: np.ndarray
    fail_clips: np.ndarray     # (Bf, L, F)
    fail_labels: np.ndarray
    fail_clusters: np.ndarray


class _IndexedData:
    """Dataset views the sampler draws from, stacked once per training run."""

    def __init__(self, dataset: Dataset, config: ExperimentConfig):
        human = dataset.subset("human")
        robot_success = dataset.subset("robot", success=1)
        self.human_frames = dataset.frames_array(human) if human else np.zeros((0,))
        self.human_labels = np.array([c.task_id for c in human], dtype=np.int64)
        self.robot_frames = dataset.frames_array(robot_success) if robot_success else np.zeros((0,))
        self.robot_labels = np.array([c.task_id for c in robot_success], dtype=np.int64)
        self.fail_clips_by_task = {}
        for task in sorted({c.task_id for c in dataset.subset("robot", success=0)}):
            clips = dataset.subset("robot", task_id=task, success=0)
            self.fail_clips_by_task[task] = dataset.frames_array(clips)
        # every failure clip as (task, index within task): the order the
        # sampler's failure draws index
        flat = [(t, i) for t in self.fail_tasks for i in range(len(self.fail_clips_by_task[t]))]
        self.fail_task, self.fail_index = np.array(flat, dtype=np.int64).reshape(-1, 2).T
        self.fail_frames = np.concatenate(
            [self.fail_clips_by_task[t] for t in self.fail_tasks]
        ) if flat else np.zeros((0, config.clip_frames, render.FRAME_WIDTH))

    @property
    def fail_tasks(self):
        return sorted(self.fail_clips_by_task)


def sample_batch(
    data: _IndexedData,
    config: ExperimentConfig,
    rng: np.random.Generator,
    pseudo_labels: dict,
) -> ClipBatch:
    """Stratified draw with every success sample guaranteed a same-task partner."""
    n_h, n_r = len(data.human_labels), len(data.robot_labels)
    if n_h < config.batch_human or n_r < config.batch_robot:
        raise InsufficientStratumError(
            f"need {config.batch_human} human / {config.batch_robot} robot successes, "
            f"have {n_h} / {n_r}"
        )
    for _ in range(_MAX_BATCH_TRIES):
        h_idx = rng.choice(n_h, size=config.batch_human, replace=False)
        r_idx = rng.choice(n_r, size=config.batch_robot, replace=False)
        labels = np.concatenate([data.human_labels[h_idx], data.robot_labels[r_idx]])
        if not np.any(np.bincount(labels) == 1):
            break
    else:
        raise InsufficientStratumError("could not satisfy positive-set constraint")

    clips = np.concatenate([data.human_frames[h_idx], data.robot_frames[r_idx]])
    domains = np.repeat([losses.HUMAN, losses.ROBOT], [config.batch_human, config.batch_robot])

    b_f = 0 if config.mode == "no_failure" else config.batch_failure
    picks = np.zeros(0, dtype=np.int64)
    if b_f:
        if len(data.fail_task) < b_f:
            raise InsufficientStratumError(f"need {b_f} failure clips, have {len(data.fail_task)}")
        picks = rng.choice(len(data.fail_task), size=b_f, replace=False)
    fail_labels = data.fail_task[picks]
    fail_clusters = np.zeros(len(picks), dtype=np.int64)
    for task, plabels in pseudo_labels.items():
        hit = fail_labels == task
        fail_clusters[hit] = plabels[data.fail_index[picks[hit]]]
    return ClipBatch(
        clips=clips,
        labels=labels,
        domains=domains,
        fail_clips=data.fail_frames[picks],
        fail_labels=fail_labels,
        fail_clusters=fail_clusters,
    )


def _global_grad_norm(arrays) -> float:
    return math.sqrt(sum(float(np.sum(a * a)) for a in arrays))


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list                      # per-epoch records
    cluster_states: dict               # task -> ClusterState (final epoch)
    initial_loss: float
    final_loss: float


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
    table = enc.TaskTable.build(len(TASK_NAMES), embed_dim=config.embed_dim, seed=config.seed)
    return ModelParams(video=video, pool=pool, table=table)


def _cluster_failures(params: ModelParams, data: _IndexedData, config: ExperimentConfig, epoch: int):
    """Re-embed failure clips per task and run spherical k-means."""
    states = {}
    for task in data.fail_tasks:
        feats = enc.encode_clips(data.fail_clips_by_task[task], params.video)
        seed = int(np.random.SeedSequence(
            [config.seed, _STREAM_CLUSTER, epoch + 1, task]
        ).generate_state(1, np.uint64)[0] % (2**31))
        states[task] = cl.spherical_kmeans(
            feats, k=config.k_clusters, seed=seed, task_id=task
        )
    return states


def train(config: ExperimentConfig, dataset: Dataset) -> TrainResult:
    data = _IndexedData(dataset, config)
    pooled_tasks = data.fail_tasks if config.mode == "fvlc" else []
    params = init_params(config, pooled_tasks)
    sampler_rng = np.random.default_rng([config.seed, _STREAM_SAMPLER])

    # pseudo-labels before the first epoch (failure-prompt mode only)
    cluster_states = {}
    pseudo_labels = {}
    if config.mode == "fvlc":
        cluster_states = _cluster_failures(params, data, config, epoch=-1)
        pseudo_labels = {t: s.assignments for t, s in cluster_states.items()}

    steps = config.steps_per_epoch or max(1, math.ceil(2 * len(data.human_labels) / config.batch_human))
    texts = params.table.texts
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
            batch = sample_batch(data, config, sampler_rng, pseudo_labels)
            # success and failure clips go through the encoder together
            n_success = len(batch.labels)
            videos, video_cache = enc.encode_clips_cached(
                np.concatenate([batch.clips, batch.fail_clips]), params.video
            )
            if params.pool is not None:
                feats, pool_cache = enc.failure_text_features(params.pool, params.table)
                fail_texts[params.pool.tasks] = feats

            emb_batch = losses.Batch(
                videos=videos[:n_success],
                labels=batch.labels,
                domains=batch.domains,
                texts=texts[batch.labels],
                fail_videos=videos[n_success:],
                fail_labels=batch.fail_labels,
                fail_clusters=batch.fail_clusters,
                tau=config.tau,
            )
            value, grads, comps = losses.total_loss(
                emb_batch, texts, fail_texts, pooled,
                mode=config.mode, exclude_anchor=config.exclude_anchor,
            )
            if not np.isfinite(value):
                raise NonFiniteValueError(f"epoch {epoch}: total loss is {value}")
            for key, v in comps.items():
                sums[key] = sums.get(key, 0.0) + v

            # backprop into the trainable parameters
            d_fail_videos = grads.get("fail_videos", np.zeros_like(videos[n_success:]))
            video_grads = enc.encode_clips_backward(
                video_cache, np.concatenate([grads["videos"], d_fail_videos])
            )
            all_grads = list(video_grads.arrays())
            if params.pool is not None:
                d_prompts, d_proj, d_bias = enc.compose_failure_context_backward(
                    pool_cache, grads["fail_texts"][params.pool.tasks]
                )
                all_grads += [d_proj, d_bias, d_prompts]

            # global norm clip, then per-group step
            norm = _global_grad_norm(all_grads)
            scale = min(1.0, config.grad_clip / norm) if norm > 0 else 1.0
            for param, grad in zip(params.video.arrays(), video_grads.arrays()):
                param[...] -= config.lr_encoder * scale * grad
            if params.pool is not None:
                params.pool.proj[...] -= config.lr_encoder * scale * d_proj
                params.pool.bias[...] -= config.lr_encoder * scale * d_bias
                params.pool.prompts -= config.lr_prompts * scale * d_prompts

        record = {"epoch": epoch, "steps": steps}
        for key in sorted(sums):
            record[f"loss_{key}"] = sums[key] / steps
        if config.mode == "fvlc":
            new_states = _cluster_failures(params, data, config, epoch=epoch)
            cluster_info = []
            for task in data.fail_tasks:
                state = new_states[task]
                if task in cluster_states:
                    pi = cl.align_clusters(cluster_states[task].centers, state.centers)
                    state = cl.relabel_state(state, pi)
                churn = cl.label_churn(pseudo_labels[task], state.assignments) \
                    if task in pseudo_labels else 1.0
                sizes = np.bincount(state.assignments, minlength=config.k_clusters)
                cluster_info.append({
                    "task": task,
                    "objective": state.objective,
                    "churn": churn,
                    "sizes": sizes.tolist(),
                })
                cluster_states[task] = state
                pseudo_labels[task] = state.assignments
            record["clusters"] = cluster_info
        metrics.append(record)

    return TrainResult(
        params=params,
        metrics=metrics,
        cluster_states=cluster_states,
        initial_loss=metrics[0]["loss_total"] if metrics else 0.0,
        final_loss=metrics[-1]["loss_total"] if metrics else 0.0,
    )


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
    for task, text in enumerate(params.table.texts):
        out[f"task.{task}.text"] = text
    return out


def params_from_arrays(arrays: dict) -> ModelParams:
    """Inverse of params_to_arrays. The prompt keys must fill a full
    task x K grid and the task texts must be tasks 0..T-1."""
    video = enc.VideoEncoderParams(
        *(arrays[f"video.{f.name}"] for f in dc_fields(enc.VideoEncoderParams))
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
            proj=arrays["pool.proj"],
            bias=arrays["pool.bias"],
        )
    if sorted(texts) != list(range(len(texts))):
        raise CorruptFileError(f"task text ids {sorted(texts)} are not 0..T-1")
    table = enc.TaskTable([texts[task] for task in range(len(texts))])
    return ModelParams(video=video, pool=pool, table=table)
