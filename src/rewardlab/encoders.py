"""Trainable video encoder, frozen task texts, failure prompt pool.

The video encoder is small enough for cheap finite-difference checks:
per-frame linear projection -> tanh -> learned softmax-weighted temporal
average -> linear -> l2 normalization. Backward passes are written by hand
and validated against central differences.

Task text embeddings stand in for a frozen language encoder: one seeded
unit Gaussian vector per task, stored as a plain read-only (T, D) array
whose row t is task t (`task_texts`).

The failure prompt pool holds one trainable (prompt_len, D) block per
(pooled task, cluster) in a single (T_p, K, prompt_len, D) array. A
context's feature is the token-mean of [prompt; task text] through a
shared trainable linear map, then normalized, so the feature stays
differentiable in the prompt while the text stays frozen. A training step
composes (and backprops) all T_p * K contexts in one call.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import l2_normalize
from .errors import (
    BadClusterIndexError,
    ShapeMismatchError,
    UnknownTaskError,
    ZeroVectorError,
)
from .render import FRAME_WIDTH

PROMPT_SCALE = 0.5  # std of the initial prompt entries

_TEXT_STREAM = 101  # rng stream tag for frozen text embeddings


@dataclass
class VideoEncoderParams:
    frame_proj: np.ndarray      # (F, H)
    frame_bias: np.ndarray      # (H,)
    temporal_logits: np.ndarray  # (L, H): softmax over frames, per channel
    out_proj: np.ndarray        # (H, D)
    out_bias: np.ndarray        # (D,)

    @property
    def frames(self) -> int:
        return self.temporal_logits.shape[0]

    def arrays(self):
        # the fields in declaration order, spelled out: this runs three
        # times per train step, and `dataclasses.fields` costs more
        return [self.frame_proj, self.frame_bias, self.temporal_logits, self.out_proj, self.out_bias]


def init_video_encoder(
    rng: np.random.Generator,
    frames: int,
    hidden: int,
    embed_dim: int,
    frame_width: int = FRAME_WIDTH,
) -> VideoEncoderParams:
    # temporal logits start spread out so channels already prefer different
    # frames; uniform averaging cannot express frame-to-frame displacement
    return VideoEncoderParams(
        frame_proj=rng.normal(size=(frame_width, hidden)) / np.sqrt(frame_width),
        frame_bias=np.zeros(hidden),
        temporal_logits=rng.normal(scale=1.5, size=(frames, hidden)),
        out_proj=rng.normal(size=(hidden, embed_dim)) / np.sqrt(hidden),
        out_bias=np.zeros(embed_dim),
    )


def encode_clips_cached(clips: np.ndarray, params: VideoEncoderParams):
    """Encode (N, L, F) clips to unit-norm (N, D) embeddings, keeping a cache."""
    clips = np.asarray(clips, dtype=np.float64)
    if clips.ndim != 3:
        raise ShapeMismatchError(f"clips must be (N, L, F), got {clips.shape}")
    n, l, f = clips.shape
    if (l, f) != (params.temporal_logits.shape[0], params.frame_proj.shape[0]):
        raise ShapeMismatchError(
            f"clip shape ({l},{f}) does not match encoder "
            f"({params.temporal_logits.shape[0]},{params.frame_proj.shape[0]})"
        )

    # one (N*L, F) @ (F, H) product, equal bit for bit to the 3-D matmul
    pre = (clips.reshape(n * l, f) @ params.frame_proj).reshape(n, l, params.frame_proj.shape[1])
    pre += params.frame_bias                                     # (N, L, H)
    hidden = np.tanh(pre)
    tl = params.temporal_logits
    w = np.exp(tl - tl.max(axis=0, keepdims=True))
    w /= w.sum(axis=0, keepdims=True)                            # (L, H)
    pooled = np.einsum("lh,nlh->nh", w, hidden)                  # (N, H)
    z = pooled @ params.out_proj + params.out_bias               # (N, D)
    norms = np.linalg.norm(z, axis=1)
    if (norms <= 1e-12).any():
        raise ZeroVectorError("pre-normalization embedding collapsed to zero")
    v = z / norms[:, None]
    cache = (clips, hidden, w, pooled, norms, v, params)
    return v, cache


def encode_clips(clips: np.ndarray, params: VideoEncoderParams) -> np.ndarray:
    return encode_clips_cached(clips, params)[0]


def encode_clips_backward(cache, d_v: np.ndarray) -> VideoEncoderParams:
    """Accumulate d(loss)/d(params) given d(loss)/d(embeddings)."""
    clips, hidden, w, pooled, norms, v, params = cache
    d_v = np.asarray(d_v, dtype=np.float64)
    # through z / ||z||
    inner = (v * d_v).sum(axis=1, keepdims=True)
    d_z = (d_v - v * inner) / norms[:, None]
    d_out_bias = d_z.sum(axis=0)
    d_out_proj = pooled.T @ d_z
    d_pooled = d_z @ params.out_proj.T                            # (N, H)
    d_hidden = w[None, :, :] * d_pooled[:, None, :]               # (N, L, H)
    d_w = np.einsum("nlh,nh->lh", hidden, d_pooled)               # (L, H)
    # softmax over frames, independently per channel
    d_tl = w * (d_w - (w * d_w).sum(axis=0, keepdims=True))
    d_pre = d_hidden * (1.0 - hidden * hidden)
    # all N*L frames in one (F, N*L) @ (N*L, H) BLAS product
    d_frame_proj = clips.reshape(-1, clips.shape[-1]).T @ d_pre.reshape(-1, d_pre.shape[-1])
    d_frame_bias = d_pre.sum(axis=(0, 1))
    return VideoEncoderParams(
        frame_proj=d_frame_proj,
        frame_bias=d_frame_bias,
        temporal_logits=d_tl,
        out_proj=d_out_proj,
        out_bias=d_out_bias,
    )


# --- frozen task text embeddings ---

def task_texts(n_tasks: int, embed_dim: int, seed: int) -> np.ndarray:
    """Read-only (T, D) text embeddings of tasks 0..T-1: one seeded unit
    Gaussian per task, near-orthogonal at the default width."""
    texts = np.empty((n_tasks, embed_dim))
    for task in range(n_tasks):
        texts[task] = l2_normalize(
            np.random.default_rng([seed, _TEXT_STREAM, task]).normal(size=embed_dim)
        )
    texts.setflags(write=False)
    return texts


# --- failure prompt pool ---

@dataclass
class FailurePromptPool:
    """K trainable prompts per pooled task plus the shared pooling map."""

    tasks: np.ndarray      # (T_p,) task ids, ascending
    prompts: np.ndarray    # (T_p, K, prompt_len, D): row i belongs to tasks[i]
    proj: np.ndarray       # (D, D)
    bias: np.ndarray       # (D,)


def init_prompt_pool(
    task_ids,
    rng: np.random.Generator,
    k: int,
    prompt_len: int,
    embed_dim: int,
) -> FailurePromptPool:
    if k < 1 or prompt_len < 1:
        raise BadClusterIndexError("need k >= 1 and prompt_len >= 1")
    tasks = np.array(sorted(task_ids), dtype=np.int64)
    return FailurePromptPool(
        tasks=tasks,
        prompts=rng.normal(scale=PROMPT_SCALE, size=(len(tasks), k, prompt_len, embed_dim)),
        proj=np.eye(embed_dim),
        bias=np.zeros(embed_dim),
    )


def failure_text_features(pool: FailurePromptPool, texts: np.ndarray):
    """Features of all (task, cluster) contexts [prompt; task text], composed
    in one pass: token mean -> shared map -> normalize. texts is the (T, D)
    task text array.

    Returns (T_p, K, D) unit features and the cache for the backward pass.
    """
    if ((pool.tasks < 0) | (pool.tasks >= len(texts))).any():
        raise UnknownTaskError(f"pool tasks {pool.tasks.tolist()} are not all task texts")
    # the token mean of [prompt; text]: the prompt rows summed in order,
    # then the text, the additions np.mean makes over the stacked rows
    n_rows = pool.prompts.shape[-2] + 1
    mean = (pool.prompts.sum(axis=-2) + texts[pool.tasks][:, None, :]) / n_rows
    u = mean @ pool.proj + pool.bias
    norm = np.linalg.norm(u, axis=-1)
    if (norm <= 1e-12).any():
        raise ZeroVectorError("failure context collapsed to zero")
    t_f = u / norm[..., None]
    return t_f, (n_rows, mean, norm, t_f, pool.proj)


def compose_failure_context_backward(cache, d_t: np.ndarray):
    """Returns (d_prompts (T_p, K, prompt_len, D), d_proj, d_bias) given
    d(loss)/d(features) for the (T_p, K, D) stack failure_text_features made."""
    n_rows, mean, norm, t_f, proj = cache
    d_t = np.asarray(d_t, dtype=np.float64)
    d_u = (d_t - t_f * (t_f * d_t).sum(axis=-1, keepdims=True)) / norm[..., None]
    width = d_u.shape[-1]
    d_bias = d_u.reshape(-1, width).sum(axis=0)
    d_proj = mean.reshape(-1, width).T @ d_u.reshape(-1, width)
    d_row = (d_u @ proj.T) / n_rows
    d_prompts = np.repeat(d_row[..., None, :], n_rows - 1, axis=-2)
    return d_prompts, d_proj, d_bias
