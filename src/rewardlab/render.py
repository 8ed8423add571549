"""State -> frame-feature rendering, the human-domain transform, and
environment variants.

A frame feature is a fixed nonlinear map of the state (positions, degrees
of freedom, camera offset): tanh(W r + b) with constants drawn once from a
fixed seed. The human domain applies one fixed invertible affine
transform on top (the rotation exp(MIX * S) of a fixed skew generator S,
plus OFFSET along a fixed unit direction), which models the
embodiment/viewpoint gap; human clips also get a per-clip camera offset
of up to VIEWPOINT_SIGMA.

The rotation is built once, at import, with numpy alone: i * MIX * S is
Hermitian, so `eigh` gives i * MIX * S = V diag(w) V^H with real w, and
exp(MIX * S) = V diag(exp(-i w)) V^H, real up to rounding (~1e-15 per
entry). For a normal generator this is one of the stable routes to a
matrix exponential (Moler & Van Loan, "Nineteen Dubious Ways to Compute
the Exponential of a Matrix, Twenty-Five Years Later", SIAM Review 2003).

Environment variants change rendering only (color bias inside the
nonlinearity, camera offset, feature permutation) and never touch dynamics
or predicates.

`render_clips` is the one path from state sequences to clips (datagen's
and the learned reward's): it subsamples each sequence to the clip length
and renders every frame in one `render_frames` call.
"""

import numpy as np

from . import simworld as sw
from .errors import BadConfigError, ShapeMismatchError

FRAME_WIDTH = 16
RAW_WIDTH = 9  # gripper xy, grip, drawer ext, faucet angle, cup xy, camera xy

_RENDER_SEED = 137
_rng = np.random.default_rng(_RENDER_SEED)
_W_RENDER = _rng.normal(scale=0.6, size=(FRAME_WIDTH, RAW_WIDTH))
_B_RENDER = _rng.normal(scale=0.3, size=FRAME_WIDTH)
_SKEW_BASE = _rng.normal(size=(FRAME_WIDTH, FRAME_WIDTH))
_SKEW = (_SKEW_BASE - _SKEW_BASE.T) / np.sqrt(FRAME_WIDTH)
_OFFSET_DIR = _rng.normal(size=FRAME_WIDTH)
_OFFSET_DIR /= np.linalg.norm(_OFFSET_DIR)
_COLOR_BIAS = _rng.normal(scale=0.35, size=FRAME_WIDTH)
_PERM = _rng.permutation(FRAME_WIDTH)
del _rng, _SKEW_BASE


# the robot->human frame-feature transform
MIX = 0.7               # rotation amount
OFFSET = 0.35           # constant shift magnitude
VIEWPOINT_SIGMA = 0.08  # per-clip camera offset spread (human)


def _skew_exp(skew: np.ndarray, angle: float) -> np.ndarray:
    """exp(angle * skew) for a real skew-symmetric matrix."""
    w, v = np.linalg.eigh(1j * angle * skew)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


_SHIFT_MATRIX = _skew_exp(_SKEW, MIX)


def apply_domain_shift(features: np.ndarray) -> np.ndarray:
    """Affine human-domain transform of robot-domain frame features."""
    return features @ _SHIFT_MATRIX.T + OFFSET * _OFFSET_DIR


# variant name -> (color bias scale, camera offset, permute features)
VARIANTS = {
    "train": (0.0, (0.0, 0.0), False),
    "shifted-color": (1.0, (0.0, 0.0), False),
    "shifted-view": (1.0, (0.06, -0.05), False),
    "shifted-arrangement": (1.0, (0.06, -0.05), True),
}


def render_frames(
    states: np.ndarray,
    camera: np.ndarray = (0.0, 0.0),
    domain: str = "robot",
    variant: str = "train",
) -> np.ndarray:
    """Render (N,7) state arrays to (N,F) frame features; camera is one (2,)
    offset for every state or one per state, (N, 2)."""
    if variant not in VARIANTS:
        raise BadConfigError(f"unknown environment variant {variant!r}")
    if domain not in ("robot", "human"):
        raise BadConfigError(f"domain must be 'robot' or 'human', got {domain!r}")
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != sw.STATE_DIM:
        raise ShapeMismatchError(f"states must be (N,{sw.STATE_DIM})")
    camera = np.asarray(camera, dtype=np.float64)
    if camera.shape not in ((2,), (states.shape[0], 2)):
        raise ShapeMismatchError(f"camera must be (2,) or ({states.shape[0]}, 2), "
                                 f"got {camera.shape}")

    color_scale, cam_off, permute = VARIANTS[variant]
    raw = np.empty((states.shape[0], RAW_WIDTH))
    raw[:, 0:2] = states[:, (sw.GX, sw.GY)]
    raw[:, 2] = states[:, sw.GRIP]
    # scale the small degrees of freedom so they register in the features
    raw[:, 3] = states[:, sw.EXT] * 10.0
    raw[:, 4] = states[:, sw.ANGLE] * 10.0
    raw[:, 5:7] = states[:, (sw.CUPX, sw.CUPY)]
    raw[:, 7] = camera[..., 0] + cam_off[0]
    raw[:, 8] = camera[..., 1] + cam_off[1]

    pre = raw @ _W_RENDER.T + _B_RENDER + color_scale * _COLOR_BIAS
    feats = np.tanh(pre)
    if permute:
        feats = feats[:, _PERM]
    if domain == "human":
        feats = apply_domain_shift(feats)
    return feats


def clip_frame_indices(n_states: int, n_frames: int) -> np.ndarray:
    """Uniform temporal subsampling indices (first and last always kept)."""
    return np.round(np.linspace(0, n_states - 1, n_frames)).astype(int)


def render_clips(states, n_frames: int, camera=(0.0, 0.0), domain="robot", variant="train"):
    """Render (n, T+1, 7) state sequences, T+1 >= 1, to (n, n_frames, F)
    clips, n_frames >= 1; camera is one (2,) offset for every sequence or one
    per sequence, (n, 2)."""
    states, camera = np.asarray(states, dtype=np.float64), np.asarray(camera, dtype=np.float64)
    if n_frames < 1:
        raise ShapeMismatchError(f"a clip needs n_frames >= 1, got {n_frames}")
    if states.ndim != 3 or states.shape[1] < 1 or camera.shape not in ((2,), (len(states), 2)):
        raise ShapeMismatchError(f"need (n, T+1 >= 1, {sw.STATE_DIM}) states and a (2,) or (n, 2) "
                                 f"camera, got {states.shape} and {camera.shape}")
    frames = render_frames(
        states[:, clip_frame_indices(states.shape[1], n_frames)].reshape(-1, states.shape[2]),
        camera if camera.ndim == 1 else np.repeat(camera, n_frames, axis=0), domain, variant,
    )
    return frames.reshape(len(states), n_frames, FRAME_WIDTH)
